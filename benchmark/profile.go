package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// shareLayers are the *.cpu_share rows: this repo's packages, then the
// runtime split the fleet profile made interesting (GC, allocation,
// fmt on the denial path), then everything else. They sum to 1.
var shareLayers = []string{
	"ticks", "sim", "sched", "rm", "policy", "task", "core", "invariant", "fault",
	"workload", "baseline", "streamer", "fleet", "telemetry", "trace", "metrics", "sweep",
}

const (
	shareGC    = "runtime.gc_share"
	shareAlloc = "runtime.alloc_share"
	shareFmt   = "fmt.cpu_share"
	shareOther = "other.cpu_share"
)

// cpuProfile samples the process while body runs and writes the
// profile under dir.
func cpuProfile(dir, workload string, body func() error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return "", err
	}
	err = body()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// cpuShares aggregates a CPU profile into one share per layer with
// `go tool pprof -traces`, which prints every distinct sampled stack
// with its weight. A sample belongs to the GC if a collector entry
// point is on its stack, to allocation if runtime.mallocgc is, and
// otherwise to the package of its leaf function; samples of the
// harness itself (no simulator frame on the stack) are left out. It
// returns the shares keyed by metric name and the number of samples
// behind them.
func cpuShares(profile string) (map[string]float64, int, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	byLayer := map[string]time.Duration{}
	var total time.Duration

	var weight time.Duration
	var stack []string
	flush := func() {
		if layer := classify(stack); layer != "" {
			byLayer[layer] += weight
			total += weight
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples {
			continue // header: file, type, time, duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			// "     10ms   runtime.futex": weight, then the leaf.
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof -traces: cannot read sample line %q", line)
			}
			weight = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	shares := map[string]float64{shareGC: 0, shareAlloc: 0, shareFmt: 0, shareOther: 0}
	for _, l := range shareLayers {
		shares[l+".cpu_share"] = 0
	}
	if total == 0 {
		// A pass shorter than a few sampling periods: nothing is known,
		// which is what "all other, from 0 samples" says.
		shares[shareOther] = 1
		return shares, 0, nil
	}
	for layer, d := range byLayer {
		shares[layer] += float64(d) / float64(total)
	}
	// Samples arrive every 10 ms (runtime/pprof's fixed 100 Hz).
	return shares, int(total / (10 * time.Millisecond)), nil
}

// gcEntryPoints are the runtime functions under which all collector
// work runs: the background workers and the assists and phase changes
// a mutator is drafted into.
var gcEntryPoints = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// classify names the share row a sampled stack (leaf first) counts
// towards, or "" for a stack that is neither the collector's nor has a
// simulator frame on it: the harness's own checks and calibration
// bursts, and idle runtime threads.
func classify(stack []string) string {
	inSimulator := false
	for _, fn := range stack {
		if strings.HasPrefix(fn, "repro/internal/") {
			inSimulator = true
		}
		for _, gc := range gcEntryPoints {
			if strings.HasPrefix(fn, gc) {
				return shareGC
			}
		}
	}
	if !inSimulator {
		return ""
	}
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return shareAlloc
		}
	}
	leaf := stack[0]
	if rest, ok := strings.CutPrefix(leaf, "repro/internal/"); ok {
		for _, l := range shareLayers {
			if strings.HasPrefix(rest, l+".") || strings.HasPrefix(rest, l+"/") {
				return l + ".cpu_share"
			}
		}
	}
	if strings.HasPrefix(leaf, "fmt.") {
		return shareFmt
	}
	return shareOther
}

// resetPeakRSS resets the resident-set high-water mark to the current
// resident set, so that peakRSSMiB reads the peak since this call.
// Where the kernel refuses, the mark stays the process's lifetime peak
// and every round reads the same value.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.WriteString("5") // best effort, see above
	f.Close()
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
