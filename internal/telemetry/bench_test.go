package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"
)

// The artifact path's five layers over one synthetic cluster: 50 000
// spans across 24 nodes and a coordinator, the shape (not the size) of
// the cluster-manifest workload. allocs/op and B/op are gated by
// bench-smoke against BENCH_kernel.json; MB/s is reported. The three
// that split a span list run as procs=1 and procs=2 sub-benchmarks,
// which set GOMAXPROCS themselves: the serial path and the parallel
// one on two cores.

const (
	benchSpans = 50000
	benchNodes = 24
)

// BenchmarkStitchCluster stitches from the parts' manifests (rdtrace
// stitch) and from their span logs (Cluster.Manifest, the live path).
func BenchmarkStitchCluster(b *testing.B) {
	coord, parts, logs := syntheticLogs(benchSpans, benchNodes)
	for _, bc := range []struct {
		name   string
		stitch func() (*Manifest, error)
	}{
		{"manifests", func() (*Manifest, error) { return StitchCluster(coord, parts) }},
		{"logs", func() (*Manifest, error) { return StitchLogs(coord, parts, logs) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := bc.stitch()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(m.Spans)) * int64(unsafe.Sizeof(Span{})))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.stitch(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// atProcs runs bench as the sub-benchmarks procs=1 and procs=2.
func atProcs(b *testing.B, bench func(b *testing.B)) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			bench(b)
		})
	}
}

func BenchmarkManifestWrite(b *testing.B) { atProcs(b, benchManifestWrite) }

func benchManifestWrite(b *testing.B) {
	m := syntheticCluster(benchSpans, benchNodes)
	var doc bytes.Buffer
	if err := m.WriteJSON(&doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManifestRead(b *testing.B) { atProcs(b, benchManifestRead) }

func benchManifestRead(b *testing.B) {
	var doc bytes.Buffer
	if err := syntheticCluster(benchSpans, benchNodes).WriteJSON(&doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadManifest(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfettoExport(b *testing.B) { atProcs(b, benchPerfettoExport) }

func benchPerfettoExport(b *testing.B) {
	m := syntheticCluster(benchSpans, benchNodes)
	var doc bytes.Buffer
	if err := WritePerfetto(&doc, m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePerfetto(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfettoValidate(b *testing.B) {
	var doc bytes.Buffer
	if err := WritePerfetto(&doc, syntheticCluster(benchSpans, benchNodes)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ValidatePerfetto(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
