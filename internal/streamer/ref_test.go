package streamer

// The reference engine: the Data Streamer as it was before its
// transfer and reallocation paths stopped allocating — a *Transfer per
// frame, a completion closure per arming, allocators that return fresh
// slices — kept as the oracle FuzzStreamerMatchesRef holds Engine to.
// It carries one fix the engine also has: Close accounts the in-flight
// transfer's busy time before dropping it.

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// refEngine is the reference Data Streamer instance.
type refEngine struct {
	k         *sim.Kernel
	totalMBps int64
	allocated int64
	channels  map[string]*refChannel
	// order is the channels in open order — the deterministic
	// iteration the allocator sees (the map is lookup-only).
	order []*refChannel
	// alloc, when non-nil, puts the engine in policy-driven mode:
	// channel rates are computed by the allocator over declared
	// demands instead of being hard reservations.
	alloc refAllocator
	tel   streamTelemetry
}

// newRef builds a metered engine with the given total bandwidth in MB/s:
// rates are hard per-channel reservations, the RD model.
func newRef(k *sim.Kernel, totalMBps int64) *refEngine {
	if totalMBps <= 0 {
		panic("streamer: need positive capacity")
	}
	return &refEngine{k: k, totalMBps: totalMBps, channels: make(map[string]*refChannel)}
}

// newRefAllocated builds a policy-driven engine: channels declare
// demands and alloc divides the capacity. Open never fails for lack
// of bandwidth — a channel may simply be granted less than it asked
// for (down to a stalled zero).
func newRefAllocated(k *sim.Kernel, totalMBps int64, alloc refAllocator) *refEngine {
	e := newRef(k, totalMBps)
	if alloc == nil {
		alloc = refMetered{}
	}
	e.alloc = alloc
	return e
}

// Instrument pre-registers the engine's instruments in t's registry.
// A nil Set leaves every handle nil and the engine silent.
func (e *refEngine) Instrument(t *telemetry.Set) {
	r := t.Reg()
	e.tel = streamTelemetry{
		transfers:   r.Counter("streamer.transfers"),
		bytes:       r.Counter("streamer.bytes"),
		reallocs:    r.Counter("streamer.reallocations"),
		allocatedBW: r.Gauge("streamer.allocated_mbps"),
	}
	e.tel.allocatedBW.Set(e.allocated)
}

// Capacity reports total and currently allocated bandwidth.
func (e *refEngine) Capacity() (total, allocated int64) { return e.totalMBps, e.allocated }

// Open creates a channel. In metered mode the rate is reserved and
// opening fails if the sum would exceed capacity; in policy-driven
// mode the rate is a demand and the allocator decides the grant.
func (e *refEngine) Open(name string, mbps int64) (*refChannel, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("streamer: channel %q needs a positive rate", name)
	}
	if _, dup := e.channels[name]; dup {
		return nil, fmt.Errorf("streamer: channel %q already open", name)
	}
	c := &refChannel{engine: e, name: name, demand: mbps, quality: 1}
	if e.alloc == nil {
		if e.allocated+mbps > e.totalMBps {
			return nil, fmt.Errorf("%w: %d + %d > %d MB/s", ErrBandwidth, e.allocated, mbps, e.totalMBps)
		}
		c.mbps = mbps
		e.allocated += mbps
		e.tel.allocatedBW.Set(e.allocated)
	}
	e.channels[name] = c
	e.order = append(e.order, c)
	if e.alloc != nil {
		e.reallocate()
	}
	return c, nil
}

// OpenQuality creates a channel with an explicit quality score for
// quality-aware allocators (refMaxThroughput grants high-quality
// channels first). In metered mode quality is recorded but unused.
func (e *refEngine) OpenQuality(name string, mbps, quality int64) (*refChannel, error) {
	c, err := e.Open(name, mbps)
	if err != nil {
		return nil, err
	}
	c.quality = quality
	if e.alloc != nil {
		e.reallocate()
	}
	return c, nil
}

// reallocate recomputes every channel's rate from the declared
// demands, in open order, and re-rates in-flight transfers.
func (e *refEngine) reallocate() {
	demands := make([]Demand, len(e.order))
	for i, c := range e.order {
		demands[i] = Demand{Name: c.name, MBps: c.demand, Quality: c.quality}
	}
	rates := e.alloc.Allocate(e.totalMBps, demands)
	var sum int64
	for i, c := range e.order {
		var r int64
		if i < len(rates) {
			r = rates[i]
		}
		if r < 0 {
			r = 0
		}
		if r != c.mbps {
			c.rerate(r)
		}
		sum += r
	}
	e.allocated = sum
	e.tel.reallocs.Inc()
	e.tel.allocatedBW.Set(e.allocated)
}

// refChannel is one DMA channel.
type refChannel struct {
	engine  *refEngine
	name    string
	mbps    int64 // granted rate; may be 0 (stalled) in policy mode
	demand  int64 // requested rate (== mbps in metered mode)
	quality int64
	closed  bool

	// In-flight transfer, if any (channels are FIFO: one transfer
	// moves at a time per channel; more queue behind it).
	queue []*refTransfer

	stats ChannelStats
}

// refTransfer is one queued DMA operation.
type refTransfer struct {
	bytes   int64
	rem27   int64 // exact progress: byte·27 units still to move
	onDone  func()
	event   sim.EventRef
	started ticks.Ticks
	running bool
	ch      *refChannel
}

// Name reports the channel name.
func (c *refChannel) Name() string { return c.name }

// Rate reports the channel's current granted rate in MB/s.
func (c *refChannel) Rate() int64 { return c.mbps }

// Demand reports the channel's requested rate in MB/s.
func (c *refChannel) Demand() int64 { return c.demand }

// Stats reports the channel accounting.
func (c *refChannel) Stats() ChannelStats { return c.stats }

// QueueLen reports queued transfers, including the in-flight one.
func (c *refChannel) QueueLen() int { return len(c.queue) }

// refTicksFor27 converts rem27 byte·27 units at mbps to ticks: one tick
// moves mbps units (1 MB/s = 1e6 B/s = 1e6·27 units / 27e6 ticks).
func refTicksFor27(rem27, mbps int64) ticks.Ticks {
	if rem27 <= 0 {
		return 0
	}
	t := (rem27 + mbps - 1) / mbps
	if t < 1 {
		t = 1
	}
	return ticks.Ticks(t)
}

// Submit queues a transfer of the given size; onDone fires in virtual
// time when the last byte lands. Returns an error on a closed
// channel or non-positive size.
func (c *refChannel) Submit(bytes int64, onDone func()) error {
	if c.closed {
		return fmt.Errorf("streamer: channel %q is closed", c.name)
	}
	if bytes <= 0 {
		return fmt.Errorf("streamer: transfer needs positive size, got %d", bytes)
	}
	t := &refTransfer{bytes: bytes, rem27: bytes * 27, onDone: onDone, ch: c}
	c.queue = append(c.queue, t)
	if len(c.queue) == 1 {
		c.start(t)
	}
	return nil
}

// start arms the completion event for t at the channel's current
// rate. A zero rate stalls the transfer: no event, and progress
// resumes when a reallocation raises the rate again.
func (c *refChannel) start(t *refTransfer) {
	if c.mbps <= 0 {
		t.running = false
		return
	}
	t.started = c.engine.k.Now()
	t.running = true
	t.event = c.engine.k.After(refTicksFor27(t.rem27, c.mbps), func() { c.complete(t) })
}

// pause accounts t's progress at the current rate and disarms its
// completion event. Exact: elapsed ticks move elapsed·mbps byte·27
// units, no rounding.
func (c *refChannel) pause(t *refTransfer) {
	if !t.running {
		return
	}
	now := c.engine.k.Now()
	elapsed := now - t.started
	moved := int64(elapsed) * c.mbps
	if moved > t.rem27 {
		moved = t.rem27
	}
	t.rem27 -= moved
	c.stats.BusyTicks += elapsed
	c.engine.k.Cancel(t.event)
	t.running = false
}

func (c *refChannel) complete(t *refTransfer) {
	now := c.engine.k.Now()
	t.rem27 = 0
	t.running = false
	c.stats.Transfers++
	c.stats.Bytes += t.bytes
	c.stats.BusyTicks += now - t.started
	c.engine.tel.transfers.Inc()
	c.engine.tel.bytes.Add(t.bytes)
	c.queue = c.queue[1:]
	if len(c.queue) > 0 {
		c.start(c.queue[0])
	}
	if t.onDone != nil {
		t.onDone()
	}
}

// rerate switches the channel to a new granted rate, pausing and
// restarting the in-flight transfer so its remaining bytes finish at
// the new rate.
func (c *refChannel) rerate(mbps int64) {
	if len(c.queue) > 0 {
		t := c.queue[0]
		c.pause(t)
		c.mbps = mbps
		c.start(t)
	} else {
		c.mbps = mbps
	}
}

// SetRate re-rates the channel (a grant change). In metered mode the
// reservation against engine capacity is adjusted and increases can
// fail; in policy-driven mode this updates the channel's demand and
// triggers a reallocation (which cannot fail — the grant may just be
// smaller than asked).
func (c *refChannel) SetRate(mbps int64) error {
	if c.closed {
		return fmt.Errorf("streamer: channel %q is closed", c.name)
	}
	if mbps <= 0 {
		return fmt.Errorf("streamer: rate must be positive, got %d", mbps)
	}
	if c.engine.alloc != nil {
		c.demand = mbps
		c.engine.reallocate()
		return nil
	}
	delta := mbps - c.mbps
	if delta > 0 && c.engine.allocated+delta > c.engine.totalMBps {
		return fmt.Errorf("%w: re-rate %q to %d MB/s", ErrBandwidth, c.name, mbps)
	}
	c.rerate(mbps)
	c.demand = mbps
	c.engine.allocated += delta
	c.engine.tel.allocatedBW.Set(c.engine.allocated)
	return nil
}

// Close releases the channel. Queued transfers are dropped without
// completion callbacks — an in-flight transfer's onDone never fires.
// In policy-driven mode the freed bandwidth is redistributed.
func (c *refChannel) Close() {
	if c.closed {
		return
	}
	if len(c.queue) > 0 {
		c.pause(c.queue[0])
	}
	c.queue = nil
	c.closed = true
	e := c.engine
	delete(e.channels, c.name)
	for i, o := range e.order {
		if o == c {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	if e.alloc != nil {
		e.reallocate()
	} else {
		e.allocated -= c.mbps
		e.tel.allocatedBW.Set(e.allocated)
	}
}

// refAllocator divides streamer capacity among channel demands. The
// returned slice is positional: rates[i] is the grant for demands[i],
// 0 (or a short slice) meaning stalled. Implementations must be pure
// functions of (totalMBps, demands) — the engine calls them from
// deterministic simulation context and the sweep relies on
// byte-identical replays.
type refAllocator interface {
	Name() string
	Allocate(totalMBps int64, demands []Demand) []int64
}

// refMetered is the RD's first-come-first-served reservation policy as
// an refAllocator: grants in open order until capacity runs out, later
// channels starve. This is what newRef()'s hard reservations degrade to
// when demand exceeds capacity.
type refMetered struct{}

// Name implements refAllocator.
func (refMetered) Name() string { return "metered" }

// Allocate implements refAllocator.
func (refMetered) Allocate(totalMBps int64, demands []Demand) []int64 {
	out := make([]int64, len(demands))
	remaining := totalMBps
	for i, d := range demands {
		g := d.MBps
		if g < 0 {
			g = 0
		}
		if g > remaining {
			g = remaining
		}
		out[i] = g
		remaining -= g
	}
	return out
}

// refMaxMinFair is progressive water-filling: capacity is leveled up in
// equal shares, channels whose demand is met drop out and their
// surplus is redistributed, until capacity or demand is exhausted.
// No channel can raise its grant except by lowering a smaller one —
// the classic fairness criterion. Integer arithmetic; sub-share
// remainders go one MB/s at a time in open order.
type refMaxMinFair struct{}

// Name implements refAllocator.
func (refMaxMinFair) Name() string { return "maxmin" }

// Allocate implements refAllocator.
func (refMaxMinFair) Allocate(totalMBps int64, demands []Demand) []int64 {
	out := make([]int64, len(demands))
	remaining := totalMBps
	unsat := make([]int, 0, len(demands))
	for i, d := range demands {
		if d.MBps > 0 {
			unsat = append(unsat, i)
		}
	}
	for len(unsat) > 0 && remaining > 0 {
		share := remaining / int64(len(unsat))
		if share == 0 {
			// Fewer whole units than claimants: one each, open order.
			for _, i := range unsat {
				if remaining == 0 {
					break
				}
				out[i]++
				remaining--
			}
			break
		}
		satisfied := false
		next := unsat[:0]
		for _, i := range unsat {
			if need := demands[i].MBps - out[i]; need <= share {
				out[i] += need
				remaining -= need
				satisfied = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		if !satisfied {
			// Everyone needs more than the equal share: level up and
			// spread the remainder, then stop — demands all exceed
			// what is left.
			for _, i := range unsat {
				out[i] += share
				remaining -= share
			}
			for _, i := range unsat {
				if remaining == 0 {
					break
				}
				out[i]++
				remaining--
			}
			break
		}
	}
	return out
}

// refMaxThroughput grants the highest-quality channels their full demand
// first — the greedy maximum-value schedule. Ties break by open
// order, so the result is deterministic. Low-quality channels starve
// under contention; that is the point of the comparison.
type refMaxThroughput struct{}

// Name implements refAllocator.
func (refMaxThroughput) Name() string { return "maxthru" }

// Allocate implements refAllocator.
func (refMaxThroughput) Allocate(totalMBps int64, demands []Demand) []int64 {
	out := make([]int64, len(demands))
	idx := make([]int, len(demands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return demands[idx[a]].Quality > demands[idx[b]].Quality
	})
	remaining := totalMBps
	for _, i := range idx {
		g := demands[i].MBps
		if g < 0 {
			g = 0
		}
		if g > remaining {
			g = remaining
		}
		out[i] = g
		remaining -= g
	}
	return out
}
