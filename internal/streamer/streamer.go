// Package streamer models the MAP1000's Data Streamer: "a
// programmable, multi-ported DMA engine" that moves data between
// memory and devices concurrently with VLIW execution (§1, Figure 1).
//
// The Resource Distributor meters Streamer bandwidth through resource
// lists (task.Entry.StreamerMBps, see internal/resource); this
// package is the engine those numbers meter. Tasks open channels at
// their granted rate and submit transfers; completions land as
// virtual-time events. When a grant change re-rates a channel,
// in-flight transfers finish at the new rate — the DMA analogue of a
// CPU grant changing at a period boundary.
//
// Two allocation modes exist (alloc.go):
//
//   - Metered (New): the RD's model. Rates are hard reservations;
//     opening or re-rating beyond capacity fails. Channels never
//     interact.
//
//   - Policy-driven (NewAllocated): channels declare demands and an
//     Allocator divides capacity among them — max-min fair,
//     maximum-throughput, or the metered FCFS policy as comparators
//     for the contended-streamer scenarios.
//
// Progress is tracked exactly in byte·27 units (one tick moves `mbps`
// units), so a transfer re-rated arbitrarily often still completes
// within one tick of the ideal time and BusyTicks cannot drift.
//
//rd:hotpath
package streamer

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Engine is a Data Streamer instance.
type Engine struct {
	k         *sim.Kernel
	totalMBps int64
	allocated int64
	channels  map[string]*Channel
	// order is the channels in open order — the deterministic
	// iteration the allocator sees (the map is lookup-only).
	order []*Channel
	// alloc, when non-nil, puts the engine in policy-driven mode:
	// channel rates are computed by the allocator over declared
	// demands instead of being hard reservations.
	alloc Allocator
	// demands and rates are reallocate's scratch, one entry per open
	// channel, kept for the next call.
	demands []Demand
	rates   []int64
	tel     streamTelemetry
}

// streamTelemetry holds the engine's pre-registered instrument
// handles; the zero value records nothing.
type streamTelemetry struct {
	transfers   *telemetry.Counter
	bytes       *telemetry.Counter
	reallocs    *telemetry.Counter
	allocatedBW *telemetry.Gauge
}

// ErrBandwidth is returned when channel rates would exceed capacity.
var ErrBandwidth = errors.New("streamer: bandwidth capacity exceeded")

// New builds a metered engine with the given total bandwidth in MB/s:
// rates are hard per-channel reservations, the RD model.
func New(k *sim.Kernel, totalMBps int64) *Engine {
	if totalMBps <= 0 {
		panic("streamer: need positive capacity")
	}
	return &Engine{k: k, totalMBps: totalMBps, channels: make(map[string]*Channel)}
}

// NewAllocated builds a policy-driven engine: channels declare
// demands and alloc divides the capacity. Open never fails for lack
// of bandwidth — a channel may simply be granted less than it asked
// for (down to a stalled zero).
func NewAllocated(k *sim.Kernel, totalMBps int64, alloc Allocator) *Engine {
	e := New(k, totalMBps)
	if alloc == nil {
		alloc = Metered{}
	}
	e.alloc = alloc
	return e
}

// Capacity reports total and currently allocated bandwidth.
func (e *Engine) Capacity() (total, allocated int64) { return e.totalMBps, e.allocated }

// Allocator reports the engine's allocation policy, nil in metered
// mode.
func (e *Engine) Allocator() Allocator { return e.alloc }

// Open creates a channel. In metered mode the rate is reserved and
// opening fails if the sum would exceed capacity; in policy-driven
// mode the rate is a demand and the allocator decides the grant.
func (e *Engine) Open(name string, mbps int64) (*Channel, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("streamer: channel %q needs a positive rate", name)
	}
	if _, dup := e.channels[name]; dup {
		return nil, fmt.Errorf("streamer: channel %q already open", name)
	}
	c := &Channel{engine: e, name: name, demand: mbps, quality: 1}
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
// quality-aware allocators (MaxThroughput grants high-quality
// channels first). In metered mode quality is recorded but unused.
func (e *Engine) OpenQuality(name string, mbps, quality int64) (*Channel, error) {
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
func (e *Engine) reallocate() {
	e.demands = e.demands[:0]
	for _, c := range e.order {
		e.demands = append(e.demands, Demand{Name: c.name, MBps: c.demand, Quality: c.quality})
	}
	e.rates = slices.Grow(e.rates[:0], len(e.order))[:len(e.order)]
	e.alloc.Allocate(e.totalMBps, e.demands, e.rates)
	var sum int64
	for i, c := range e.order {
		r := max(e.rates[i], 0)
		if r != c.mbps {
			c.rerate(r)
		}
		sum += r
	}
	e.allocated = sum
	e.tel.reallocs.Inc()
	e.tel.allocatedBW.Set(e.allocated)
}

// Channel is one DMA channel.
type Channel struct {
	engine  *Engine
	name    string
	mbps    int64 // granted rate; may be 0 (stalled) in policy mode
	demand  int64 // requested rate (== mbps in metered mode)
	quality int64
	closed  bool

	// queue[head:] are the channel's transfers in submit order:
	// queue[head] is in flight (channels are FIFO: one transfer moves
	// at a time per channel), the rest wait behind it. Transfers are
	// held by value; Submit slides the live tail down to reuse the
	// backing once at least half of it is spent.
	queue []transfer
	head  int

	stats ChannelStats
}

// ChannelStats is per-channel accounting.
type ChannelStats struct {
	Transfers int64
	Bytes     int64
	BusyTicks ticks.Ticks
}

// transfer is one queued DMA operation.
type transfer struct {
	bytes   int64
	rem27   int64 // exact progress: byte·27 units still to move
	onDone  func()
	event   sim.EventRef
	started ticks.Ticks
	running bool
}

// completion is a Channel as the sim.Handler of the one event it arms
// at a time, its in-flight transfer's completion.
type completion Channel

var _ sim.Handler = (*completion)(nil)

// HandleEvent implements sim.Handler.
func (c *completion) HandleEvent(_, _ int32, _ ticks.Ticks) { (*Channel)(c).complete() }

// Name reports the channel name.
func (c *Channel) Name() string { return c.name }

// Rate reports the channel's current granted rate in MB/s.
func (c *Channel) Rate() int64 { return c.mbps }

// Demand reports the channel's requested rate in MB/s.
func (c *Channel) Demand() int64 { return c.demand }

// Stats reports the channel accounting.
func (c *Channel) Stats() ChannelStats { return c.stats }

// QueueLen reports queued transfers, including the in-flight one.
func (c *Channel) QueueLen() int { return len(c.queue) - c.head }

// ticksFor27 converts rem27 byte·27 units at mbps to ticks: one tick
// moves mbps units (1 MB/s = 1e6 B/s = 1e6·27 units / 27e6 ticks).
func ticksFor27(rem27, mbps int64) ticks.Ticks {
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
// time when the last byte lands. A channel completes its transfers in
// submit order. Returns an error on a closed channel or non-positive
// size.
func (c *Channel) Submit(bytes int64, onDone func()) error {
	if c.closed {
		return fmt.Errorf("streamer: channel %q is closed", c.name)
	}
	if bytes <= 0 {
		return fmt.Errorf("streamer: transfer needs positive size, got %d", bytes)
	}
	if c.head > 0 && 2*c.head >= cap(c.queue) {
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:]) // drop the spent transfers' callbacks
		c.queue, c.head = c.queue[:n], 0
	}
	c.queue = append(c.queue, transfer{bytes: bytes, rem27: bytes * 27, onDone: onDone})
	if c.QueueLen() == 1 {
		c.start()
	}
	return nil
}

// start arms the completion event of the in-flight transfer at the
// channel's current rate. A zero rate stalls the transfer: no event,
// and progress resumes when a reallocation raises the rate again.
func (c *Channel) start() {
	t := &c.queue[c.head]
	if c.mbps <= 0 {
		t.running = false
		return
	}
	k := c.engine.k
	t.started = k.Now()
	t.running = true
	t.event = k.AfterCall(ticksFor27(t.rem27, c.mbps), (*completion)(c), 0, 0, 0)
}

// pause accounts the in-flight transfer's progress at the current
// rate and disarms its completion event. Exact: elapsed ticks move
// elapsed·mbps byte·27 units, no rounding.
func (c *Channel) pause() {
	t := &c.queue[c.head]
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

// complete retires the in-flight transfer, starts the next one and
// runs the retired transfer's onDone.
func (c *Channel) complete() {
	t := c.queue[c.head]
	c.queue[c.head] = transfer{}
	c.head++
	c.stats.Transfers++
	c.stats.Bytes += t.bytes
	c.stats.BusyTicks += c.engine.k.Now() - t.started
	c.engine.tel.transfers.Inc()
	c.engine.tel.bytes.Add(t.bytes)
	if c.QueueLen() > 0 {
		c.start()
	}
	if t.onDone != nil {
		t.onDone()
	}
}

// rerate switches the channel to a new granted rate, pausing and
// restarting the in-flight transfer so its remaining bytes finish at
// the new rate.
func (c *Channel) rerate(mbps int64) {
	if c.QueueLen() > 0 {
		c.pause()
		c.mbps = mbps
		c.start()
	} else {
		c.mbps = mbps
	}
}

// SetRate re-rates the channel (a grant change). In metered mode the
// reservation against engine capacity is adjusted and increases can
// fail; in policy-driven mode this updates the channel's demand and
// triggers a reallocation (which cannot fail — the grant may just be
// smaller than asked).
func (c *Channel) SetRate(mbps int64) error {
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
// completion callbacks — an in-flight transfer's onDone never fires,
// but the time it spent moving data counts in BusyTicks. In
// policy-driven mode the freed bandwidth is redistributed.
func (c *Channel) Close() {
	if c.closed {
		return
	}
	if c.QueueLen() > 0 {
		c.pause()
	}
	c.queue, c.head = nil, 0
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
