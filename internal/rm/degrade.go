package rm

import (
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Graceful degradation. When faults push demand over capacity — an
// interrupt storm eating into the schedulable fraction, a misbehaving
// device stealing cycles — the Resource Distributor must not silently
// let granted tasks miss. Instead the caller (internal/core's overload
// governor, or a fault scenario directly) applies *pressure*: a CPU
// fraction subtracted from the capacity the grant computation may
// hand out. The Manager then recomputes grants exactly as it does for
// any overload — consulting the Policy Box, shedding resource-list
// levels in policy order — so the degradation is a deterministic,
// recorded policy decision rather than an accident of timing.
//
// Pressure never touches admission control: the paper's §4.1 contract
// (every admitted task's minimum entry is always deliverable) is kept
// by flooring the degraded capacity at the admission running sum.

// DegradationEvent records one pressure change and what it did.
type DegradationEvent struct {
	At     ticks.Ticks // virtual time of the decision
	Reason string      // why the caller applied pressure
	// Requested is the capacity reduction asked for; Applied is the
	// reduction actually in force after the minimum-sum floor.
	Requested ticks.Frac
	Applied   ticks.Frac
	// Generation numbers grant-set revisions caused by degradation.
	Generation int64
	// PolicyConsulted/PolicyInvented report whether the shed decision
	// came from a stored Policy Box entry or an invented fallback.
	PolicyConsulted bool
	PolicyInvented  bool
}

// SetPressure installs overload pressure p (a CPU fraction withheld
// from grant computation) and recomputes the grant set. Setting the
// current value again is a no-op so periodic governors can re-assert
// without flooding the log; p = FracZero lifts the degradation. now
// timestamps the decision in the event log.
func (m *Manager) SetPressure(now ticks.Ticks, p ticks.Frac, reason string) {
	if p.Num < 0 {
		p = ticks.FracZero
	}
	if p.Cmp(m.pressure) == 0 {
		return
	}
	m.pressure = p
	m.lastOp = OpStats{Op: "degrade"}
	m.recomputeGrants()
	m.tel.sheds.Inc()
	m.tel.spans.Instant(now, "degrade", reason, telemetry.NoTask, 0, "")
	m.degradations = append(m.degradations, DegradationEvent{
		At:              now,
		Reason:          reason,
		Requested:       p,
		Applied:         m.Available().Sub(m.capacityForGrants()),
		Generation:      int64(len(m.degradations)) + 1,
		PolicyConsulted: m.lastOp.PolicyConsulted,
		PolicyInvented:  m.lastOp.PolicyInvented,
	})
}

// Pressure reports the pressure currently in force.
func (m *Manager) Pressure() ticks.Frac { return m.pressure }

// DegradationEvents returns the recorded degradation decisions, in
// order.
func (m *Manager) DegradationEvents() []DegradationEvent {
	out := make([]DegradationEvent, len(m.degradations))
	copy(out, m.degradations)
	return out
}

// NDegradations reports how many degradation decisions are recorded:
// the length of DegradationEvents, without the copy.
func (m *Manager) NDegradations() int { return len(m.degradations) }

// capacityForGrants is the CPU fraction the grant computation may
// distribute: Available() minus pressure, floored at the admission
// running sum so every admitted minimum stays deliverable (§4.1) and
// the correlation's minimum-entry fallback still converges.
func (m *Manager) capacityForGrants() ticks.Frac {
	avail := m.Available()
	if m.pressure.Num == 0 {
		return avail
	}
	eff := avail.Sub(m.pressure)
	if eff.Cmp(m.minSum) < 0 {
		eff = m.minSum
	}
	return eff
}
