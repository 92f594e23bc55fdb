package invariant

import (
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Shell is a Distributor, checked by a Checker or not, rebuilt in kept
// storage: how a sweep worker builds its single-node runs and a fleet
// node its incarnations. A Build empties what the previous build lived
// in. The zero value is ready; a Shell belongs to one goroutine.
type Shell struct {
	dist *core.Distributor // the storage of every build
	chk  *Checker          // the storage of every build's Checker
	d    *core.Distributor // the live build; nil after Retire
	c    *Checker          // its Checker; nil after Retire or unchecked
}

// Build assembles a Distributor from cfg. A checked build puts a
// Checker in front of cfg.Observer, binds it, mirrors its violations
// into log (nil for none) and counts them on cfg.Telemetry's
// "invariant.violations".
func (s *Shell) Build(cfg core.Config, checked bool, log *telemetry.EventLog) *core.Distributor {
	s.c = nil
	if checked {
		s.chk = NewIn(s.chk, cfg.Observer)
		s.c, cfg.Observer = s.chk, s.chk
	}
	s.dist = core.NewIn(s.dist, cfg)
	s.d = s.dist
	if c := s.c; c != nil {
		c.Bind(s.d.Kernel(), s.d.Manager(), s.d.Scheduler())
		c.log, c.telSpans = log, cfg.Telemetry.SpanLog()
		c.telViolations = cfg.Telemetry.Reg().Counter("invariant.violations")
	}
	return s.d
}

// Checker returns the live build's Checker.
func (s *Shell) Checker() *Checker { return s.c }

// Retire ends the live build and reports the violations its Checker
// recorded and the degradations its Manager made. finish runs the
// Checker's Finish first; a crashed build is not finalized.
func (s *Shell) Retire(finish bool) (violations, degradations int64) {
	if c := s.c; c != nil {
		if finish {
			c.Finish()
		}
		violations = int64(c.NViolations())
	}
	degradations = int64(s.d.Manager().NDegradations())
	s.d, s.c = nil, nil
	return violations, degradations
}
