// cold.go carries no hotpath marker: the same constructs that hafix.go
// gets flagged for are fine here — hotalloc is a per-file opt-in, not
// a package-wide rule.
package hafix

import (
	"fmt"

	"repro/internal/ticks"
)

func coldLabel(id int32) string {
	return fmt.Sprintf("cold%d", id)
}

func coldName(name string) string { return "cold:" + name }

func (t *ticker) coldArm(at ticks.Ticks) {
	t.k.At(at, func() { t.id++ })
}
