package task

import (
	"fmt"

	"repro/internal/ticks"
)

// UniformLevels builds a resource list in which every entry shares
// one period and the CPU requirements step down through the given
// percentages of that period, all naming the same function. This is
// exactly the shape of Table 6 ("nine entries range from requiring
// 90% to 10% of the CPU", all BusyLoop with a 10 ms period).
func UniformLevels(period ticks.Ticks, fn string, percents ...int) ResourceList {
	rl := make(ResourceList, 0, len(percents))
	for _, p := range percents {
		if p <= 0 || p > 100 {
			panic(fmt.Sprintf("task: UniformLevels percent %d out of (0,100]", p))
		}
		rl = append(rl, Entry{
			Period: period,
			CPU:    period * ticks.Ticks(p) / 100,
			Fn:     fn,
		})
	}
	return rl
}

// SingleLevel builds a one-entry resource list: a task that cannot
// shed load (e.g. the Table 4 modem at a fixed 10%).
func SingleLevel(period, cpu ticks.Ticks, fn string) ResourceList {
	return ResourceList{{Period: period, CPU: cpu, Fn: fn}}
}
