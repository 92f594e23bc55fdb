package main

import (
	"container/heap"
	"fmt"
	"time"
)

// The reference box is a shared 2-core VM whose speed drifts by a third
// over minutes: ten-second blocks of the same paper-short rounds ranged
// 100–133 ms a round in one five-minute stretch, which no averaging
// inside a ten-second run removes. A plain arithmetic loop does not see
// the drift (it moved 3 % over the same stretch), so the drift is in
// the memory system and the second core, where the simulator's
// allocation and the GC live. The calibration burst is therefore a
// frozen miniature of the simulator's habits — a heap-ordered queue of
// allocated closures, a map lookup and a small record per event, now
// and then a formatted string — that shares no code with internal/*.
//
// Every timed section is followed by a few bursts, and times are
// reported at the reference speed: measured time × speed, where speed
// is calNominal ÷ the median burst time, averaged over the bursts
// before and after the section. Over that stretch simulator time ÷
// burst time had an interquartile spread of 2.8 % and a range of 6.5 %
// where the raw time had 12 % and 28 %; on a steadier stretch 2–3 % and
// 8–9 % where the raw time had 3.4 % and 16 %. Bursts shorter than
// about 2.5 ms tracked the simulator worse than no scaling at all.
//
// A change to the simulator cannot move the burst, so it cannot hide
// behind the scaling; the speed and the unscaled throughput are printed
// beside every result.
const (
	calEvents  = 12000
	calNominal = 2700 * time.Microsecond // one burst on the reference box when it is fast: 225 ns an event
	// calEvery is how much timed work one burst stands for; bursts take
	// about 4 % of a pass. A section gets at least calMin, so that the
	// median sheds a burst that a stall landed on.
	calEvery = 80 * time.Millisecond
	calMin   = 3
)

// speedAfter runs the bursts that follow a timed section of length d
// and returns how fast the machine is running as a share of the
// reference speed (below 1: slower). Measured times are multiplied by
// it.
func speedAfter(d time.Duration) float64 {
	n := int(d / calEvery)
	if n < calMin {
		n = calMin
	}
	bursts := make([]float64, n)
	for i := range bursts {
		bursts[i] = calBurst().Seconds()
	}
	return calNominal.Seconds() / median(bursts)
}

type calEvent struct {
	at, seq int64
	fn      func()
}

type calQueue []*calEvent

func (q calQueue) Len() int { return len(q) }
func (q calQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q calQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)   { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

type calTask struct {
	id     int
	period int64
	used   int64
	name   string
}

type calRecord struct {
	id       int
	from, to int64
	name     string
}

// calBurst runs calEvents events of the miniature and returns how long
// they took. It is frozen: changing it changes every time this
// benchmark has ever reported.
func calBurst() time.Duration {
	start := time.Now()
	var (
		q        calQueue
		seq, now int64
		log      []calRecord
		tasks    = map[int]*calTask{}
		schedule func(id int)
	)
	schedule = func(id int) {
		t := tasks[id]
		seq++
		heap.Push(&q, &calEvent{at: now + t.period, seq: seq, fn: func() {
			t.used += t.period / 3
			log = append(log, calRecord{id: t.id, from: now, to: now + t.period/3, name: t.name})
			if t.used%7 == 0 {
				t.name = fmt.Sprintf("t%d-%d", t.id, t.used%100)
			}
			schedule(id)
		}})
	}
	for i := 0; i < 12; i++ {
		tasks[i] = &calTask{id: i, period: int64(5 + 3*i), name: fmt.Sprintf("t%d", i)}
		schedule(i)
	}
	for n := 0; n < calEvents; n++ {
		e := heap.Pop(&q).(*calEvent)
		now = e.at
		e.fn()
		if len(log) >= 4096 {
			log = nil
		}
	}
	sink += int64(len(log))
	return time.Since(start)
}
