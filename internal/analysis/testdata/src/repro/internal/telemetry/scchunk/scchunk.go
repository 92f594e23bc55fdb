// scchunk holds sharedcapture cases in the telemetry package's shape:
// chunk workers encoding a list into a ring of buffers. A worker may
// fill only its own slot; appending to a shared output, counting into
// a captured total or moving a captured cursor is flagged.
package scchunk

import (
	"strconv"
	"sync"
)

func encode(items []int, workers int) []byte {
	slots := make([][]byte, workers)
	var out []byte
	written := 0
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(items); i += workers {
				slots[k] = strconv.AppendInt(slots[k], int64(items[i]), 10) // its own slot: allowed
				out = strconv.AppendInt(out, int64(items[i]), 10)           // want "assigns to captured variable out"
				written++                                                   // want "mutates captured variable written"
			}
		}()
	}
	wg.Wait()
	for _, s := range slots {
		out = append(out, s...)
	}
	return out
}
