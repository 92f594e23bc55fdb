package fleet

import "repro/internal/sim"

// Arena is the storage clusters are built in, one after another: the
// node shells — each node's flight recorder (span ring and event
// ring), event log and instrument registry — the coordinator's span
// log, flight recorder and registry, the event queue its actions ride,
// the admission records and the placement scratch. The rings alone are
// three quarters of what a 120-node cluster allocates to exist, so a
// caller that runs many clusters keeps one Arena and pays for them
// once. The zero value is ready to use.
//
// An Arena belongs to one goroutine and holds one live cluster:
// building the next cluster in it recycles the previous one's storage,
// so that cluster must not be used again, nor its manifests or event
// logs read — its Report stays valid, a Report holds copies. Inside a
// run the coordinator's registry is touched in the sequential phase
// only and a node's, like the rest of its shell, by the one pool
// worker advancing that node. Which arena a cluster is built in, and
// what ran there before, never affects its results
// (docs/DETERMINISM.md).
type Arena struct {
	// nodes holds every shell built here; a cluster takes the first
	// Config.Nodes of them. The other parts are read and written only
	// in the file that declares their type.
	nodes []*node
	rec   recorder       // record.go
	queue sim.EventQueue // coordinator.go
	scan  placeScratch   // placement.go
	recs  records        // ledger.go
}

// reset readies the arena for a cluster of the given node count:
// nothing of the previous cluster is left in the recorder, the shells,
// the queue or the scratch, and the shells the arena is short of are
// built.
func (a *Arena) reset(nodes int) {
	a.rec.reset()
	for _, n := range a.nodes {
		n.reset()
	}
	for len(a.nodes) < nodes {
		a.nodes = append(a.nodes, newShell())
	}
	a.queue.Reset()
	a.scan.reset()
	a.recs.reset()
}
