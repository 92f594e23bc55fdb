package telemetry

import "fmt"

// StitchCluster merges a fleet coordinator manifest and its per-node
// manifests (in node-index order) into one rdtel/v2 cluster manifest:
//
//   - Spans are concatenated coordinator-first, then node 0..N-1, with
//     IDs rebased into one global sequence and every span stamped with
//     its origin tag (CoordTag / NodeTag(i)).
//   - Parent references rebase within their own log.
//   - Cross-log causal links — (LinkNode, Link) pairs recorded at
//     placement, spillover, migration, and crash re-admission — are
//     resolved to global span IDs with LinkNode cleared, so a
//     guarantee's lifecycle reads as one linked chain across nodes.
//     A link whose target was evicted from a ring-mode log is dropped,
//     deterministically, rather than left dangling.
//   - Metrics snapshots merge coordinator-first then node order
//     (name-sorted linear merges, worker-count invariant).
//   - Events, tasks, and flight dumps concatenate in the same fixed
//     order, tasks tagged with their node.
//
// The merge is a pure function of its inputs, so stitching the files
// rdsweep wrote is byte-identical to the manifest the live cluster
// produced.
func StitchCluster(coord *Manifest, nodes []*Manifest) (*Manifest, error) {
	return stitch(coord, nodes, nil)
}

// StitchLogs is StitchCluster reading each part's spans from its span
// log in place — logs[0] the coordinator's, logs[1+i] node i's — not
// from the part, so the stitched list is their only copy. A wrapped
// ring's references below its window drop as Export would drop them.
func StitchLogs(coord *Manifest, nodes []*Manifest, logs []*Spans) (*Manifest, error) {
	if len(logs) != 1+len(nodes) {
		return nil, fmt.Errorf("telemetry: stitch: %d span logs for %d nodes and a coordinator", len(logs), len(nodes))
	}
	return stitch(coord, nodes, logs)
}

// stitch is StitchCluster, with the spans from logs unless logs is nil.
func stitch(coord *Manifest, nodes []*Manifest, logs []*Spans) (*Manifest, error) {
	if coord == nil {
		return nil, fmt.Errorf("telemetry: stitch: nil coordinator manifest")
	}
	if coord.Node != 0 && coord.Node != CoordTag {
		return nil, fmt.Errorf("telemetry: stitch: coordinator manifest tagged %d, want %d", coord.Node, CoordTag)
	}
	for i, nm := range nodes {
		if nm == nil {
			return nil, fmt.Errorf("telemetry: stitch: nil manifest for node %d", i)
		}
		if nm.Node != 0 && nm.Node != NodeTag(i) {
			return nil, fmt.Errorf("telemetry: stitch: manifest at position %d tagged %d, want %d", i, nm.Node, NodeTag(i))
		}
	}

	out := NewManifest(coord.Seed)
	out.Build = coord.Build
	out.ConfigDigest = coord.ConfigDigest
	out.HorizonTicks = coord.HorizonTicks
	out.NodeCount = len(nodes)

	// Log 0 is the coordinator, log 1+i node i. Each log's spans are
	// appended as they stand, and its window read off the appended tail:
	// [lo, hi] its resident IDs, from base (the global IDs earlier logs
	// took) to end in out.Spans.
	parts := append([]*Manifest{coord}, nodes...)
	type window struct {
		lo, hi    SpanID
		base, end int
		tag       int32
	}
	wins := make([]window, len(parts))
	total := 0
	for k, lm := range parts {
		if logs != nil {
			total += logs[k].N()
		} else {
			total += len(lm.Spans)
		}
	}
	out.Spans = make([]Span, 0, total)
	for k, lm := range parts {
		w := window{base: len(out.Spans), tag: NodeTag(k - 1)}
		if k == 0 {
			w.tag = CoordTag
		}
		if logs != nil {
			out.Spans = logs[k].appendFrom(out.Spans, logs[k].firstID())
		} else {
			out.Spans = append(out.Spans, lm.Spans...)
		}
		if w.end = len(out.Spans); w.end > w.base {
			w.lo, w.hi = out.Spans[w.base].ID, out.Spans[w.end-1].ID
		}
		wins[k] = w
	}

	// logOf maps a link tag to its log index, ok=false for tags
	// outside this cluster.
	logOf := func(tag int32) (int, bool) {
		if tag == CoordTag {
			return 0, true
		}
		if idx, ok := TagIndex(tag); ok && idx < len(nodes) {
			return 1 + idx, true
		}
		return 0, false
	}

	// rebase returns the global ID of log k's span id, or 0 if id is
	// outside the log's window (an evicted Parent or Link target).
	rebase := func(k int, id SpanID) SpanID {
		w := wins[k]
		if w.hi == 0 || id < w.lo || id > w.hi {
			return 0
		}
		// Resident spans carry contiguous IDs, so the offset within
		// the window is the offset within the global block.
		return SpanID(w.base + int(id-w.lo) + 1)
	}

	// Then each tail is rebased in place.
	for k, w := range wins {
		for i := w.base; i < w.end; i++ {
			sp := &out.Spans[i]
			gid := rebase(k, sp.ID)
			if gid == 0 {
				return nil, fmt.Errorf("telemetry: stitch: %s span id %d outside its own window", TagString(w.tag), sp.ID)
			}
			sp.ID, sp.Node = gid, w.tag
			if sp.Parent != 0 {
				sp.Parent = rebase(k, sp.Parent)
			}
			if sp.Link != 0 {
				src := k
				if sp.LinkNode != 0 {
					var ok bool
					if src, ok = logOf(sp.LinkNode); !ok {
						return nil, fmt.Errorf("telemetry: stitch: %s span %d links to unknown tag %d", TagString(w.tag), sp.ID, sp.LinkNode)
					}
				}
				sp.Link, sp.LinkNode = rebase(src, sp.Link), 0
			}
		}
	}

	for k, lm := range parts {
		out.Metrics.Merge(lm.Metrics)
		out.Events = append(out.Events, lm.Events...)
		for _, ti := range lm.Tasks {
			if ti.Node == 0 {
				ti.Node = wins[k].tag
			}
			out.Tasks = append(out.Tasks, ti)
		}
		out.FlightDumps = append(out.FlightDumps, lm.FlightDumps...)
	}
	out.DeriveTotals()
	return out, nil
}
