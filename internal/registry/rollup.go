package registry

import (
	"repro/internal/clock"
)

// StreamPhase is the exported view of a stream's lifecycle position —
// the coarse event-driven machine the timer wheel advances, without the
// query-time busy/active refinement Status adds.
type StreamPhase uint8

const (
	StreamTrusted StreamPhase = iota
	StreamSuspected
	StreamOffline
)

// StreamView is one row of a registry sweep: the fields a federation
// leaf needs to roll a stream up into its cohort digest. QoS fields are
// populated only when the stream's detector self-tunes and has adjusted
// at least one slot (Tuned reports that).
type StreamView struct {
	Peer        string
	Phase       StreamPhase
	Seen        bool
	Incarnation uint64
	Tuned       bool
	TD          clock.Duration // last adjusted slot's measured detection time
	MR          float64        // last adjusted slot's mistake rate
	QAP         float64        // last adjusted slot's query-accuracy probability
}

// ForEachStream sweeps every registered stream under its shard lock and
// calls fn with a roll-up view — the bulk read hatch federation leaves
// use to build per-cohort digests without N snapshot allocations. fn
// runs with a shard lock held: it must be fast, must not retain the
// view's strings beyond the call, and must not call back into the
// registry. Iteration order is unspecified (shard, then map order).
func (r *Registry) ForEachStream(fn func(StreamView)) {
	var v StreamView
	for _, sh := range r.shards {
		sh.mu.Lock()
		for peer, st := range sh.streams {
			v = StreamView{
				Peer:        peer,
				Phase:       StreamPhase(st.phase),
				Seen:        st.seen,
				Incarnation: st.inc,
			}
			if td, ok := st.det.(tuned); ok {
				if adj, ok := td.LastAdjustment(); ok {
					v.Tuned = true
					v.TD = adj.Measured.TD
					v.MR = adj.Measured.MR
					v.QAP = adj.Measured.QAP
				}
			}
			fn(v)
		}
		sh.mu.Unlock()
	}
}
