package registry

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/detector"
)

// phase is a stream's position in the event-driven status machine. It is
// coarser than Status: busy/active are query-time refinements of
// phaseTrusted, while suspect/offline transitions are driven by the
// timer wheel and published on the bus.
type phase uint8

const (
	phaseTrusted phase = iota
	phaseSuspected
	phaseOffline
)

// StreamStats is the per-stream QoS tracker: raw ingest counts plus the
// mistake bookkeeping (wrong suspicions corrected by a later heartbeat,
// and the time spent wrongly suspecting — the T_M of Chen's metrics).
type StreamStats struct {
	Heartbeats  uint64
	Stale       uint64
	Mistakes    uint64
	MistakeTime clock.Duration
}

// stream is one monitored heartbeat source. All fields are guarded by
// the owning shard's mutex.
type stream struct {
	peer string
	det  detector.Detector

	lastSeq     uint64
	lastArrival clock.Time
	seen        bool
	// inc is the peer's current incarnation. Sequence numbers restart
	// within each incarnation; a bump replaces the detector, since the
	// new life's arrival process shares no history with the old one.
	inc uint64

	phase        phase
	suspectSince clock.Time
	infeasible   bool // EventCannotSatisfy already published this episode

	// deadline is the authoritative next-check instant (freshness point,
	// silence safety net, offline deadline, or eviction deadline). The
	// wheel may lag behind it; a fired entry re-arms at the current value.
	deadline clock.Time
	// gen invalidates stale wheel entries. Generations are drawn from a
	// single registry-wide counter, never per stream: if they restarted
	// at zero for each stream object, a register→deregister→register on
	// the same address could leave an old stream's pending wheel entry
	// aliasing the new stream's generation and firing a stale
	// transition against it. entryAt is the fire instant of the newest
	// entry scheduled for this stream (0 = none live).
	gen     uint64
	entryAt clock.Time

	stats StreamStats
}

// shard is one lock stripe of the registry: a mutex plus the streams
// whose FNV-hashed peer address maps here. Register, deregister, and
// ingest are O(1) under a single stripe lock.
type shard struct {
	mu      sync.Mutex
	streams map[string]*stream
}

func newShard() *shard {
	return &shard{streams: make(map[string]*stream)}
}

func (s *shard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// fnv32a hashes a peer address (FNV-1a, inlined to keep the ingest path
// allocation-free).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
