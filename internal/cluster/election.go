package cluster

import (
	"sort"
	"sync"

	"repro/internal/clock"
	"repro/internal/registry"
)

// StatusSource is the suspicion oracle an Elector or Quorum consults:
// anything that can classify a peer at an instant. *registry.Registry
// satisfies it — the federation tier elects its active aggregator
// straight off the liveness registry its peers heartbeat into
// (digest-as-heartbeat, no second detector stack).
type StatusSource interface {
	StatusOf(peer string, now clock.Time) (registry.Status, bool)
}

// Quorum aggregates several monitors' views of the same peer set — the
// "multiple monitor multiple" deployment of §VII. A peer is suspected
// globally when at least Need monitors classify it at or above
// StatusSuspected; this masks individual monitors' wrong suspicions
// caused by their own network paths.
type Quorum struct {
	Monitors []StatusSource
	Need     int
}

// Suspected reports whether the quorum suspects the peer at instant now,
// along with the per-monitor vote count.
func (q Quorum) Suspected(peer string, now clock.Time) (bool, int) {
	votes := 0
	for _, m := range q.Monitors {
		if st, ok := m.StatusOf(peer, now); ok && st >= registry.StatusSuspected {
			votes++
		}
	}
	need := q.Need
	if need <= 0 {
		need = len(q.Monitors)/2 + 1
	}
	return votes >= need, votes
}

// Elector implements Ω — eventual leader election — by the classic
// reduction from an eventually-perfect failure detector: the leader is
// the smallest-ranked candidate the local monitor does not currently
// suspect. Since SFD is eventually perfect on a stabilized network
// (◇P_ac, §IV-B of the paper), every correct process eventually elects
// the same correct leader; wrong suspicions can only cause transient
// flapping, which the elector counts for observability.
type Elector struct {
	self       string
	mon        StatusSource
	candidates []string // sorted ranking, includes self

	mu          sync.Mutex
	lastLeader  string
	changes     int
	subscribers []func(old, new string, at clock.Time)
}

// NewElector builds an elector for the given candidate set. self is this
// process's own name (never suspected locally); mon must watch every
// other candidate. Candidate ranking is lexicographic.
func NewElector(self string, mon StatusSource, candidates []string) *Elector {
	cs := append([]string(nil), candidates...)
	sort.Strings(cs)
	return &Elector{self: self, mon: mon, candidates: cs}
}

// Leader returns the current leader: the first candidate in ranking
// order that is self or not suspected at instant now. If every candidate
// is suspected it falls back to self (some leader is better than none —
// Ω only promises eventual agreement).
func (e *Elector) Leader(now clock.Time) string {
	leader := e.self
	for _, c := range e.candidates {
		if c == e.self {
			leader = c
			break
		}
		st, ok := e.mon.StatusOf(c, now)
		if ok && st != registry.StatusUnknown && st < registry.StatusSuspected {
			leader = c
			break
		}
	}
	e.mu.Lock()
	old := e.lastLeader
	if leader != old {
		e.changes++
		e.lastLeader = leader
		subs := make([]func(old, new string, at clock.Time), len(e.subscribers))
		copy(subs, e.subscribers)
		e.mu.Unlock()
		for _, fn := range subs {
			fn(old, leader, now)
		}
		return leader
	}
	e.mu.Unlock()
	return leader
}

// Changes returns how many leadership transitions have been observed —
// the flapping metric.
func (e *Elector) Changes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.changes
}

// OnChange registers a callback fired on every leadership transition
// observed by Leader.
func (e *Elector) OnChange(fn func(old, new string, at clock.Time)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subscribers = append(e.subscribers, fn)
}

// Candidates returns the ranked candidate list.
func (e *Elector) Candidates() []string {
	return append([]string(nil), e.candidates...)
}
