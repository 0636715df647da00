package cluster

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/registry"
)

func TestElectorPicksLowestAliveCandidate(t *testing.T) {
	m := newMonitor(chenFactory(100 * msK))
	last := feedMonitor(m, "a", 60, 100*msK)
	feedMonitor(m, "b", 75, 100*msK) // b keeps heartbeating past a's silence
	e := NewElector("c", m, []string{"c", "a", "b"})
	if got := e.Candidates(); got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("ranking = %v", got)
	}
	now := last.Add(10 * msK)
	if l := e.Leader(now); l != "a" {
		t.Fatalf("leader = %q, want a", l)
	}
	// "a" goes silent: leadership falls to "b".
	if l := e.Leader(last.Add(clock.Second)); l != "b" {
		t.Fatalf("leader after a's silence = %q, want b", l)
	}
	if e.Changes() != 2 { // "" → a, a → b
		t.Fatalf("changes = %d, want 2", e.Changes())
	}
}

func TestElectorFallsBackToSelf(t *testing.T) {
	m := newMonitor(chenFactory(100 * msK))
	last := feedMonitor(m, "a", 60, 100*msK)
	e := NewElector("z", m, []string{"a", "z"})
	if l := e.Leader(last.Add(10 * clock.Second)); l != "z" {
		t.Fatalf("no fallback to self: %q", l)
	}
}

func TestElectorSelfIsNeverSuspected(t *testing.T) {
	m := newMonitor(chenFactory(100 * msK))
	e := NewElector("a", m, []string{"a", "b"})
	// No heartbeats at all: "a" leads because it is self.
	if l := e.Leader(clock.Time(clock.Second)); l != "a" {
		t.Fatalf("leader = %q, want self", l)
	}
}

func TestElectorUnknownPeersSkipped(t *testing.T) {
	m := newMonitor(chenFactory(100 * msK))
	_ = m.Register("a") // watched but never heard from
	last := feedMonitor(m, "b", 60, 100*msK)
	e := NewElector("c", m, []string{"a", "b", "c"})
	if l := e.Leader(last.Add(10 * msK)); l != "b" {
		t.Fatalf("leader = %q, want b (a never seen)", l)
	}
}

func TestElectorOnChangeCallback(t *testing.T) {
	m := newMonitor(chenFactory(100 * msK))
	last := feedMonitor(m, "a", 60, 100*msK)
	e := NewElector("b", m, []string{"a", "b"})
	var transitions []string
	e.OnChange(func(old, new string, at clock.Time) {
		transitions = append(transitions, old+"→"+new)
	})
	e.Leader(last.Add(10 * msK))     // → a
	e.Leader(last.Add(clock.Second)) // a suspected → b
	if len(transitions) != 2 || transitions[1] != "a→b" {
		t.Fatalf("transitions = %v", transitions)
	}
}

func TestElectionConvergesAcrossSimCluster(t *testing.T) {
	// Every node heartbeats to every other; each runs its own monitor and
	// elector. After warm-up all agree on p0; after p0 crashes all
	// converge to p1 — Ω in action.
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK, JitterMean: msK, JitterStd: msK}, 11)
	const n = 4
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	monitors := make([]*SimMonitor, n)
	electors := make([]*Elector, n)
	for i, name := range names {
		monitors[i] = sc.AddMonitor(name+"/mon", chenFactory(200*msK), registry.Options{})
	}
	for i, name := range names {
		var targets []string
		for j := range names {
			if j != i {
				targets = append(targets, names[j]+"/mon")
			}
		}
		sc.AddSender(name, 100*msK, 2*msK, targets...)
		for j := range names {
			if j != i {
				_ = monitors[j].Mon.Register(name)
			}
		}
	}
	for i, name := range names {
		electors[i] = NewElector(name, monitors[i].Mon, names)
	}

	sc.RunFor(15*clock.Second, 10*msK)
	now := sc.Clk.Now()
	for i, e := range electors {
		if l := e.Leader(now); l != "p0" {
			t.Fatalf("elector %d picked %q before crash, want p0", i, l)
		}
	}

	sc.Sender("p0").Crash()
	sc.RunFor(3*clock.Second, 10*msK)
	now = sc.Clk.Now()
	for i, e := range electors {
		l := e.Leader(now)
		want := "p1"
		if i == 0 {
			continue // the crashed node's own elector is moot
		}
		if l != want {
			t.Fatalf("elector %d picked %q after crash, want %q", i, l, want)
		}
	}
}

// TestElectorOnChangePromotionDemotion drives the promotion/demotion
// arc the federation HA tier hangs off OnChange: a node promotes when
// the transition's new leader is itself, demotes when the old one was.
// The arc here is the failover-and-failback cycle: self leads while the
// lower-ranked peer is unknown, demotes when that peer appears, promotes
// when it goes silent, and demotes again when it recovers.
func TestElectorOnChangePromotionDemotion(t *testing.T) {
	m := newMonitor(chenFactory(100 * msK))
	e := NewElector("b", m, []string{"a", "b"})
	var promotions, demotions int
	e.OnChange(func(old, new string, at clock.Time) {
		if new == "b" {
			promotions++
		}
		if old == "b" {
			demotions++
		}
	})

	// "a" has never been heard from: "b" leads (first promotion).
	if l := e.Leader(clock.Time(100 * msK)); l != "b" {
		t.Fatalf("leader = %q, want b", l)
	}
	if promotions != 1 || demotions != 0 {
		t.Fatalf("after cold start: promotions=%d demotions=%d, want 1/0", promotions, demotions)
	}

	// "a" (lower rank) starts heartbeating: "b" demotes.
	last := feedMonitor(m, "a", 60, 100*msK)
	if l := e.Leader(last.Add(10 * msK)); l != "a" {
		t.Fatalf("leader = %q, want a", l)
	}
	if promotions != 1 || demotions != 1 {
		t.Fatalf("after a appears: promotions=%d demotions=%d, want 1/1", promotions, demotions)
	}

	// "a" goes silent: "b" promotes again.
	silentAt := last.Add(clock.Second)
	if l := e.Leader(silentAt); l != "b" {
		t.Fatalf("leader = %q, want b after a's silence", l)
	}
	if promotions != 2 || demotions != 1 {
		t.Fatalf("after a's silence: promotions=%d demotions=%d, want 2/1", promotions, demotions)
	}

	// "a" recovers (resumed heartbeats at the old cadence): "b" demotes —
	// the deterministic failback the HA aggregator pair relies on.
	resume := silentAt.Add(clock.Second)
	var lastResumed clock.Time
	for i := 0; i < 60; i++ {
		send := resume.Add(clock.Duration(i) * 100 * msK)
		lastResumed = send.Add(2 * msK)
		m.Observe(heartbeat.Arrival{From: "a", Seq: uint64(100 + i), Send: send, Recv: lastResumed})
	}
	if l := e.Leader(lastResumed.Add(10 * msK)); l != "a" {
		t.Fatalf("leader = %q, want a after recovery", l)
	}
	if promotions != 2 || demotions != 2 {
		t.Fatalf("after a recovers: promotions=%d demotions=%d, want 2/2", promotions, demotions)
	}
	if e.Changes() != 4 {
		t.Fatalf("changes = %d, want 4", e.Changes())
	}
}

// TestElectorOnChangeStability pins down two contract details promotion
// hooks depend on: a steady leader fires no callbacks no matter how
// often Leader is polled, and every registered subscriber sees every
// transition exactly once.
func TestElectorOnChangeStability(t *testing.T) {
	m := newMonitor(chenFactory(100 * msK))
	last := feedMonitor(m, "a", 60, 100*msK)
	e := NewElector("b", m, []string{"a", "b"})
	var first, second int
	e.OnChange(func(old, new string, at clock.Time) { first++ })
	e.OnChange(func(old, new string, at clock.Time) { second++ })

	now := last.Add(10 * msK)
	for i := 0; i < 10; i++ {
		if l := e.Leader(now); l != "a" {
			t.Fatalf("leader = %q, want a", l)
		}
	}
	if first != 1 || second != 1 {
		t.Fatalf("steady leader fired callbacks %d/%d times, want 1/1", first, second)
	}
	e.Leader(last.Add(clock.Second)) // a silent → b
	if first != 2 || second != 2 {
		t.Fatalf("transition fired callbacks %d/%d times, want 2/2", first, second)
	}
}
