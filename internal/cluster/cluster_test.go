package cluster

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/registry"
)

const msK = clock.Millisecond

func chenFactory(alpha clock.Duration) registry.Factory {
	return func(string) detector.Detector {
		return detector.NewChen(50, 100*msK, alpha)
	}
}

// newMonitor returns an unstarted registry on its own simulated clock.
// With no wheel driver it classifies at query time from the detector
// alone, so a test can feed arrivals and ask about any instant.
func newMonitor(f registry.Factory) *registry.Registry {
	return registry.New(clock.NewSim(0), f, registry.Options{})
}

// startedMonitor returns the monitor SimCluster.AddMonitor builds — a
// registry started on the simulation clock, so offline and eviction
// transitions fire as the clock advances — together with that clock.
func startedMonitor(f registry.Factory, opts registry.Options) (*registry.Registry, *clock.Sim) {
	sc := NewSimCluster(netsim.LinkParams{}, 1)
	return sc.AddMonitor("q", f, opts).Mon, sc.Clk
}

func watch(t *testing.T, m *registry.Registry, peer string) {
	t.Helper()
	if err := m.Register(peer); err != nil {
		t.Fatal(err)
	}
}

// advanceTo moves a simulated clock forward to instant at (never back).
func advanceTo(clk *clock.Sim, at clock.Time) clock.Time {
	if d := at.Sub(clk.Now()); d > 0 {
		clk.Advance(d)
	}
	return clk.Now()
}

// feedMonitor delivers n regular heartbeats from peer.
func feedMonitor(m *registry.Registry, peer string, n int, iv clock.Duration) clock.Time {
	return feedFrom(m, nil, peer, 0, n, iv)
}

// feedFrom delivers heartbeats from..from+n-1 of a regular schedule;
// with a clock it first advances to each arrival, as a live monitor
// would see them.
func feedFrom(m *registry.Registry, clk *clock.Sim, peer string, from, n int, iv clock.Duration) clock.Time {
	var last clock.Time
	for i := from; i < from+n; i++ {
		send := clock.Time(i) * clock.Time(iv)
		recv := send.Add(2 * msK)
		if clk != nil {
			advanceTo(clk, recv)
		}
		m.Observe(heartbeat.Arrival{From: peer, Seq: uint64(i), Send: send, Recv: recv})
		last = recv
	}
	return last
}

func TestMonitorLifecycle(t *testing.T) {
	m := newMonitor(chenFactory(50 * msK))
	watch(t, m, "p1")
	watch(t, m, "p1") // idempotent
	watch(t, m, "p2")
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if st, ok := m.StatusOf("p1", 0); !ok || st != registry.StatusUnknown {
		t.Fatalf("fresh peer status = %v,%v", st, ok)
	}
	if _, ok := m.StatusOf("ghost", 0); ok {
		t.Fatal("unknown peer reported ok")
	}
	if !m.Deregister("p2") || m.Len() != 1 {
		t.Fatal("Deregister failed")
	}
}

func TestMonitorActiveWhileHeartbeating(t *testing.T) {
	m, clk := startedMonitor(chenFactory(100*msK), registry.Options{})
	last := feedFrom(m, clk, "srv", 0, 60, 100*msK)
	st, ok := m.StatusOf("srv", advanceTo(clk, last.Add(10*msK)))
	if !ok || st != registry.StatusActive {
		t.Fatalf("status = %v, want active", st)
	}
}

func TestMonitorSuspectsAfterSilence(t *testing.T) {
	m, clk := startedMonitor(chenFactory(100*msK), registry.Options{OfflineAfter: 5 * clock.Second})
	last := feedFrom(m, clk, "srv", 0, 60, 100*msK)
	// Soon after the freshness point the server is suspected...
	st, _ := m.StatusOf("srv", advanceTo(clk, last.Add(400*msK)))
	if st != registry.StatusSuspected {
		t.Fatalf("status after silence = %v, want suspected", st)
	}
	// ...and after the offline grace period it is declared offline.
	st, _ = m.StatusOf("srv", advanceTo(clk, last.Add(6*clock.Second)))
	if st != registry.StatusOffline {
		t.Fatalf("status after grace = %v, want offline", st)
	}
}

func TestMonitorEvictOffline(t *testing.T) {
	m, clk := startedMonitor(chenFactory(100*msK), registry.Options{
		OfflineAfter: 5 * clock.Second,
		EvictAfter:   3 * clock.Second,
	})
	// "dead" and "alive" beat together, then "dead" goes silent while
	// "alive" keeps beating through the silence.
	for i := 0; i < 60; i++ {
		feedFrom(m, clk, "dead", i, 1, 100*msK)
		feedFrom(m, clk, "alive", i, 1, 100*msK)
	}
	// Offline (from ≈ +5.2 s) but within the eviction grace: kept.
	feedFrom(m, clk, "alive", 60, 60, 100*msK) // through dead's last beat + 6 s
	if st, _ := m.StatusOf("dead", clk.Now()); st != registry.StatusOffline || m.Len() != 2 {
		t.Fatalf("dead = %v with %d streams; want offline and kept", st, m.Len())
	}

	// Past OfflineAfter+grace: only the offline peer goes.
	feedFrom(m, clk, "alive", 120, 30, 100*msK) // through + 9 s
	if _, ok := m.StatusOf("dead", clk.Now()); ok {
		t.Fatal("offline peer not evicted")
	}
	if st, ok := m.StatusOf("alive", clk.Now()); !ok || st != registry.StatusActive || m.Len() != 1 {
		t.Fatalf("alive = %v,%v with %d streams; want active and alone", st, ok, m.Len())
	}
}

func TestMonitorRecoversFromWrongSuspicion(t *testing.T) {
	m, clk := startedMonitor(chenFactory(50*msK), registry.Options{})
	last := feedFrom(m, clk, "srv", 0, 60, 100*msK)
	if st, _ := m.StatusOf("srv", advanceTo(clk, last.Add(500*msK))); st != registry.StatusSuspected {
		t.Fatal("not suspected during gap")
	}
	// Heartbeats resume (shifted 500 ms by the outage): once the sliding
	// window refills with the new schedule, trust must be restored —
	// Chen's estimator tracks the shift only as old samples age out.
	var lastRecv clock.Time
	for k := 0; k < 60; k++ {
		seq := uint64(60 + k)
		send := last.Add(498*msK + clock.Duration(k)*100*msK)
		lastRecv = advanceTo(clk, last.Add(500*msK+clock.Duration(k)*100*msK))
		m.Observe(heartbeat.Arrival{From: "srv", Seq: seq, Send: send, Recv: lastRecv})
	}
	if st, _ := m.StatusOf("srv", advanceTo(clk, lastRecv.Add(10*msK))); st != registry.StatusActive {
		t.Fatalf("status after recovery = %v, want active", st)
	}
}

func TestMonitorMaxSilenceSafetyNet(t *testing.T) {
	// A process that crashes right after its very first heartbeat never
	// gives an interval-estimating detector enough history to form a
	// freshness point; the MaxSilence net must still flag it.
	estFactory := func(string) detector.Detector {
		return detector.NewChen(50, 0, 50*msK) // interval estimated: needs ≥2 arrivals
	}
	m, clk := startedMonitor(estFactory, registry.Options{MaxSilence: clock.Second})
	m.Observe(heartbeat.Arrival{From: "flash", Seq: 0, Send: 0, Recv: advanceTo(clk, clock.Time(msK))})
	if st, _ := m.StatusOf("flash", advanceTo(clk, clock.Time(500*msK))); st != registry.StatusActive {
		t.Fatalf("status before MaxSilence = %v, want active", st)
	}
	if st, _ := m.StatusOf("flash", advanceTo(clk, clock.Time(2*clock.Second))); st < registry.StatusSuspected {
		t.Fatalf("status after MaxSilence = %v, want suspected", st)
	}
	// Without the net, the same peer stays active indefinitely.
	m2, clk2 := startedMonitor(estFactory, registry.Options{MaxSilence: -1})
	m2.Observe(heartbeat.Arrival{From: "flash", Seq: 0, Send: 0, Recv: advanceTo(clk2, clock.Time(msK))})
	if st, _ := m2.StatusOf("flash", advanceTo(clk2, clock.Time(600*clock.Second))); st != registry.StatusActive {
		t.Fatalf("disabled net changed semantics: %v", st)
	}
}

func TestMonitorAutoRegistersNewPeer(t *testing.T) {
	m := newMonitor(chenFactory(50 * msK))
	m.Observe(heartbeat.Arrival{From: "newcomer", Seq: 0, Send: 0, Recv: clock.Time(msK)})
	if _, ok := m.StatusOf("newcomer", clock.Time(msK)); !ok || m.Len() != 1 {
		t.Fatal("auto-registration failed")
	}
}

func TestMonitorStaleArrivalIgnored(t *testing.T) {
	m := newMonitor(chenFactory(50 * msK))
	feedMonitor(m, "srv", 10, 100*msK)
	snapBefore := m.Snapshot(clock.Time(clock.Second))
	m.Observe(heartbeat.Arrival{From: "srv", Seq: 3, Send: 0, Recv: clock.Time(2 * clock.Second)})
	snapAfter := m.Snapshot(clock.Time(clock.Second))
	if snapBefore[0].LastSeq != snapAfter[0].LastSeq {
		t.Fatal("stale arrival mutated state")
	}
}

func TestQuorumMasksSingleMonitorMistake(t *testing.T) {
	m1, m2, m3 := newMonitor(chenFactory(50*msK)), newMonitor(chenFactory(50*msK)), newMonitor(chenFactory(50*msK))
	// All three watch srv; m1 misses the last heartbeats (its own path
	// lost them), so it alone suspects.
	last := feedMonitor(m2, "srv", 60, 100*msK)
	feedMonitor(m3, "srv", 60, 100*msK)
	feedMonitor(m1, "srv", 55, 100*msK)
	q := Quorum{Monitors: []StatusSource{m1, m2, m3}}
	now := last.Add(50 * msK)
	sus, votes := q.Suspected("srv", now)
	if sus {
		t.Fatalf("quorum suspected with %d vote(s)", votes)
	}
	if votes != 1 {
		t.Fatalf("votes = %d, want 1 (only the lossy monitor)", votes)
	}
	// Explicit Need=1 turns it into an any-of alarm.
	q.Need = 1
	if sus, _ := q.Suspected("srv", now); !sus {
		t.Fatal("Need=1 quorum did not suspect")
	}
}

func TestSimClusterCrashDetection(t *testing.T) {
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 5 * msK, JitterMean: msK, JitterStd: msK}, 1)
	mon := sc.AddMonitor("q", chenFactory(100*msK), registry.Options{})
	srv := sc.AddSender("p", 100*msK, 2*msK, "q")
	watch(t, mon.Mon, "p")

	sc.RunFor(20*clock.Second, 10*msK)
	if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st != registry.StatusActive {
		t.Fatalf("server not active while alive: %v", st)
	}
	srv.Crash()
	_, crashAt := srv.Crashed()
	mon.Mon.MarkFailure("p", crashAt)
	lat, ok := sc.DetectCrash("q", "p", 10*clock.Second)
	if !ok {
		t.Fatal("crash never detected")
	}
	// Detection should land near Δt + margin (+ link delay): well under 1s.
	if lat > clock.Second {
		t.Fatalf("detection latency %v too large", lat)
	}
	// The registry's ground-truth tap pairs the crash with the wheel's
	// suspect transition, which fires within one tick of the query.
	sc.RunFor(20*msK, 10*msK)
	if dl := mon.Mon.DetectionLatency(); dl.Samples != 1 || dl.P50 <= 0 || dl.P50 > clock.Second.Seconds() {
		t.Fatalf("ground-truth latency = %+v", dl)
	}
}

func TestSimClusterOneMonitorsMultiple(t *testing.T) {
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK}, 2)
	mon := sc.AddMonitor("q", chenFactory(150*msK), registry.Options{})
	const n = 10
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		sc.AddSender(name, 100*msK, 2*msK, "q")
		watch(t, mon.Mon, name)
	}
	sc.RunFor(15*clock.Second, 10*msK)
	snap := mon.Mon.Snapshot(sc.Clk.Now())
	if len(snap) != n {
		t.Fatalf("snapshot has %d peers, want %d", len(snap), n)
	}
	for _, r := range snap {
		if r.Status != registry.StatusActive {
			t.Fatalf("%s: status %v, want active", r.Peer, r.Status)
		}
	}
	// Crash three of them; all three must be detected, others unaffected.
	for i := 0; i < 3; i++ {
		sc.Sender(fmt.Sprintf("p%d", i)).Crash()
	}
	sc.RunFor(2*clock.Second, 10*msK)
	now := sc.Clk.Now()
	for i := 0; i < n; i++ {
		st, _ := mon.Mon.StatusOf(fmt.Sprintf("p%d", i), now)
		if i < 3 && st < registry.StatusSuspected {
			t.Fatalf("crashed p%d not suspected: %v", i, st)
		}
		if i >= 3 && st != registry.StatusActive {
			t.Fatalf("alive p%d wrongly %v", i, st)
		}
	}
}

func TestSimClusterBusyServer(t *testing.T) {
	factory := func(string) detector.Detector {
		return core.New(core.Config{WindowSize: 30, Interval: 100 * msK, InitialMargin: 300 * msK})
	}
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK}, 3)
	mon := sc.AddMonitor("q", factory, registry.Options{BusyLevel: 0.3, SuspectLevel: 1.0})
	srv := sc.AddSender("p", 100*msK, msK, "q")
	watch(t, mon.Mon, "p")
	sc.RunFor(10*clock.Second, 10*msK)

	// Make the server sluggish: +150 ms per beat stretches arrivals into
	// the busy band without crossing the 300 ms margin.
	srv.SetBusy(150 * msK)
	sawBusy := false
	for i := 0; i < 400; i++ {
		sc.RunFor(50*msK, 10*msK)
		if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st == registry.StatusBusy {
			sawBusy = true
			break
		}
	}
	if !sawBusy {
		t.Fatal("sluggish server never classified busy")
	}
}

func TestConsortiumScenario(t *testing.T) {
	con := BuildConsortium(ConsortiumConfig{
		ServersPerCloud: 2,
		Interval:        100 * msK,
		Jitter:          2 * msK,
		Factory:         chenFactory(250 * msK),
		Seed:            7,
	})
	if len(con.Clouds) != 5 {
		t.Fatalf("clouds = %d, want 5", len(con.Clouds))
	}
	con.RunFor(20*clock.Second, 10*msK)

	// Every manager sees its own servers active.
	now := con.Clk.Now()
	for name, cl := range con.Clouds {
		for _, srv := range cl.Servers {
			st, ok := cl.Manager.Mon.StatusOf(srv.name, now)
			if !ok || st != registry.StatusActive {
				t.Fatalf("%s: server %s status %v", name, srv.name, st)
			}
		}
	}
	// Every manager sees every other cloud's beacon active.
	for name, cl := range con.Clouds {
		for other := range con.Clouds {
			if other == name {
				continue
			}
			st, ok := cl.Manager.Mon.StatusOf(other+"/beacon", now)
			if !ok || st != registry.StatusActive {
				t.Fatalf("%s: beacon of %s status %v (ok=%v)", name, other, st, ok)
			}
		}
	}

	// Crash GA's beacon: the cross-cloud quorum must agree.
	con.Sender("GA/beacon").Crash()
	con.RunFor(3*clock.Second, 10*msK)
	q := con.CrossCloudQuorum("GA")
	sus, votes := q.Suspected("GA/beacon", con.Clk.Now())
	if !sus {
		t.Fatalf("consortium did not reach quorum on crashed beacon (votes=%d)", votes)
	}
}

func TestDetectCrashEdgeCases(t *testing.T) {
	sc := NewSimCluster(netsim.LinkParams{DelayBase: msK}, 4)
	sc.AddMonitor("q", chenFactory(100*msK), registry.Options{})
	sc.AddSender("p", 100*msK, 0, "q")
	// Unknown names.
	if _, ok := sc.DetectCrash("ghost", "p", clock.Second); ok {
		t.Fatal("unknown monitor accepted")
	}
	if _, ok := sc.DetectCrash("q", "ghost", clock.Second); ok {
		t.Fatal("unknown peer accepted")
	}
	// Peer not crashed.
	if _, ok := sc.DetectCrash("q", "p", clock.Second); ok {
		t.Fatal("DetectCrash on live peer succeeded")
	}
}
