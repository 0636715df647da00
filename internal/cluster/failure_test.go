package cluster

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/registry"
)

// Failure-injection scenarios across the monitoring stack: partitions,
// partition flapping, long outages with recovery, clock discontinuities,
// and inbox saturation. These are the "dynamic and unexpected" cloud
// conditions the paper's introduction motivates.

func TestPartitionCausesSuspicionHealRestores(t *testing.T) {
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK}, 21)
	mon := sc.AddMonitor("q", chenFactory(150*msK), registry.Options{})
	sc.AddSender("p", 100*msK, msK, "q")
	watch(t, mon.Mon, "p")
	sc.RunFor(10*clock.Second, 10*msK)
	if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st != registry.StatusActive {
		t.Fatalf("pre-partition status %v", st)
	}

	sc.Net.Partition("p", "q")
	sc.RunFor(2*clock.Second, 10*msK)
	if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st < registry.StatusSuspected {
		t.Fatalf("status during partition %v, want suspected", st)
	}

	sc.Net.Heal("p", "q")
	// After healing, heartbeats resume; once the window re-learns the
	// schedule the server must be trusted again.
	sc.RunFor(30*clock.Second, 10*msK)
	if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st != registry.StatusActive {
		t.Fatalf("status after heal %v, want active", st)
	}
}

func TestPartitionFlappingNeverWedgesMonitor(t *testing.T) {
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK}, 22)
	mon := sc.AddMonitor("q", chenFactory(150*msK), registry.Options{})
	sc.AddSender("p", 100*msK, msK, "q")
	watch(t, mon.Mon, "p")
	sc.RunFor(8*clock.Second, 10*msK)

	// 10 cycles of 1s cut / 2s heal.
	for i := 0; i < 10; i++ {
		sc.Net.Partition("p", "q")
		sc.RunFor(clock.Second, 10*msK)
		sc.Net.Heal("p", "q")
		sc.RunFor(2*clock.Second, 10*msK)
	}
	// Long calm period: the monitor must converge back to active, not
	// wedge in suspected (state machine correctness under flapping).
	sc.RunFor(60*clock.Second, 10*msK)
	if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st != registry.StatusActive {
		t.Fatalf("status after flapping settled: %v, want active", st)
	}
}

func TestLongOutageThenRecoveryWithSFD(t *testing.T) {
	factory := func(string) detector.Detector {
		return core.New(core.Config{WindowSize: 50, Interval: 100 * msK, InitialMargin: 200 * msK})
	}
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK}, 23)
	mon := sc.AddMonitor("q", factory, registry.Options{OfflineAfter: 5 * clock.Second})
	sc.AddSender("p", 100*msK, msK, "q")
	watch(t, mon.Mon, "p")
	sc.RunFor(10*clock.Second, 10*msK)

	// 30-second outage: suspected, then declared offline.
	sc.Net.Partition("p", "q")
	sc.RunFor(30*clock.Second, 10*msK)
	if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st != registry.StatusOffline {
		t.Fatalf("status after long outage %v, want offline", st)
	}

	// The link heals: the paper's crash-stop model says crashed processes
	// don't recover, but a *wrongly declared* server that resumes
	// heartbeats must be reinstated.
	sc.Net.Heal("p", "q")
	sc.RunFor(60*clock.Second, 10*msK)
	if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st != registry.StatusActive {
		t.Fatalf("status after outage recovery %v, want active", st)
	}
}

func TestClockJumpBehavesLikePause(t *testing.T) {
	// A coarse clock discontinuity (VM pause): all in-flight deliveries
	// land at the jump target. The monitor must suspect during the frozen
	// span and recover afterward.
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK}, 24)
	mon := sc.AddMonitor("q", chenFactory(150*msK), registry.Options{})
	sc.AddSender("p", 100*msK, msK, "q")
	watch(t, mon.Mon, "p")
	sc.RunFor(10*clock.Second, 10*msK)

	sc.Clk.Jump(5 * clock.Second) // everything pending lands "now"
	// Immediately after the jump, arrivals that were in flight are all
	// stamped at the landing instant; feed them and let the system run.
	sc.RunFor(30*clock.Second, 10*msK)
	if st, _ := mon.Mon.StatusOf("p", sc.Clk.Now()); st != registry.StatusActive {
		t.Fatalf("status after clock jump %v, want active", st)
	}
}

func TestInboxSaturationDegradesGracefully(t *testing.T) {
	// A monitor with a tiny inbox drops most heartbeats (socket-buffer
	// saturation); the detector sees the survivors as a lossy stream and
	// keeps functioning rather than corrupting state.
	clk := clock.NewSim(0)
	net := netsim.New(clk, netsim.LinkParams{DelayBase: msK}, 25)
	m := &SimMonitor{name: "q", node: net.AddNode("q", 2),
		Mon: registry.New(clk, chenFactory(300*msK), registry.Options{})}
	watch(t, m.Mon, "p")
	sender := net.AddNode("p", 4)

	// Blast 50 heartbeats per pump window; only ~2 survive each round.
	seq := uint64(0)
	var send clock.Time
	for round := 0; round < 200; round++ {
		for i := 0; i < 50; i++ {
			msg := encodeHB(seq, send)
			_ = sender.Send("q", msg)
			seq++
			send = send.Add(2 * msK)
		}
		clk.Advance(100 * msK)
		m.pump()
	}
	snap := m.Mon.Snapshot(clk.Now())
	if len(snap) != 1 || snap[0].LastSeq == 0 {
		t.Fatalf("monitor made no progress under saturation: %+v", snap)
	}
}

func TestSFDReactsToNetworkDegradation(t *testing.T) {
	// The paper (§IV-A): "If systems have great changes and the
	// responding output QoS does not satisfy the Q̄oS, then the SFD will
	// give feedback information to improve output QoS gradually again".
	// Here the link's jitter multiplies mid-run; a previously stable SFD
	// must leave the stable state and grow its margin.
	factory := func(string) detector.Detector {
		return core.New(core.Config{
			WindowSize: 100, Interval: 100 * msK, InitialMargin: 30 * msK,
			Alpha: 100 * msK, Beta: 0.5, SlotHeartbeats: 100,
			Targets: core.Targets{MaxTD: 2 * clock.Second, MaxMR: 0.05, MinQAP: 0.999},
		})
	}
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK, JitterMean: msK, JitterStd: msK}, 26)
	mon := sc.AddMonitor("q", factory, registry.Options{})
	sc.AddSender("p", 100*msK, msK, "q")
	watch(t, mon.Mon, "p")
	sc.RunFor(60*clock.Second, 10*msK)

	margin := func() (m clock.Duration, st core.State) {
		mon.Mon.Inspect("p", func(d detector.Detector) {
			m, st = d.(*core.SFD).Margin(), d.(*core.SFD).State()
		})
		return m, st
	}
	calmMargin, _ := margin()

	// Degrade the network violently.
	sc.Net.SetLink("p", "q", netsim.LinkParams{
		DelayBase: 2 * msK, JitterMean: 60 * msK, JitterStd: 80 * msK,
	})
	sc.RunFor(240*clock.Second, 10*msK)
	if now, st := margin(); now <= calmMargin {
		t.Fatalf("margin did not grow after degradation: calm=%v now=%v (state %v)",
			calmMargin, now, st)
	}
}

// encodeHB builds a heartbeat datagram.
func encodeHB(seq uint64, send clock.Time) []byte {
	return heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Time: send}.Marshal()
}
