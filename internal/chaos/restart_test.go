package chaos

// The kill/restart acceptance drill from the issue: a fleet-scale
// monitor with persistence armed is hard-killed mid-run (no Stop, no
// final snapshot — the journal is what saves the tail) and restarted
// after a short outage. Streams that kept heartbeating through the
// downtime must come back trusted with zero spurious transitions,
// incarnations must survive exactly, streams that restarted themselves
// during the outage (incarnation bump) must be absorbed silently, and a
// cohort partitioned away by chaos must still walk suspect → offline on
// the normal deadlines — the rewarm grace defers real detection, it
// does not disable it. The whole drill runs on one clock.Sim with
// seeded chaos, so a failure replays byte-for-byte.

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

const (
	drillInterval = 200 * clock.Millisecond
	drillStep     = 20 * clock.Millisecond
	drillGrace    = clock.Second
)

// drillSender injects one stream's heartbeats straight into the
// monitor's chaos endpoint via Process — the documented deterministic
// inbound path — so ten thousand streams need no per-sender endpoints.
type drillSender struct {
	mon    *Endpoint
	clk    *clock.Sim
	name   string
	seq    uint64
	inc    uint64
	stopAt clock.Time // 0 = never: the chain ends, like a dead process
}

func (s *drillSender) beat(now clock.Time) {
	if s.stopAt > 0 && !now.Before(s.stopAt) {
		return
	}
	s.seq++
	b := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: s.seq, Time: now, Inc: s.inc}.Marshal()
	s.mon.Process(transport.Inbound{From: s.name, Payload: b})
	s.clk.AfterFunc(drillInterval, s.beat)
}

func drillConfig() core.Config {
	return core.Config{
		WindowSize:     16,
		Interval:       drillInterval,
		InitialMargin:  150 * clock.Millisecond,
		Alpha:          20 * clock.Millisecond,
		Beta:           0.5,
		SlotHeartbeats: 8,
		// Generous targets keep every healthy slot Stable, so the margin
		// holding exactly InitialMargin across the restart is itself an
		// assertion of determinism.
		Targets: core.Targets{
			MaxTD:  600 * clock.Millisecond,
			MaxMR:  0.5,
			MinQAP: 0.9,
		},
		FillGaps:   true,
		MaxGapFill: 16,
	}
}

func drillOptions(dir string) registry.Options {
	return registry.Options{
		Shards:       64,
		WheelTick:    10 * clock.Millisecond,
		OfflineAfter: clock.Second,
		MaxSilence:   -1, // the detectors carry detection; no silence net
		EvictAfter:   -1, // keep offline streams inspectable
		StateDir:     dir,
		// Tight cadences so a hard kill loses at most ~50 ms of arrivals.
		CheckpointInterval: clock.Second,
		JournalFlush:       50 * clock.Millisecond,
		RewarmGrace:        drillGrace,
	}
}

// drillPump advances the sim in drain-sized steps, folding the chaos
// endpoint's surviving datagrams into the registry after each step.
func drillPump(sim *clock.Sim, reg *registry.Registry, mon *Endpoint, span clock.Duration) {
	for elapsed := clock.Duration(0); elapsed < span; elapsed += drillStep {
		sim.Advance(drillStep)
		observeInto(reg, sim, mon.Recv())
	}
}

func TestAcceptKillRestartDrill(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1000
	}
	deadN := n / 100   // partitioned away after the restart
	rebornN := n / 100 // restarted themselves during the outage
	flakyN := n / 100  // die before the kill, recover during the outage
	dir := t.TempDir()
	cfg := drillConfig()
	factory := func(string) detector.Detector { return core.New(cfg) }

	names := make([]string, n)
	incs := make([]uint64, n)
	for i := range names {
		names[i] = fmt.Sprintf("srv-%05d", i)
		incs[i] = uint64(i%4) + 1
	}
	jitter := Impairment{
		Kind:      KindDelay,
		Delay:     Span(2 * clock.Millisecond),
		Jitter:    Span(6 * clock.Millisecond),
		Direction: DirIn,
	}

	// ---- First life: warm the fleet past its first slot closes. ----
	sim1 := clock.NewSim(0)
	hub1 := transport.NewHub(0, 0, 1)
	ctl1 := NewController(sim1, 424242)
	mon1 := Wrap(hub1.Endpoint("monitor"), ctl1)
	if _, err := ctl1.Arm(jitter); err != nil {
		t.Fatal(err)
	}
	r1 := registry.New(sim1, factory, drillOptions(dir))
	r1.Start()
	sub1 := r1.Subscribe(1 << 12)

	// The flaky cohort dies at flakyStop: its suspect (~+350 ms) and
	// offline (~+1.35 s) transitions land after the last full snapshot
	// (checkpoints fire at 1..4 s; the kill preempts the 5 s one), so
	// that state reaches the next life through the delta journal alone.
	flaky0 := deadN + rebornN
	const flakyStop = clock.Time(3300 * clock.Millisecond)
	const firstLife = 4900 * clock.Millisecond

	senders := make([]*drillSender, n)
	for i := range senders {
		senders[i] = &drillSender{mon: mon1, clk: sim1, name: names[i], inc: incs[i]}
		if i >= flaky0 && i < flaky0+flakyN {
			senders[i].stopAt = flakyStop
		}
		// Phase-offset the fleet so load spreads across every step.
		phase := clock.Duration(int64(drillInterval) * int64(i) / int64(n))
		sim1.AfterFunc(phase, senders[i].beat)
	}
	drillPump(sim1, r1, mon1, firstLife)

	if got := r1.Len(); got != n {
		t.Fatalf("first life tracks %d streams, want %d", got, n)
	}
	firstEvents := make(map[string][]registry.Event)
	for _, ev := range drainEvents(sub1) {
		firstEvents[ev.Peer] = append(firstEvents[ev.Peer], ev)
	}
	for i, name := range names {
		evs := firstEvents[name]
		if i >= flaky0 && i < flaky0+flakyN {
			if len(evs) != 2 || evs[0].Type != registry.EventSuspect || evs[1].Type != registry.EventOffline {
				t.Fatalf("%s (flaky) first-life events = %+v, want suspect then offline", name, evs)
			}
			if evs[0].At.Before(flakyStop) {
				t.Fatalf("%s suspected at %v, before it stopped beating (%v)", name, evs[0].At, flakyStop)
			}
			continue
		}
		if len(evs) != 0 {
			t.Fatalf("%s emitted %d spurious first-life events, e.g. %+v", name, len(evs), evs[0])
		}
	}
	ck := r1.Checkpointer()
	if ck == nil {
		t.Fatal("persistence not armed")
	}
	if ck.Snapshots() == 0 || ck.Deltas() == 0 {
		t.Fatalf("checkpointer wrote %d snapshots / %d deltas — drill never hit disk",
			ck.Snapshots(), ck.Deltas())
	}
	if ck.Errors() != 0 {
		t.Fatalf("checkpointer recorded %d errors", ck.Errors())
	}
	// Hard kill: r1 is abandoned without Stop. Whatever the journal
	// flushed (≤ 50 ms ago) is all the next life gets.

	// ---- Second life: restore after a 500 ms outage. ----
	const downtime = 500 * clock.Millisecond
	sim2 := clock.NewSim(0)
	hub2 := transport.NewHub(0, 0, 1)
	ctl2 := NewController(sim2, 424242)
	mon2 := Wrap(hub2.Endpoint("monitor"), ctl2)
	if _, err := ctl2.Arm(jitter); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl2.Arm(Impairment{
		Kind:      KindPartition,
		Direction: DirIn,
		Peers:     names[:deadN],
	}); err != nil {
		t.Fatal(err)
	}

	r2 := registry.New(sim2, factory, drillOptions(dir))
	restored, err := r2.RestoreFromDisk(downtime)
	if err != nil {
		t.Fatalf("RestoreFromDisk: %v", err)
	}
	if restored != n {
		t.Fatalf("restored %d streams, want %d", restored, n)
	}
	for i, name := range names {
		inc, ok := r2.IncarnationOf(name)
		if !ok || inc != incs[i] {
			t.Fatalf("%s incarnation after restore = %d (ok=%v), want %d", name, inc, ok, incs[i])
		}
	}
	// The flaky cohort's offline transition happened after the last full
	// snapshot; seeing it here proves the delta journal replayed.
	if st, ok := r2.StatusOf(names[flaky0], sim2.Now()); !ok || st != registry.StatusOffline {
		t.Fatalf("%s restored as %v (ok=%v), want offline via journal replay", names[flaky0], st, ok)
	}
	r2.Start()
	defer r2.Stop()
	sub2 := r2.Subscribe(1 << 12)

	for i, s := range senders {
		s2 := &drillSender{mon: mon2, clk: sim2, name: s.name, inc: s.inc}
		switch {
		case i < deadN:
			// Still sending, but chaos partitions them away: from the
			// monitor's seat they are failed processes.
			s2.seq = s.seq
		case i < flaky0+flakyN:
			// Reborn and flaky processes restarted during the outage:
			// incarnation bumps, sequence restarts from zero. (A sender
			// cannot resume a paused stream under the same incarnation —
			// its sequence numbers would contradict the wall-clock gap.)
			s2.inc = s.inc + 1
			s2.seq = 0
		default:
			// Kept running through the outage; the heartbeats sent while
			// the monitor was down were simply never received.
			s2.seq = s.seq + uint64(downtime/drillInterval)
		}
		phase := clock.Duration(int64(drillInterval) * int64(i) / int64(n))
		sim2.AfterFunc(phase, s2.beat)
	}
	const secondLife = 5 * clock.Second
	drillPump(sim2, r2, mon2, secondLife)

	// Partitioned streams walk suspect → offline on the normal deadlines;
	// everyone else rides through the restart without a single event.
	events := make(map[string][]registry.Event)
	for _, ev := range drainEvents(sub2) {
		events[ev.Peer] = append(events[ev.Peer], ev)
	}
	grace := clock.Time(drillGrace)
	for i, name := range names {
		evs := events[name]
		switch {
		case i < deadN:
			if len(evs) != 2 || evs[0].Type != registry.EventSuspect || evs[1].Type != registry.EventOffline {
				t.Fatalf("%s (partitioned) events = %+v, want suspect then offline", name, evs)
			}
			// Suspicion starts once the rewarm grace expires — not before
			// (that would be a spurious suspect) and not much after (the
			// grace must not mask real failures).
			if evs[0].At.Before(grace) || evs[0].At.After(grace.Add(150*clock.Millisecond)) {
				t.Fatalf("%s suspected at %v, want within [%v, %v+150ms]", name, evs[0].At, grace, grace)
			}
		case i >= flaky0 && i < flaky0+flakyN:
			// Restored offline, heartbeating again: one recovery, fast.
			if len(evs) != 1 || evs[0].Type != registry.EventTrust {
				t.Fatalf("%s (recovered) events = %+v, want exactly one trust", name, evs)
			}
			if evs[0].At.After(clock.Time(drillInterval + 2*drillStep)) {
				t.Fatalf("%s recovered at %v, want within the first interval", name, evs[0].At)
			}
		default:
			if len(evs) != 0 {
				t.Fatalf("%s (survivor) emitted %+v — spurious post-restart transition", name, evs)
			}
		}
	}
	c := r2.Counters()
	if c.Suspects != uint64(deadN) || c.Offlines != uint64(deadN) || c.Trusts != uint64(flakyN) {
		t.Fatalf("second-life counters = %+v, want %d suspects/offlines and %d trusts", c, deadN, flakyN)
	}

	// Survivors: trusted, incarnation intact (bumped for the reborn), and
	// their detectors re-stabilized at the pre-crash margin with clean
	// post-restart slots — the QoS re-convergence the paper's gap rule
	// and the rewarm freeze exist to deliver.
	now := sim2.Now()
	for _, i := range []int{deadN, deadN + rebornN/2, deadN + rebornN, n / 2, n - 1} {
		name := names[i]
		if st, ok := r2.StatusOf(name, now); !ok || st != registry.StatusActive {
			t.Fatalf("%s status = %v (ok=%v), want active", name, st, ok)
		}
		wantInc := incs[i]
		if i >= deadN && i < flaky0+flakyN {
			wantInc++
		}
		if inc, ok := r2.IncarnationOf(name); !ok || inc != wantInc {
			t.Fatalf("%s incarnation = %d (ok=%v), want %d", name, inc, ok, wantInc)
		}
		margin, state, history := sfdOf(t, r2, name)
		if state != core.StateStable {
			t.Fatalf("%s detector state = %v, want stable", name, state)
		}
		if margin != cfg.InitialMargin {
			for _, adj := range history {
				t.Logf("%s slot at %v: %v verdict=%v margin=%v", name, adj.At, adj.Measured, adj.Verdict, adj.Margin)
			}
			t.Fatalf("%s margin = %v, want %v (healthy slots must stay Stable)", name, margin, cfg.InitialMargin)
		}
		if len(history) == 0 {
			t.Fatalf("%s closed no slots after the restart", name)
		}
		for _, adj := range history {
			if adj.Measured.MR != 0 || adj.Measured.QAP < 0.999 {
				t.Fatalf("%s post-restart slot MR=%g QAP=%g — restart booked mistakes",
					name, adj.Measured.MR, adj.Measured.QAP)
			}
		}
	}
}

// drainEvents empties a subscription without blocking.
func drainEvents(sub *registry.Subscription) []registry.Event {
	var out []registry.Event
	for {
		select {
		case ev := <-sub.C():
			out = append(out, ev)
		default:
			if d := sub.Dropped(); d != 0 {
				panic(fmt.Sprintf("subscriber dropped %d events", d))
			}
			return out
		}
	}
}
