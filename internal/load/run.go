package load

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/transport"
)

// Run executes a scenario end to end: boot the monitors, aim the
// fleets at them over real loopback UDP, tap every monitor's /watch
// stream into the ground-truth tracker, play the fault timeline, and
// score the result against the spec's bounds. progress (nil to silence)
// gets one status line every ~10 s.
//
// Teardown ordering is load-bearing: aggregates are collected and the
// tracker frozen while everything still runs, THEN taps, fleets, and
// monitors stop — so the silence of shutdown is never scored as
// failure.
func Run(spec Spec, progress io.Writer) (*Report, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	say := func(format string, a ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", a...)
		}
	}
	started := time.Now()
	clk := clock.NewReal()
	rng := rand.New(rand.NewSource(spec.Seed))

	// --- monitors -------------------------------------------------------
	// Multi-monitor runs gossip over the heartbeat sockets; every
	// monitor needs the others' addresses, so sockets bind in a first
	// pass and gossip wiring happens in StartMonitor.
	var monitors []*MonitorNode
	var stateDirs []string
	stopAll := func() {
		for _, m := range monitors {
			m.Stop()
		}
		for _, d := range stateDirs {
			os.RemoveAll(d)
		}
	}
	factory := cohortFactory(spec.Cohorts)
	udpAddrs := make([]string, 0, spec.Monitors)
	if spec.Monitors > 1 {
		// Every gossiper needs the other monitors' addresses before it
		// is built, so the ingest sockets bind in a first pass and each
		// StartMonitor adopts its pre-bound one.
		addrs, err := preBindAddrs(spec.Monitors)
		if err != nil {
			return nil, err
		}
		udpAddrs = addrs.addrs
		for i := 0; i < spec.Monitors; i++ {
			peers := make([]string, 0, spec.Monitors-1)
			for j, a := range udpAddrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			dir := ""
			if spec.Persist {
				d, err := os.MkdirTemp("", "sfdload-state-*")
				if err != nil {
					stopAll()
					return nil, err
				}
				stateDirs = append(stateDirs, d)
				dir = d
			}
			m, err := StartMonitor(NodeOptions{
				Clock:        clk,
				Factory:      factory,
				OfflineAfter: spec.OfflineAfter,
				MaxSilence:   spec.MaxSilence,
				EvictAfter:   -1, // keep offline streams for scoring
				StateDir:     dir,
				GossipPeers:  peers,
				GossipQuorum: spec.GossipQuorum,
				ID:           fmt.Sprintf("mon-%d", i),
				Transport:    addrs.udps[i],
			})
			if err != nil {
				addrs.closeFrom(i)
				stopAll()
				return nil, err
			}
			monitors = append(monitors, m)
		}
	} else {
		dir := ""
		if spec.Persist {
			d, err := os.MkdirTemp("", "sfdload-state-*")
			if err != nil {
				return nil, err
			}
			stateDirs = append(stateDirs, d)
			dir = d
		}
		m, err := StartMonitor(NodeOptions{
			Clock:        clk,
			Factory:      factory,
			OfflineAfter: spec.OfflineAfter,
			MaxSilence:   spec.MaxSilence,
			EvictAfter:   -1,
			StateDir:     dir,
			ID:           "mon-0",
		})
		if err != nil {
			stopAll()
			return nil, err
		}
		monitors = append(monitors, m)
		udpAddrs = append(udpAddrs, m.UDPAddr())
	}
	say("sfdload: %d monitor(s) up: %v", len(monitors), udpAddrs)

	// --- tracker + taps -------------------------------------------------
	tracker := NewTracker()
	taps := make([]*WatchTap, 0, len(monitors))
	for _, m := range monitors {
		tap := NewWatchTap(m.BaseURL(), "#", 8192, tracker.OnEvent)
		tap.Start()
		taps = append(taps, tap)
	}

	// --- fleets ---------------------------------------------------------
	var fleets []*Fleet
	var ctls []*chaos.Controller
	failAll := func(err error) (*Report, error) {
		for _, tap := range taps {
			tap.Stop()
		}
		for _, f := range fleets {
			f.Stop()
		}
		stopAll()
		return nil, err
	}
	for ci := range spec.Cohorts {
		c := &spec.Cohorts[ci]
		var ctl *chaos.Controller
		if c.Chaos != "" {
			sc, err := chaos.ParseDSL(c.Chaos)
			if err != nil {
				return failAll(fmt.Errorf("load: cohort %s chaos: %w", c.Name, err))
			}
			sc.Name = spec.Name + "/" + c.Name
			ctl = chaos.NewController(clk, spec.Seed+int64(ci))
			if err := ctl.Play(sc); err != nil {
				return failAll(fmt.Errorf("load: cohort %s chaos: %w", c.Name, err))
			}
		}
		ctls = append(ctls, ctl)
		f, err := NewFleet(FleetOptions{
			Prefix:  c.Name,
			Count:   c.Count,
			Targets: udpAddrs,
			Pacer:   c.Pacer,
			Sockets: c.Sockets,
			Seed:    spec.Seed + 101*int64(ci+1),
			Clock:   clk,
			Chaos:   ctl,
		})
		if err != nil {
			return failAll(err)
		}
		fleets = append(fleets, f)
		for i := 0; i < f.Count(); i++ {
			tracker.Register(f.Name(i))
		}
	}
	for _, f := range fleets {
		f.Start()
	}
	say("sfdload: %d senders heartbeating across %d cohort(s)", spec.Total, len(fleets))

	// --- fault timeline -------------------------------------------------
	ops := buildTimeline(&spec, rng)
	opDone := make(chan struct{})
	go func() {
		defer close(opDone)
		t0 := time.Now()
		for _, op := range ops {
			if d := op.at - time.Since(t0); d > 0 {
				time.Sleep(d)
			}
			f := fleets[op.cohort]
			name := f.Name(op.idx)
			switch {
			case op.kind == FaultKill && op.restart:
				for _, m := range monitors {
					m.Reg.UnmarkFailure(name)
				}
				tracker.MarkRestarted(name)
				f.Restart(op.idx)
			case op.kind == FaultKill:
				at := f.Kill(op.idx)
				tracker.MarkKilled(name, at)
				for _, m := range monitors {
					m.Reg.MarkFailure(name, at)
				}
			case op.kind == FaultRebind:
				f.Rebind(op.idx)
				tracker.NoteRebind(name)
			}
		}
	}()

	// --- run ------------------------------------------------------------
	deadline := time.NewTimer(spec.Duration)
	defer deadline.Stop()
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-deadline.C:
			running = false
		case <-tick.C:
			var sent uint64
			alive := 0
			for _, f := range fleets {
				sent += f.Sent()
				alive += f.Alive()
			}
			ts := tracker.Snapshot()
			say("sfdload: t=%v alive=%d sent=%d hb=%d detected=%d/%d spurious=%d",
				time.Since(started).Round(time.Second), alive, sent,
				monitors[0].Reg.Counters().Heartbeats, ts.Detected, ts.Injected, ts.Spurious)
		}
	}
	<-opDone

	// --- collect, then tear down ---------------------------------------
	// Give in-flight transitions a beat to cross the watch streams.
	time.Sleep(500 * time.Millisecond)
	tracker.Freeze()
	tracker.FinishMissed()

	rep := &Report{
		Scenario:  spec.Name,
		StartedAt: started,
		Total:     spec.Total,
		DurationS: spec.Duration.Seconds(),
		Seed:      spec.Seed,
		Bounds:    spec.Bounds,
	}
	for i, m := range monitors {
		c := m.Reg.Counters()
		uc := m.UDP.Counters()
		rep.Monitors = append(rep.Monitors, MonitorReport{
			Addr:         m.UDPAddr(),
			Heartbeats:   c.Heartbeats,
			UDPReceived:  uc.Received,
			UDPDropped:   uc.Dropped,
			Stale:        c.Stale,
			Suspects:     c.Suspects,
			Trusts:       c.Trusts,
			Offlines:     c.Offlines,
			QoS:          qosAggregate(m.Reg),
			Detection:    m.Reg.DetectionLatency(),
			WatchEvents:  taps[i].Events(),
			WatchDropped: taps[i].Dropped(),
			WatchReconns: taps[i].Reconnects(),
		})
	}
	for ci, f := range fleets {
		cr := CohortReport{
			Name:       spec.Cohorts[ci].Name,
			Count:      f.Count(),
			IntervalMS: float64(spec.Cohorts[ci].Pacer.Interval) / float64(time.Millisecond),
			Sent:       f.Sent(),
			SendErrors: f.SendErrors(),
		}
		if ctls[ci] != nil {
			cc := ctls[ci].Counters()
			cr.Chaos = &cc
		}
		rep.Cohorts = append(rep.Cohorts, cr)
	}
	rep.Tracker = tracker.Snapshot()

	for _, tap := range taps {
		tap.Stop()
	}
	for _, f := range fleets {
		f.Stop()
	}
	stopAll()
	rep.WallTime = time.Since(started).Seconds()
	rep.evaluate()
	return rep, nil
}

// boundUDP pre-binds the monitor sockets so each gossiper can be built
// knowing every peer's address.
type boundUDP struct {
	udps  []*transport.UDP
	addrs []string
}

func (b *boundUDP) closeFrom(i int) {
	for ; i < len(b.udps); i++ {
		_ = b.udps[i].Close()
	}
}

// preBindAddrs binds n monitor ingest sockets up front.
func preBindAddrs(n int) (*boundUDP, error) {
	out := &boundUDP{}
	for i := 0; i < n; i++ {
		u, err := transport.ListenUDPOpts("127.0.0.1:0", transport.MonitorIngest(transport.UDPOptions{Batch: 32}))
		if err != nil {
			out.closeFrom(0)
			return nil, err
		}
		out.udps = append(out.udps, u)
		out.addrs = append(out.addrs, u.Addr())
	}
	return out, nil
}
