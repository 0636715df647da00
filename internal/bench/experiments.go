package bench

import (
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table I — summary of the WAN experiments (host matrix)",
		Paper: "Six PlanetLab sender/receiver pairs across USA, Germany, Japan, China.",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Table II — summary of the experiments: statistics",
		Paper: "Per-environment heartbeat totals, loss rates, send/receive interval stats, RTT.",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Fig. 6 — mistake rate vs detection time in a WAN (JP↔CH)",
		Paper: "Chen widest range reaching lowest MR conservatively; φ matches Chen aggressively, stops early; Bertier one aggressive point; SFD occupies the 0.3–0.9 s feedback band.",
		Run:   figRunner("WAN-JPCH", "mr"),
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Fig. 7 — query accuracy probability vs detection time in a WAN (JP↔CH)",
		Paper: "QAP in the 99.6–99.75% band; best values upper-left.",
		Run:   figRunner("WAN-JPCH", "qap"),
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9 — mistake rate vs detection time, WAN-1 (USA→Japan)",
		Paper: "SFD curve from TD 0.10 s (MR 0.31, QAP 99.5%) to 0.87 s (MR 4.1e-4, QAP 99.8%); Chen conservative reaching MR 0; φ stops at TD 1.58 s.",
		Run:   figRunner("WAN-1", "mr"),
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Fig. 10 — query accuracy probability vs detection time, WAN-1",
		Paper: "Same sweep, QAP axis (97.5–100%).",
		Run:   figRunner("WAN-1", "qap"),
	})
	register(Experiment{
		ID:    "window",
		Title: "§V-C — effect of window size on FD QoS",
		Paper: "Larger windows help φ; window size negligible for Bertier; smaller windows better for Chen and SFD.",
		Run:   runWindow,
	})
	register(Experiment{
		ID:    "selftune",
		Title: "§V-B — SFD self-tuning convergence and infeasible response",
		Paper: "SM trajectory converges to the target QoS box; infeasible targets elicit the 'can not satisfy' response.",
		Run:   runSelfTune,
	})
	register(Experiment{
		ID:    "cluster",
		Title: "§VII — one-monitors-multiple / multiple-monitor-multiple cloud",
		Paper: "The Fig. 1 consortium: crash detection latency and cross-cloud quorum agreement.",
		Run:   runCluster,
	})
}

func runTable1(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "%-9s %-9s %-35s %-9s %-35s\n", "case", "sender", "sender-hostname", "receiver", "receiver-hostname")
	for _, name := range trace.PresetNames() {
		if name == "WAN-JPCH" {
			continue // Table I covers only the six PlanetLab pairs
		}
		gp, err := trace.Preset(name)
		if err != nil {
			return err
		}
		m := gp.Meta
		fmt.Fprintf(w, "%-9s %-9s %-35s %-9s %-35s\n", m.Name, m.Sender, m.SenderHost, m.Receiver, m.ReceiverHost)
	}
	return nil
}

func runTable2(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, trace.TableHeader())
	for _, name := range trace.PresetNames() {
		gp, err := trace.Preset(name)
		if err != nil {
			return err
		}
		gp.Count = cfg.Heartbeats
		if cfg.Full {
			gp.Count = trace.PaperCounts[name]
		}
		st := trace.Analyze(name, trace.NewGenerator(gp))
		fmt.Fprintln(w, st.TableRow())
		if name == "WAN-JPCH" {
			fmt.Fprintf(w, "%-9s   bursts=%d maxBurst=%d meanBurst=%.1f (paper: 814 bursts, max 1093)\n",
				"", st.LossBursts, st.MaxBurstLen, st.MeanBurstLen)
		}
	}
	return nil
}

func figRunner(env, yAxis string) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		tr, err := MakeTrace(cfg, env)
		if err != nil {
			return err
		}
		curves := FigureCurves(cfg, tr, DefaultTargets())
		writeCurves(w, curves, yAxis)
		writeShapeChecks(w, curves)
		return nil
	}
}

// writeShapeChecks prints the qualitative relations the paper's figures
// exhibit, so a reader can confirm the reproduction preserves them.
func writeShapeChecks(w io.Writer, curves []qos.Curve) {
	byName := map[string]qos.Curve{}
	for _, c := range curves {
		byName[c.Detector] = c
	}
	sfd, chen, phi := byName["SFD"], byName["Chen FD"], byName["phi FD"]

	sMin, sMax := sfd.TDRange()
	cMin, cMax := chen.TDRange()
	pMin, pMax := phi.TDRange()
	fmt.Fprintf(w, "shape: Chen TD range  [%.3fs, %.3fs]\n", cMin.Seconds(), cMax.Seconds())
	fmt.Fprintf(w, "shape: phi  TD range  [%.3fs, %.3fs] (threshold capped at %g)\n",
		pMin.Seconds(), pMax.Seconds(), detector.PhiMaxThreshold)
	fmt.Fprintf(w, "shape: SFD  TD range  [%.3fs, %.3fs] (feedback band)\n", sMin.Seconds(), sMax.Seconds())
	fmt.Fprintf(w, "shape: Chen covers widest range: %v\n", cMax-cMin >= sMax-sMin && cMax >= pMax)
	fmt.Fprintf(w, "shape: SFD avoids Chen's conservative extreme: %v (SFD max %.3fs < Chen max %.3fs)\n",
		sMax < cMax, sMax.Seconds(), cMax.Seconds())
	zeroMR := false
	for _, p := range chen.Points {
		if p.Result.Mistakes == 0 {
			zeroMR = true
			break
		}
	}
	fmt.Fprintf(w, "shape: Chen reaches MR=0 in the conservative range: %v\n", zeroMR)
}

func runWindow(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tr, err := MakeTrace(cfg, "WAN-1")
	if err != nil {
		return err
	}
	sizes := []int{100, 250, 500, 1000, 2000, 4000}
	fmt.Fprintf(w, "%-6s  %-26s %-26s %-26s %-26s\n", "WS", "Chen(α=200ms)", "Bertier", "phi(Φ=4)", "SFD(SM1=200ms)")
	fmt.Fprintf(w, "%-6s  %s\n", "", "each cell: TD[s] / MR[1/s] / QAP[%]")
	for _, ws := range sizes {
		cell := func(r qos.Result) string {
			return fmt.Sprintf("%.3f / %-9.3g / %7.4f", r.TDAvg.Seconds(), r.MR, r.QAP*100)
		}
		chen := qos.Replay(tr.Stream(), detector.NewChen(ws, 0, 200*clock.Millisecond))
		bert := qos.Replay(tr.Stream(), detector.NewBertier(ws, 0, detector.DefaultBertierParams()))
		phi := qos.Replay(tr.Stream(), detector.NewPhi(ws, 4, 0))
		sfd := qos.Replay(tr.Stream(), core.New(core.Config{
			WindowSize: ws, InitialMargin: 200 * clock.Millisecond,
			Targets: DefaultTargets(),
		}))
		fmt.Fprintf(w, "%-6d  %-26s %-26s %-26s %-26s\n", ws, cell(chen), cell(bert), cell(phi), cell(sfd))
	}
	return nil
}

func runSelfTune(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tr, err := MakeTrace(cfg, "WAN-1")
	if err != nil {
		return err
	}

	// Feasible request: start far too conservative; watch SM fall.
	targets := DefaultTargets()
	sfd := core.New(core.Config{
		WindowSize:    cfg.WindowSize,
		InitialMargin: 3 * clock.Second,
		Alpha:         100 * clock.Millisecond, Beta: 0.5,
		SlotHeartbeats: 500,
		Targets:        targets,
	})
	res := qos.Replay(tr.Stream(), sfd)
	fmt.Fprintf(w, "feasible request %v, SM1=3s\n", targets)
	fmt.Fprintf(w, "  final state=%v margin=%v\n", sfd.State(), sfd.Margin())
	fmt.Fprintf(w, "  measured  %s\n", res)
	fmt.Fprintln(w, "  SM trajectory (slot → margin, verdict):")
	hist := sfd.History()
	step := len(hist)/12 + 1
	for i := 0; i < len(hist); i += step {
		a := hist[i]
		fmt.Fprintf(w, "    slot %4d  SM=%-10v  verdict=%-9v  TD=%.3fs MR=%.3g QAP=%.4f%%\n",
			a.Slot, a.Margin, a.Verdict, a.Measured.TD.Seconds(), a.Measured.MR, a.Measured.QAP*100)
	}

	// Infeasible request: Algorithm 1 line 14's response.
	bad := core.New(core.Config{
		WindowSize:    cfg.WindowSize,
		InitialMargin: 0,
		Alpha:         100 * clock.Millisecond, Beta: 0.5,
		SlotHeartbeats:   500,
		Targets:          core.Targets{MaxTD: clock.Millisecond, MaxMR: 1e-9, MinQAP: 0.9999999},
		HaltOnInfeasible: true,
	})
	qos.Replay(tr.Stream(), bad)
	fmt.Fprintf(w, "infeasible request: state=%v\n  response: %s\n", bad.State(), bad.Response())
	return nil
}

func runCluster(cfg Config, w io.Writer) error {
	factory := func(string) detector.Detector {
		c := core.DefaultConfig()
		c.WindowSize = 100
		c.InitialMargin = 200 * clock.Millisecond
		c.Targets = DefaultTargets()
		return core.New(c)
	}
	con := cluster.BuildConsortium(cluster.ConsortiumConfig{
		ServersPerCloud: 3,
		Interval:        100 * clock.Millisecond,
		Jitter:          2 * clock.Millisecond,
		Factory:         factory,
		Seed:            42,
	})
	con.RunFor(30*clock.Second, 10*clock.Millisecond)

	now := con.Clk.Now()
	active := 0
	for _, cl := range con.Clouds {
		for _, r := range cl.Manager.Mon.Snapshot(now) {
			if r.Status == registry.StatusActive {
				active++
			}
		}
	}
	fmt.Fprintf(w, "consortium warm: %d peer views active across %d clouds\n", active, len(con.Clouds))

	// Crash one server per cloud and measure detection latencies.
	fmt.Fprintf(w, "%-14s %-14s %s\n", "cloud", "crashed", "detection latency")
	var lat []clock.Duration
	for _, name := range []string{"GA", "SC", "NC", "VA", "MD"} {
		cl := con.Clouds[name]
		srv := cl.Servers[0]
		srv.Crash()
		peerName := name + "/server-0"
		d, ok := con.DetectCrash(name+"/manager", peerName, 10*clock.Second)
		if !ok {
			return fmt.Errorf("cluster: %s crash not detected", peerName)
		}
		lat = append(lat, d)
		fmt.Fprintf(w, "%-14s %-14s %v\n", name, peerName, d)
	}

	// Cross-cloud quorum on a crashed beacon.
	con.Sender("GA/beacon").Crash()
	con.RunFor(3*clock.Second, 10*clock.Millisecond)
	q := con.CrossCloudQuorum("GA")
	sus, votes := q.Suspected("GA/beacon", con.Clk.Now())
	fmt.Fprintf(w, "cross-cloud quorum on GA/beacon crash: suspected=%v votes=%d/%d\n",
		sus, votes, len(q.Monitors))
	if !sus {
		return fmt.Errorf("cluster: quorum failed to confirm beacon crash")
	}
	return nil
}
