package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/qos"
)

func smallCfg() Config {
	return Config{Heartbeats: 20_000, SweepPoints: 8, WindowSize: 200}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-gapfill", "ablation-signs", "ablation-slot", "ablation-step",
		"cluster", "configure", "extended",
		"fig10", "fig6", "fig7", "fig9", "figall", "selftune", "table1", "table2", "window",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	if _, ok := Get("fig6"); !ok {
		t.Fatal("Get(fig6) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	cfg := smallCfg()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestTable1ListsSixPairs(t *testing.T) {
	var buf bytes.Buffer
	if err := catalog["table1"].Run(Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, host := range []string{
		"planet1.scs.stanford.edu", "planetlab-03.naist.ac.jp",
		"planetlab-2.fokus.fraunhofer.de", "planetlab2.ie.cuhk.edu.hk",
		"plab1.cs.ust.hk", "planetlab1.sfc.wide.ad.jp",
	} {
		if !strings.Contains(out, host) {
			t.Errorf("Table I missing host %s", host)
		}
	}
	if strings.Contains(out, "WAN-JPCH") {
		t.Error("Table I should not include the JP↔CH run")
	}
	lines := strings.Count(out, "\n")
	if lines != 7 { // header + 6 rows
		t.Errorf("Table I has %d lines, want 7", lines)
	}
}

func TestTable2RowsPerEnvironment(t *testing.T) {
	var buf bytes.Buffer
	if err := catalog["table2"].Run(Config{Heartbeats: 30_000}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, env := range []string{"WAN-JPCH", "WAN-1", "WAN-2", "WAN-3", "WAN-4", "WAN-5", "WAN-6"} {
		if !strings.Contains(out, env) {
			t.Errorf("Table II missing %s", env)
		}
	}
	if !strings.Contains(out, "bursts=") {
		t.Error("Table II missing JP↔CH burst detail")
	}
}

func TestFigureCurvesShape(t *testing.T) {
	cfg := smallCfg()
	tr, err := MakeTrace(cfg, "WAN-JPCH")
	if err != nil {
		t.Fatal(err)
	}
	curves := FigureCurves(cfg, tr, DefaultTargets())
	if len(curves) != 4 {
		t.Fatalf("got %d curves", len(curves))
	}
	byName := map[string]qos.Curve{}
	for _, c := range curves {
		byName[c.Detector] = c
	}
	chen, phi, bert, sfd := byName["Chen FD"], byName["phi FD"], byName["Bertier FD"], byName["SFD"]

	if len(bert.Points) != 1 {
		t.Fatalf("Bertier must contribute exactly one point, got %d", len(bert.Points))
	}
	// Chen covers the widest TD range (paper: "Chen FD has an extensive
	// performance range").
	cMin, cMax := chen.TDRange()
	pMin, pMax := phi.TDRange()
	sMin, sMax := sfd.TDRange()
	if cMax-cMin < pMax-pMin || cMax-cMin < sMax-sMin {
		t.Errorf("Chen range [%v,%v] not the widest (phi [%v,%v], SFD [%v,%v])",
			cMin, cMax, pMin, pMax, sMin, sMax)
	}
	// Chen's conservative end reaches further than φ's capped curve.
	if cMax <= pMax {
		t.Errorf("Chen max TD %v not beyond phi cap %v", cMax, pMax)
	}
	// SFD avoids Chen's conservative extreme: feedback pulls large SM₁
	// values back toward the target band.
	if sMax >= cMax {
		t.Errorf("SFD max TD %v not inside Chen's range %v", sMax, cMax)
	}
	// Chen reaches zero mistakes at its most conservative point.
	zero := false
	for _, p := range chen.Points {
		if p.Result.Mistakes == 0 {
			zero = true
		}
	}
	if !zero {
		t.Error("Chen never reached MR=0 in the conservative range")
	}
	// In the aggressive range (smallest TDs) φ and Chen behave similarly:
	// compare best MR at the aggressive cutoff.
	cutoff := pMin + (pMax-pMin)/4
	cMR, ok1 := chen.BestMRAt(cutoff)
	pMR, ok2 := phi.BestMRAt(cutoff)
	if ok1 && ok2 {
		if cMR > pMR*50+1e-6 || pMR > cMR*50+1e-6 {
			t.Errorf("aggressive range mismatch: Chen MR %g vs phi MR %g", cMR, pMR)
		}
	}
}

func TestScatterPlotRendering(t *testing.T) {
	c := qos.Curve{Detector: "X", Points: []qos.Point{
		{Param: 1, Result: qos.Result{TDAvg: 100 * clock.Millisecond, MR: 0.5, QAP: 0.99}},
		{Param: 2, Result: qos.Result{TDAvg: 500 * clock.Millisecond, MR: 0.001, QAP: 0.999}},
		{Param: 3, Result: qos.Result{TDAvg: 900 * clock.Millisecond, MR: 0, QAP: 1}},
	}}
	mr := ScatterPlot([]qos.Curve{c}, "mr")
	if !strings.Contains(mr, "mistake rate") || !strings.Contains(mr, "legend") {
		t.Fatalf("bad MR plot:\n%s", mr)
	}
	qap := ScatterPlot([]qos.Curve{c}, "qap")
	if !strings.Contains(qap, "query accuracy") {
		t.Fatalf("bad QAP plot:\n%s", qap)
	}
	if ScatterPlot(nil, "mr") != "(no points)\n" {
		t.Fatal("empty plot wrong")
	}
}

func TestMakeTraceScales(t *testing.T) {
	tr, err := MakeTrace(Config{Heartbeats: 1234}, "WAN-3")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1234 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	if _, err := MakeTrace(Config{}, "WAN-99"); err == nil {
		t.Fatal("unknown env accepted")
	}
}

func TestDefaultTargetsSane(t *testing.T) {
	tg := DefaultTargets()
	if !tg.Valid() {
		t.Fatalf("default targets invalid: %+v", tg)
	}
	if tg.MaxTD != 900*clock.Millisecond {
		t.Fatalf("MaxTD = %v", tg.MaxTD)
	}
}

// TestClusterRowsPinned pins the §VII consortium rows EXPERIMENTS.md
// quotes. The scenario is deterministic on clock.Sim, so a change to the
// monitor core that moves one detection or one quorum vote shows here.
func TestClusterRowsPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := catalog["cluster"].Run(Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	const want = `consortium warm: 35 peer views active across 5 clouds
cloud          crashed        detection latency
GA             GA/server-0    295ms
SC             SC/server-0    290ms
NC             NC/server-0    240ms
VA             VA/server-0    280ms
MD             MD/server-0    210ms
cross-cloud quorum on GA/beacon crash: suspected=true votes=4/4
`
	if got := buf.String(); got != want {
		t.Fatalf("cluster rows changed:\n%s\nwant:\n%s", got, want)
	}
}
