package main

import (
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
)

// The registry finds a detector's optional capabilities by type
// assertion on private interfaces. These mirror them: if the wrapper
// ever shadowed one of *core.SFD's methods with another signature, the
// traced run would silently lose QoS gauges, persistence or the
// cannot-satisfy event, and this file would stop compiling.
type (
	stater interface {
		State() core.State
		Response() string
	}
	tuned interface {
		Margin() clock.Duration
		State() core.State
		LastAdjustment() (core.Adjustment, bool)
	}
	statePorter interface {
		ExportState() core.SFDState
		ImportState(core.SFDState) error
		Rewarm(int)
	}
)

var (
	_ detector.Detector = (*tracedSFD)(nil)
	_ detector.Accrual  = (*tracedSFD)(nil)
	_ stater            = (*tracedSFD)(nil)
	_ tuned             = (*tracedSFD)(nil)
	_ statePorter       = (*tracedSFD)(nil)

	_ detector.Accrual = (*core.SFD)(nil)
	_ stater           = (*core.SFD)(nil)
	_ tuned            = (*core.SFD)(nil)
	_ statePorter      = (*core.SFD)(nil)
)

// Every method of *core.SFD, including ones added later, is on the
// wrapper with the same signature.
func TestTracedSFDKeepsEveryMethod(t *testing.T) {
	sfd := reflect.TypeOf((*core.SFD)(nil))
	wrapped := reflect.TypeOf((*tracedSFD)(nil))
	for i := 0; i < sfd.NumMethod(); i++ {
		m := sfd.Method(i)
		w, ok := wrapped.MethodByName(m.Name)
		if !ok {
			t.Errorf("tracedSFD lacks %s", m.Name)
			continue
		}
		// Compare without the receiver.
		if w.Type.NumIn() != m.Type.NumIn() || w.Type.NumOut() != m.Type.NumOut() {
			t.Errorf("%s: signature %v, want %v", m.Name, w.Type, m.Type)
			continue
		}
		for j := 1; j < m.Type.NumIn(); j++ {
			if w.Type.In(j) != m.Type.In(j) {
				t.Errorf("%s: argument %d is %v, want %v", m.Name, j, w.Type.In(j), m.Type.In(j))
			}
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			if w.Type.Out(j) != m.Type.Out(j) {
				t.Errorf("%s: result %d is %v, want %v", m.Name, j, w.Type.Out(j), m.Type.Out(j))
			}
		}
	}
}

// The wrapper passes calls through and times them only while tracing.
func TestTracedSFDTimesOnlyWhileOn(t *testing.T) {
	clk := clock.NewSim(0)
	tr := newTracer(clk, 16)
	d := tr.factory(func(string) detector.Detector { return core.New(core.DefaultConfig()) })("a/b").(*tracedSFD)
	d.Observe(0, 0, 0)
	if _, n := tr.coreObs.total(); n != 0 {
		t.Fatalf("timed %d calls while off", n)
	}
	tr.on.Store(true)
	clk.Advance(time1s)
	d.Observe(1, clock.Time(time1s), clock.Time(time1s))
	d.FreshnessPoint()
	if _, n := tr.coreObs.total(); n != 1 || tr.freshN.Load() != 1 {
		t.Fatalf("observe timed %d, freshness timed %d; want 1, 1", n, tr.freshN.Load())
	}
	if d.FreshnessPoint() != d.SFD.FreshnessPoint() {
		t.Fatal("wrapper changed the freshness point")
	}
	if tr.newCalls.Load() != 1 {
		t.Fatalf("factory calls %d", tr.newCalls.Load())
	}
}

const time1s = clock.Second

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{kind: spIngest, start: 0, end: 100, parent: -1},
		{kind: spWait, start: 0, end: 60, parent: 0},
		{kind: spObserve, start: 70, end: 120, parent: 0}, // runs past its parent: clipped to 30
		{kind: spCore, start: 75, end: 95, parent: 2},
	}
	rows := map[string]layerRow{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	check := func(name string, mean, self float64) {
		t.Helper()
		r := rows[name]
		if r.Count != 1 || r.MeanUS*1e3 != mean || r.SelfUS*1e3 != self {
			t.Errorf("%s: n=%d mean=%vns self=%vns, want mean %v self %v", name, r.Count, r.MeanUS*1e3, r.SelfUS*1e3, mean, self)
		}
	}
	check("ingest", 100, 10)
	check("transport.wait", 60, 60)
	check("registry.observe", 50, 30)
	check("core.observe", 20, 20)
	if rows["registry.observe"].ShareOf != "ingest" {
		t.Errorf("observe's parent is %q", rows["registry.observe"].ShareOf)
	}
}

func TestIngestSplit(t *testing.T) {
	spans := []span{
		{kind: spIngest, start: 0, end: 100, parent: -1},
		{kind: spWait, start: 0, end: 60, parent: 0},
		{kind: spObserve, start: 61, end: 100, parent: 0},
		{kind: spCore, start: 70, end: 80, parent: 2}, // not part of the split
		{kind: spIngest, start: 200, end: 250, parent: -1},
		{kind: spWait, start: 200, end: 240, parent: 4},
		{kind: spObserve, start: 240, end: 250, parent: 4},
	}
	ing, parts, n := ingestSplit(spans)
	if ing != 150 || parts != 149 || n != 2 {
		t.Fatalf("ingest %d, parts %d, n %d", ing, parts, n)
	}
}

func TestSpanIDs(t *testing.T) {
	for _, c := range []struct {
		s    span
		want string
	}{
		{span{kind: spObserve, stream: "dc/s-00001", a: 2, b: 17}, "dc/s-00001#2.17"},
		{span{kind: spWatch, stream: "dc/s-00001", a: 2, label: "suspect"}, "dc/s-00001#2:suspect"},
		{span{kind: spTick, a: 9}, "registry.tick#9"},
	} {
		if got := c.s.id(); got != c.want {
			t.Errorf("id %q, want %q", got, c.want)
		}
	}
}
