package core

import (
	"testing"

	"repro/internal/clock"
)

// Edge-condition tests for SFD beyond the main behavioural suite.

func TestSFDHistoryCapHonored(t *testing.T) {
	s := New(Config{
		WindowSize: 10, Interval: 100 * msC, InitialMargin: 50 * msC,
		SlotHeartbeats: 20, HistoryCap: 5,
		Targets: Targets{MaxTD: clock.Second, MaxMR: 10, MinQAP: 0.5},
	})
	feedSFD(s, 5000, 100*msC, 2*msC, 0, 41)
	if len(s.History()) > 5 {
		t.Fatalf("history grew past cap: %d", len(s.History()))
	}
}

func TestSFDZeroMarginSuspicionLevel(t *testing.T) {
	// A zero margin makes the accrual denominator degenerate; the level
	// must stay finite and still cross 1 after the freshness point.
	s := New(Config{WindowSize: 10, Interval: 100 * msC, InitialMargin: 0,
		MinMargin: 0, SlotHeartbeats: 1 << 30})
	last := feedSFD(s, 30, 100*msC, 0, 0, 42)
	fp := s.FreshnessPoint()
	lvl := s.SuspicionLevel(fp + clock.Time(10*msC))
	if lvl <= 0 || lvl != lvl /* NaN check */ {
		t.Fatalf("degenerate level = %v", lvl)
	}
	_ = last
}

func TestSFDGapFillWithoutIntervalKnowledge(t *testing.T) {
	// Interval = 0 and only one arrival before a gap: fillGap must not
	// panic or fabricate samples without an interval estimate.
	s := New(Config{WindowSize: 10, FillGaps: true, SlotHeartbeats: 1 << 30})
	s.Observe(0, 0, clock.Time(5*msC))
	s.Observe(10, clock.Time(clock.Second), clock.Time(clock.Second).Add(5*msC))
	if s.est.Len() > 2 {
		t.Fatalf("fabricated %d samples without an interval", s.est.Len())
	}
}

func TestSFDSlotSpanningLoss(t *testing.T) {
	// A slot that contains only losses (no arrivals) must not divide by
	// zero or emit a bogus adjustment when the next arrival finally
	// lands.
	s := New(Config{WindowSize: 10, Interval: 100 * msC, InitialMargin: 50 * msC,
		SlotHeartbeats: 5, Targets: Targets{MaxTD: clock.Second, MaxMR: 10, MinQAP: 0.1}})
	var send clock.Time
	for i := 0; i < 20; i++ {
		s.Observe(uint64(i), send, send.Add(3*msC))
		send = send.Add(100 * msC)
	}
	// 50 lost heartbeats (sequence jump), then arrivals resume.
	send = send.Add(50 * 100 * msC)
	for i := 70; i < 90; i++ {
		s.Observe(uint64(i), send, send.Add(3*msC))
		send = send.Add(100 * msC)
	}
	if s.FreshnessPoint() == 0 {
		t.Fatal("detector lost its freshness point across the outage")
	}
	if s.Margin() < 0 || s.Margin() > s.Config().MaxMargin {
		t.Fatalf("margin out of clamp after outage: %v", s.Margin())
	}
}

func TestDecideBoundaryExactness(t *testing.T) {
	// Measured exactly equal to targets on all three axes is satisfied
	// (the paper defines violation as QoS > Q̄oS).
	tg := Targets{MaxTD: 100 * msC, MaxMR: 0.5, MinQAP: 0.99}
	if v := Decide(QoS{TD: 100 * msC, MR: 0.5, QAP: 0.99}, tg); v != VerdictStable {
		t.Fatalf("boundary verdict = %v", v)
	}
}

func TestSelfTunerInfeasibleHalts(t *testing.T) {
	st := NewSelfTuner(newFixedForTest(), TunerOptions{
		SlotHeartbeats: 50, HaltOnInfeasible: true,
		Targets: Targets{MaxTD: clock.Duration(1), MaxMR: 1e-12, MinQAP: 0.999999999},
	})
	var send clock.Time
	for i := 0; i < 10000; i++ {
		// Jittery enough to violate accuracy, slow enough to violate TD.
		recv := send.Add(clock.Duration(i%7) * 20 * msC)
		if recv <= send {
			recv = send + 1
		}
		st.Observe(uint64(i), send, recv)
		send = send.Add(100 * msC)
	}
	if st.State() != StateInfeasible {
		t.Fatalf("state = %v, want infeasible", st.State())
	}
}

func newFixedForTest() *fixedShim { return &fixedShim{timeout: clock.Second} }

// fixedShim is a minimal local Tunable target so the SelfTuner test does
// not depend on detector internals.
type fixedShim struct {
	timeout clock.Duration
	last    clock.Time
	n       int
}

func (f *fixedShim) Observe(seq uint64, send, recv clock.Time) { f.last = recv; f.n++ }
func (f *fixedShim) FreshnessPoint() clock.Time {
	if f.n == 0 {
		return 0
	}
	return f.last.Add(f.timeout)
}
func (f *fixedShim) Suspect(now clock.Time) bool { return f.n > 0 && now.After(f.FreshnessPoint()) }
func (f *fixedShim) Ready() bool                 { return f.n >= 2 }
func (f *fixedShim) Name() string                { return "shim" }
func (f *fixedShim) Reset()                      { *f = fixedShim{timeout: f.timeout} }

// Tunable implementation.
func (f *fixedShim) TuningParam() clock.Duration     { return f.timeout }
func (f *fixedShim) SetTuningParam(d clock.Duration) { f.timeout = d }

var sinkSFD *SFD

// TestSFDAllocs pins the per-stream allocation count: the estimator and
// the gap-average EWMA are embedded by value, so a paper-default detector
// is its header plus one preallocated sample buffer, and Reset reuses
// both.
func TestSFDAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sinkSFD = New(DefaultConfig()) }); n > 2 {
		t.Fatalf("New(DefaultConfig()) = %v allocs, want <= 2", n)
	}
	s := New(DefaultConfig())
	feedSFD(s, 50, 100*msC, 2*msC, 0, 7)
	if n := testing.AllocsPerRun(100, s.Reset); n != 0 {
		t.Fatalf("Reset = %v allocs, want 0", n)
	}
}

// TestSFDFreshnessAfterLongUptime runs the detector on a clock.Real-style
// time base 110 days after process start, where an int64 sum of a full
// window's arrivals no longer fits: the freshness point must still lie
// one interval plus the margin after the last arrival.
func TestSFDFreshnessAfterLongUptime(t *testing.T) {
	s := New(Config{Interval: clock.Second, SlotHeartbeats: 1 << 30})
	base := clock.Time(110 * 24 * 3600 * clock.Second)
	var recv clock.Time
	for i := 0; i < 1500; i++ {
		recv = base.Add(clock.Duration(i) * clock.Second)
		s.Observe(uint64(i), recv, recv)
	}
	if want := recv.Add(clock.Second + s.Margin()); s.FreshnessPoint() != want {
		t.Fatalf("freshness point %d, want %d (last arrival %d)", s.FreshnessPoint(), want, recv)
	}
}
