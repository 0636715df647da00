package detector

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

const msD = clock.Millisecond

// feedRegular feeds n perfectly periodic heartbeats (interval iv, delay d)
// and returns the last recv time.
func feedRegular(d Detector, n int, iv, delay clock.Duration) clock.Time {
	var last clock.Time
	for i := 0; i < n; i++ {
		send := clock.Time(i) * clock.Time(iv)
		recv := send.Add(delay)
		d.Observe(uint64(i), send, recv)
		last = recv
	}
	return last
}

func TestArrivalEstimatorRegular(t *testing.T) {
	e := MakeArrivalEstimator(10, 100*msD)
	for i := 0; i < 5; i++ {
		e.Observe(uint64(i), clock.Time(i)*clock.Time(100*msD))
	}
	ea, ok := e.Expected()
	if !ok {
		t.Fatal("Expected not ready")
	}
	want := clock.Time(5 * 100 * int64(msD))
	if ea != want {
		t.Fatalf("EA = %v, want %v", ea, want)
	}
}

func TestArrivalEstimatorEstimatedInterval(t *testing.T) {
	e := MakeArrivalEstimator(10, 0)
	if _, ok := e.Expected(); ok {
		t.Fatal("Expected ready with no data")
	}
	e.Observe(0, 0)
	if _, ok := e.Expected(); ok {
		t.Fatal("Expected ready with single arrival and unknown interval")
	}
	for i := 1; i < 6; i++ {
		e.Observe(uint64(i), clock.Time(i)*clock.Time(80*msD))
	}
	if got := e.Interval(); got != 80*msD {
		t.Fatalf("Interval = %v, want 80ms", got)
	}
	ea, ok := e.Expected()
	if !ok || ea != clock.Time(6*80*int64(msD)) {
		t.Fatalf("EA = %v (ok=%v), want 480ms", ea, ok)
	}
}

func TestArrivalEstimatorLossGap(t *testing.T) {
	// Sequence 0,1,2,5,6 — gap of 2 lost heartbeats. With interval
	// estimated per sequence step, Interval stays ≈ the true Δt.
	e := MakeArrivalEstimator(10, 0)
	for _, seq := range []uint64{0, 1, 2, 5, 6} {
		e.Observe(seq, clock.Time(seq)*clock.Time(50*msD))
	}
	if got := e.Interval(); got != 50*msD {
		t.Fatalf("Interval across gap = %v, want 50ms", got)
	}
	ea, _ := e.Expected()
	if ea != clock.Time(7*50*int64(msD)) {
		t.Fatalf("EA = %v, want 350ms", ea)
	}
}

func TestArrivalEstimatorEviction(t *testing.T) {
	e := MakeArrivalEstimator(3, 10*msD)
	for i := 0; i < 20; i++ {
		e.Observe(uint64(i), clock.Time(i)*clock.Time(10*msD))
	}
	if e.Len() != 3 || !e.Full() {
		t.Fatalf("window not bounded: len=%d", e.Len())
	}
	ea, _ := e.Expected()
	if ea != clock.Time(20*10*int64(msD)) {
		t.Fatalf("EA after eviction = %v, want 200ms", ea)
	}
}

func TestArrivalEstimatorConstantOffsetDelay(t *testing.T) {
	// Constant network delay shifts EA by exactly that delay.
	e := MakeArrivalEstimator(10, 100*msD)
	const delay = 35 * msD
	for i := int64(0); i < 8; i++ {
		e.Observe(uint64(i), clock.Time(i*100*int64(msD)+int64(delay)))
	}
	ea, _ := e.Expected()
	want := clock.Time(8*100*int64(msD) + int64(delay))
	if ea != want {
		t.Fatalf("EA = %v, want %v", ea, want)
	}
}

func TestArrivalEstimatorReset(t *testing.T) {
	e := MakeArrivalEstimator(4, 10*msD)
	e.Observe(0, 5)
	e.Reset()
	if _, _, ok := e.Last(); ok {
		t.Fatal("Last ok after Reset")
	}
	if _, ok := e.Expected(); ok {
		t.Fatal("Expected ok after Reset")
	}
}

func TestChenFreshnessPoint(t *testing.T) {
	c := NewChen(10, 100*msD, 40*msD)
	feedRegular(c, 5, 100*msD, 0)
	want := clock.Time(5*100*int64(msD) + 40*int64(msD))
	if c.FreshnessPoint() != want {
		t.Fatalf("FP = %v, want %v", c.FreshnessPoint(), want)
	}
	if c.Suspect(want - 1) {
		t.Fatal("suspected before FP")
	}
	if !c.Suspect(want + 1) {
		t.Fatal("not suspected after FP")
	}
}

func TestChenNegativeAlphaClamped(t *testing.T) {
	c := NewChen(10, 100*msD, -5*msD)
	if c.Alpha() != 0 {
		t.Fatal("negative alpha not clamped")
	}
}

func TestChenReadyAfterWindowFull(t *testing.T) {
	c := NewChen(4, 100*msD, 0)
	feedRegular(c, 3, 100*msD, 0)
	if c.Ready() {
		t.Fatal("Ready before window full")
	}
	feedRegular(c, 5, 100*msD, 0)
	if !c.Ready() {
		t.Fatal("not Ready after window full")
	}
}

func TestChenMonotoneInAlphaProperty(t *testing.T) {
	// Property: for the same arrivals, a larger α never yields an earlier
	// freshness point — the monotonicity Fig. 5/6 of the paper relies on.
	f := func(seed int64, aRaw, bRaw uint16) bool {
		a := clock.Duration(aRaw) * msD / 10
		b := clock.Duration(bRaw) * msD / 10
		if a > b {
			a, b = b, a
		}
		ca := NewChen(50, 0, a)
		cb := NewChen(50, 0, b)
		rng := rand.New(rand.NewSource(seed))
		var send clock.Time
		for i := 0; i < 200; i++ {
			send = send.Add(90*msD + clock.Duration(rng.Intn(int(20*msD))))
			recv := send.Add(clock.Duration(rng.Intn(int(30 * msD))))
			ca.Observe(uint64(i), send, recv)
			cb.Observe(uint64(i), send, recv)
		}
		return !cb.FreshnessPoint().Before(ca.FreshnessPoint())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChenReset(t *testing.T) {
	c := NewChen(10, 100*msD, 10*msD)
	feedRegular(c, 5, 100*msD, 0)
	c.Reset()
	if c.FreshnessPoint() != 0 || c.Suspect(clock.Time(clock.Second)) {
		t.Fatal("Reset incomplete")
	}
}

func TestBertierAdaptsMargin(t *testing.T) {
	b := NewBertier(100, 100*msD, DefaultBertierParams())
	// Perfectly regular arrivals: margin stays near zero.
	feedRegular(b, 50, 100*msD, 0)
	calm := b.Margin()
	// Jittery arrivals: margin must grow.
	rng := rand.New(rand.NewSource(3))
	var send clock.Time = clock.Time(50 * 100 * int64(msD))
	for i := 50; i < 150; i++ {
		recv := send.Add(clock.Duration(rng.Intn(int(40 * msD))))
		b.Observe(uint64(i), send, recv)
		send = send.Add(100 * msD)
	}
	if b.Margin() <= calm {
		t.Fatalf("margin did not grow under jitter: calm=%v now=%v", calm, b.Margin())
	}
}

func TestBertierFreshnessAfterLastArrival(t *testing.T) {
	b := NewBertier(50, 100*msD, DefaultBertierParams())
	last := feedRegular(b, 30, 100*msD, 5*msD)
	if !b.FreshnessPoint().After(last) {
		t.Fatalf("FP %v not after last arrival %v", b.FreshnessPoint(), last)
	}
}

func TestBertierDefaultParams(t *testing.T) {
	b := NewBertier(10, 0, BertierParams{})
	if b.params != DefaultBertierParams() {
		t.Fatal("zero params did not default")
	}
	if DefaultBertierParams() != (BertierParams{Beta: 1, Phi: 4, Gamma: 0.1}) {
		t.Fatal("paper defaults wrong")
	}
}

func TestBertierReset(t *testing.T) {
	b := NewBertier(10, 100*msD, DefaultBertierParams())
	feedRegular(b, 20, 100*msD, 3*msD)
	b.Reset()
	if b.FreshnessPoint() != 0 || b.Margin() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestPhiSuspicionGrowsOverTime(t *testing.T) {
	p := NewPhi(100, 8, 0)
	last := feedRegular(p, 50, 100*msD, 0)
	prev := -1.0
	for dt := clock.Duration(0); dt < 2*clock.Second; dt += 50 * msD {
		lvl := p.SuspicionLevel(last.Add(dt))
		if lvl < prev {
			t.Fatalf("φ decreased over time at +%v", dt)
		}
		prev = lvl
	}
	if prev <= 8 {
		t.Fatalf("φ after 2s silence = %v, want > threshold 8", prev)
	}
}

func TestPhiThresholdCrossingMatchesFreshnessPoint(t *testing.T) {
	p := NewPhi(100, 4, 0)
	feedRegular(p, 60, 100*msD, 2*msD)
	fp := p.FreshnessPoint()
	if p.Suspect(fp - clock.Time(msD)) {
		t.Fatal("suspected just before FP")
	}
	if !p.Suspect(fp + clock.Time(5*msD)) {
		t.Fatal("not suspected just after FP")
	}
}

func TestPhiHigherThresholdLaterFPProperty(t *testing.T) {
	f := func(seed int64, t1Raw, t2Raw uint8) bool {
		t1 := 0.5 + float64(t1Raw)/255*15.5
		t2 := 0.5 + float64(t2Raw)/255*15.5
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		p1 := NewPhi(50, t1, 0)
		p2 := NewPhi(50, t2, 0)
		rng := rand.New(rand.NewSource(seed))
		var send clock.Time
		for i := 0; i < 100; i++ {
			send = send.Add(90*msD + clock.Duration(rng.Intn(int(20*msD))))
			recv := send.Add(clock.Duration(rng.Intn(int(10 * msD))))
			p1.Observe(uint64(i), send, recv)
			p2.Observe(uint64(i), send, recv)
		}
		return !p2.FreshnessPoint().Before(p1.FreshnessPoint())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPhiWarmupSafety(t *testing.T) {
	p := NewPhi(10, 2, 0)
	if p.Suspect(clock.Time(clock.Second)) {
		t.Fatal("suspect with no data")
	}
	if p.FreshnessPoint() != 0 {
		t.Fatal("FP nonzero with no data")
	}
	p.Observe(0, 0, 0)
	if p.Suspect(clock.Time(clock.Second)) {
		t.Fatal("suspect with a single arrival")
	}
	if p.SuspicionLevel(clock.Time(clock.Second)) != 0 {
		t.Fatal("suspicion level nonzero before distribution is fitted")
	}
}

func TestPhiDefaults(t *testing.T) {
	p := NewPhi(0, 0, 0)
	if p.ia.Cap() != DefaultWindowSize {
		t.Fatal("default window size not applied")
	}
	if p.Threshold() != 1 {
		t.Fatal("default threshold not applied")
	}
}

func TestPhiZeroVarianceFloor(t *testing.T) {
	// Perfectly regular arrivals give zero sample variance; the sigma
	// floor must keep the FP finite and past the last arrival.
	p := NewPhi(20, 8, clock.Millisecond)
	last := feedRegular(p, 30, 100*msD, 0)
	fp := p.FreshnessPoint()
	if !fp.After(last) {
		t.Fatalf("FP %v not after last arrival %v", fp, last)
	}
	if fp.Sub(last) > 2*clock.Second {
		t.Fatalf("FP %v absurdly far with σ floor", fp.Sub(last))
	}
}

func TestPhiReset(t *testing.T) {
	p := NewPhi(10, 2, 0)
	feedRegular(p, 20, 100*msD, 0)
	p.Reset()
	if p.FreshnessPoint() != 0 || p.Ready() {
		t.Fatal("Reset incomplete")
	}
}

func TestFixedDetector(t *testing.T) {
	f := NewFixed(500*msD, 3)
	if f.FreshnessPoint() != 0 || f.Suspect(clock.Time(clock.Second)) {
		t.Fatal("fresh Fixed should not suspect")
	}
	last := feedRegular(f, 2, 100*msD, 0)
	if f.Ready() {
		t.Fatal("Ready before warmup")
	}
	f.Observe(2, last, last.Add(100*msD))
	if !f.Ready() {
		t.Fatal("not Ready after warmup")
	}
	fp := f.FreshnessPoint()
	if fp != last.Add(100*msD).Add(500*msD) {
		t.Fatalf("FP = %v", fp)
	}
	if !f.Suspect(fp + 1) {
		t.Fatal("not suspected after timeout")
	}
	f.Reset()
	if f.Ready() || f.FreshnessPoint() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestFixedDefaultTimeout(t *testing.T) {
	f := NewFixed(0, 0)
	if f.timeout != clock.Second {
		t.Fatal("default timeout not applied")
	}
}

func TestNames(t *testing.T) {
	for _, d := range []Detector{
		NewChen(10, 0, msD),
		NewBertier(10, 0, DefaultBertierParams()),
		NewPhi(10, 2, 0),
		NewFixed(msD, 0),
	} {
		if d.Name() == "" {
			t.Fatalf("%T has empty name", d)
		}
	}
}

func BenchmarkChenObserve(b *testing.B) {
	c := NewChen(1000, 100*msD, 10*msD)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := clock.Time(i) * clock.Time(100*msD)
		c.Observe(uint64(i), t, t)
	}
}

func BenchmarkBertierObserve(b *testing.B) {
	d := NewBertier(1000, 100*msD, DefaultBertierParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := clock.Time(i) * clock.Time(100*msD)
		d.Observe(uint64(i), t, t)
	}
}

func BenchmarkPhiObserve(b *testing.B) {
	p := NewPhi(1000, 8, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := clock.Time(i) * clock.Time(100*msD)
		p.Observe(uint64(i), t, t)
	}
}

func BenchmarkPhiSuspicionLevel(b *testing.B) {
	p := NewPhi(1000, 8, 0)
	last := feedRegular(p, 1000, 100*msD, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SuspicionLevel(last.Add(150 * msD))
	}
}
