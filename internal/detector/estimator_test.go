package detector

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/window"
)

// refEstimator is the 16-byte-per-sample estimator the delta-encoded
// window replaced: a ring of {seq, recv} pairs with int64 running sums.
// It is the differential reference for ArrivalEstimator.
type refEstimator struct {
	interval clock.Duration
	win      *window.Ring[ArrivalSample]
	sumRecv  int64
	sumSeq   int64
	lastSeq  uint64
	lastRecv clock.Time
	have     bool
}

func newRefEstimator(ws int, interval clock.Duration) *refEstimator {
	if ws <= 0 {
		ws = DefaultWindowSize
	}
	return &refEstimator{interval: interval, win: window.NewRing[ArrivalSample](ws)}
}

func (e *refEstimator) Observe(seq uint64, recv clock.Time) {
	old, evicted := e.win.Push(ArrivalSample{Seq: seq, Recv: recv})
	if evicted {
		e.sumRecv -= int64(old.Recv)
		e.sumSeq -= int64(old.Seq)
	}
	e.sumRecv += int64(recv)
	e.sumSeq += int64(seq)
	e.lastSeq, e.lastRecv, e.have = seq, recv, true
}

func (e *refEstimator) Interval() clock.Duration {
	if e.interval > 0 {
		return e.interval
	}
	n := e.win.Len()
	if n < 2 {
		return 0
	}
	oldest, _ := e.win.Oldest()
	newest, _ := e.win.Newest()
	seqSpan := newest.Seq - oldest.Seq
	if seqSpan == 0 {
		return 0
	}
	return newest.Recv.Sub(oldest.Recv) / clock.Duration(seqSpan)
}

func (e *refEstimator) Expected() (clock.Time, bool) {
	n := e.win.Len()
	if !e.have || n == 0 {
		return 0, false
	}
	dt := e.Interval()
	if dt <= 0 {
		return 0, false
	}
	meanShift := float64(e.sumRecv)/float64(n) - float64(dt)*float64(e.sumSeq)/float64(n)
	ea := meanShift + float64(dt)*float64(e.lastSeq+1)
	return clock.Time(ea), true
}

func (e *refEstimator) Import(samples []ArrivalSample) {
	e.Reset()
	if n := len(samples) - e.win.Cap(); n > 0 {
		samples = samples[n:]
	}
	for _, s := range samples {
		e.Observe(s.Seq, s.Recv)
	}
}

func (e *refEstimator) Reset() {
	e.win.Reset()
	e.sumRecv, e.sumSeq = 0, 0
	e.lastSeq, e.lastRecv, e.have = 0, 0, false
}

// exactExpected is EA_{k+1} over the window in exact rational arithmetic,
// with whether the window's sums fit in int64, and the conditioning of
// the float64 evaluation: the window's arrival span plus Δt times its
// sequence span.
func exactExpected(win []ArrivalSample, dt clock.Duration) (ea *big.Rat, fits bool, spread *big.Int) {
	sumRecv, sumSeq := new(big.Int), new(big.Int)
	minR, maxR := int64(win[0].Recv), int64(win[0].Recv)
	minS, maxS := win[0].Seq, win[0].Seq
	for _, s := range win {
		sumRecv.Add(sumRecv, big.NewInt(int64(s.Recv)))
		sumSeq.Add(sumSeq, new(big.Int).SetUint64(s.Seq))
		minR, maxR = min(minR, int64(s.Recv)), max(maxR, int64(s.Recv))
		minS, maxS = min(minS, s.Seq), max(maxS, s.Seq)
	}
	fits = sumRecv.IsInt64() && sumSeq.IsInt64()
	n := big.NewInt(int64(len(win)))
	bdt := big.NewInt(int64(dt))
	// (ΣA − Δt·Σi)/n + Δt·(k+1)
	num := new(big.Int).Sub(sumRecv, new(big.Int).Mul(bdt, sumSeq))
	ea = new(big.Rat).SetFrac(num, n)
	next := new(big.Int).Add(new(big.Int).SetUint64(win[len(win)-1].Seq), big.NewInt(1))
	ea.Add(ea, new(big.Rat).SetInt(next.Mul(next, bdt)))
	spread = new(big.Int).Sub(big.NewInt(maxR), big.NewInt(minR))
	seqSpan := new(big.Int).SetUint64(maxS - minS)
	spread.Add(spread, seqSpan.Mul(seqSpan, bdt))
	return ea, fits, spread
}

// checkAgainstRef asserts that e and ref hold the same window and give the
// same answers: identical Len/Full/Last/Interval/Export, and an Expected
// that is bit-identical while the sums fit in int64 and within 1 µs of
// the exact value beyond that, wherever float64 can resolve 1 µs.
func checkAgainstRef(t *testing.T, e *ArrivalEstimator, ref *refEstimator) {
	t.Helper()
	if e.Len() != ref.win.Len() || e.Full() != ref.win.Full() {
		t.Fatalf("Len/Full = %d/%v, reference %d/%v", e.Len(), e.Full(), ref.win.Len(), ref.win.Full())
	}
	if seq, recv, ok := e.Last(); seq != ref.lastSeq || recv != ref.lastRecv || ok != ref.have {
		t.Fatalf("Last = (%d, %d, %v), reference (%d, %d, %v)", seq, recv, ok, ref.lastSeq, ref.lastRecv, ref.have)
	}
	dt := e.Interval()
	if want := ref.Interval(); dt != want {
		t.Fatalf("Interval = %d, reference %d", dt, want)
	}
	win := e.Export(nil)
	if want := ref.win.Snapshot(); !slices.Equal(win, want) {
		t.Fatalf("Export = %v, reference %v", win, want)
	}
	got, ok := e.Expected()
	want, wantOK := ref.Expected()
	if ok != wantOK {
		t.Fatalf("Expected ok = %v, reference %v", ok, wantOK)
	}
	if !ok {
		return
	}
	exact, fits, spread := exactExpected(win, dt)
	if fits {
		if got != want {
			t.Fatalf("Expected = %d, reference %d (sums fit in int64)", got, want)
		}
		return
	}
	// Past 2^60 ns of spread the float64 terms themselves are coarser
	// than 1 µs, and an answer outside int64 has no clock.Time.
	limit := new(big.Rat).SetInt64(1 << 62)
	if spread.BitLen() > 60 || new(big.Rat).Abs(exact).Cmp(limit) > 0 {
		return
	}
	diff := new(big.Rat).Sub(new(big.Rat).SetInt64(int64(got)), exact)
	if diff.Abs(diff).Cmp(new(big.Rat).SetInt64(int64(clock.Microsecond))) > 0 {
		f, _ := exact.Float64()
		t.Fatalf("Expected = %d, exact %.0f (sums past int64)", got, f)
	}
}

// fuzzReader hands out fuzz input bytes, zeros once exhausted.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) u16() uint16 { return uint16(r.byte()) | uint16(r.byte())<<8 }

func (r *fuzzReader) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// FuzzArrivalEstimator drives the delta-encoded estimator and the 16-byte
// reference with the same operations. The first byte picks the window
// size (1–64), the second the interval (odd: configured, in ms; even:
// estimated). Each following op byte selects, by its low three bits:
//
//	0–2  a regular arrival: seq step 1–4, recv gap −28…+227 ms
//	3    a seq step of 65,534 + u16 (around the escape boundary)
//	4    an equal or decreasing seq
//	5    a recv gap of ±(2^47 − 2 + u16) ns (around the ±39 h boundary)
//	6    recv jumps to a random value in ±2^62 ns; bit 3 also draws seq
//	7    bit 3: Reset; else Import of Cap()+0…7 generated samples
func FuzzArrivalEstimator(f *testing.F) {
	f.Add([]byte{10, 0, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1})
	f.Add([]byte{4, 101, 3, 0xfe, 0xff, 3, 0xff, 0xff, 0, 4, 1, 0x0d, 0xff, 0xff, 0x15, 0, 0})
	f.Add([]byte{3, 0, 0x0e, 1, 2, 3, 4, 5, 6, 7, 0x40, 0, 0, 0x0e, 9, 8, 7, 6, 5, 4, 3, 0x3f, 0, 0})
	f.Add([]byte{2, 7, 0x07, 0x05, 0x0f, 0, 1, 0x07, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		ws := 1 + int(r.byte()%64)
		var dt clock.Duration
		if b := r.byte(); b%2 == 1 {
			dt = clock.Duration(b) * clock.Millisecond
		}
		e := MakeArrivalEstimator(ws, dt)
		ref := newRefEstimator(ws, dt)
		var seq uint64
		var recv clock.Time
		regular := func(op byte) {
			seq += 1 + uint64(op>>3&3)
			recv += clock.Time(int64(int8(r.byte()))+100) * clock.Time(clock.Millisecond)
		}
		for ops := 0; len(r) > 0 && ops < 4096; ops++ {
			op := r.byte()
			switch op & 7 {
			case 0, 1, 2:
				regular(op)
			case 3:
				seq += escape - 1 + uint64(r.u16())
				recv += clock.Time(clock.Second)
			case 4:
				seq -= uint64(op >> 3 & 3)
				recv += clock.Time(clock.Millisecond)
			case 5:
				gap := clock.Time(1<<47 - 2 + int64(r.u16()))
				if op&8 != 0 {
					gap = -gap
				}
				recv += gap
			case 6:
				recv = clock.Time(int64(r.u64()) >> 1)
				if op&8 != 0 {
					seq = r.u64()
				}
			case 7:
				if op&8 != 0 {
					e.Reset()
					ref.Reset()
				} else {
					samples := make([]ArrivalSample, e.Cap()+int(op>>4&7))
					for i := range samples {
						regular(op)
						samples[i] = ArrivalSample{Seq: seq, Recv: recv}
					}
					e.Import(samples)
					ref.Import(samples)
				}
				checkAgainstRef(t, &e, ref)
				continue
			}
			e.Observe(seq, recv)
			ref.Observe(seq, recv)
			checkAgainstRef(t, &e, ref)
			if live := len(e.esc) - e.escHead; live >= e.Cap() || cap(e.esc) > e.Cap() {
				t.Fatalf("escape FIFO holds %d live / %d cap entries for window %d", live, cap(e.esc), e.Cap())
			}
		}
	})
}

// TestArrivalEstimatorMatchesReference replays jittery, lossy streams at
// the paper's window sizes through both estimators: in the regime every
// experiment runs in, Expected must be bit-identical to the 16-byte
// implementation.
func TestArrivalEstimatorMatchesReference(t *testing.T) {
	for _, ws := range []int{1, 2, 100, DefaultWindowSize} {
		for _, dt := range []clock.Duration{0, 100 * msD} {
			rng := rand.New(rand.NewSource(int64(ws)))
			e := MakeArrivalEstimator(ws, dt)
			ref := newRefEstimator(ws, dt)
			var seq uint64
			for i := 0; i < 3*ws+500; i++ {
				seq += 1 + uint64(rng.Intn(3)/2) // ≈1/3 lost
				recv := clock.Time(seq)*clock.Time(100*msD) + clock.Time(rng.Int63n(int64(20*msD)))
				e.Observe(seq, recv)
				ref.Observe(seq, recv)
				if i%97 == 0 || i > 3*ws+490 {
					checkAgainstRef(t, &e, ref)
				}
			}
		}
	}
}

// TestArrivalEstimatorLongUptime is the Σ A_i overflow: clock.Real counts
// ns since process start, and at WS = 1000 an int64 sum of arrivals
// wraps once they pass ≈ 106 days. The int64-summing estimator put EA at
// −8.94e15 ns here — every freshness point in the past.
func TestArrivalEstimatorLongUptime(t *testing.T) {
	base := clock.Time(110 * 24 * time.Hour)
	for _, dt := range []clock.Duration{0, clock.Second} {
		e := MakeArrivalEstimator(DefaultWindowSize, dt)
		for i := 0; i < DefaultWindowSize; i++ {
			e.Observe(uint64(i), base.Add(clock.Duration(i)*clock.Second))
		}
		got, ok := e.Expected()
		if want := base.Add(DefaultWindowSize * clock.Second); !ok || got != want {
			t.Fatalf("dt=%v: Expected = %d (ok=%v), want %d", dt, got, ok, want)
		}
	}
}

// TestArrivalEstimatorEscapeBound feeds a stream in which no delta fits a
// word: every non-oldest sample is escaped, and the side FIFO must stay
// within the window size while the window stays exact.
func TestArrivalEstimatorEscapeBound(t *testing.T) {
	for _, ws := range []int{1, 2, 7, DefaultWindowSize} {
		e := MakeArrivalEstimator(ws, 0)
		ref := newRefEstimator(ws, 0)
		for i := 0; i < 3*ws+10; i++ {
			seq := uint64(i) << 20              // seq step 2^20
			recv := clock.Time(i) * (1<<48 + 7) // gap past ±39 h
			e.Observe(seq, recv)
			ref.Observe(seq, recv)
			if len(e.esc) > ws || cap(e.esc) > ws {
				t.Fatalf("ws=%d after %d arrivals: escape FIFO len %d cap %d", ws, i+1, len(e.esc), cap(e.esc))
			}
			if live := len(e.esc) - e.escHead; live != e.Len()-1 {
				t.Fatalf("ws=%d: %d live escapes for %d samples", ws, live, e.Len())
			}
		}
		checkAgainstRef(t, &e, ref)
	}
}
