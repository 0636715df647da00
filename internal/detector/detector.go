// Package detector implements the adaptive failure detectors the paper
// evaluates SFD against (§III): Chen FD, Bertier FD, and the φ accrual
// FD, plus a naive fixed-timeout baseline. All of them consume heartbeat
// arrivals and expose a *freshness point* — the absolute instant at which
// the monitor starts suspecting the sender if no further heartbeat
// arrives (Fig. 2 of the paper).
//
// The SFD itself lives in internal/core; it composes the Chen-style
// arrival estimator from this package with a feedback-tuned safety
// margin.
package detector

import (
	"math/bits"

	"repro/internal/clock"
)

// DefaultWindowSize is the sliding-window size used throughout the
// paper's experiments ("All the experiments for the four FDs use the same
// fixed window size (WS = 1,000)").
const DefaultWindowSize = 1000

// Detector is a heartbeat-based failure detector. Implementations are
// not safe for concurrent use; wrap them (as internal/cluster does) when
// sharing across goroutines.
type Detector interface {
	// Observe records the arrival of heartbeat seq, stamped send on the
	// sender's clock and recv on the monitor's clock. Sequence numbers
	// may skip (lost heartbeats) but must be presented in increasing
	// order; stale duplicates must be dropped by the caller.
	Observe(seq uint64, send, recv clock.Time)
	// FreshnessPoint returns the absolute time τ until which the sender
	// is trusted based on the arrivals observed so far. Before any
	// arrival it returns 0.
	FreshnessPoint() clock.Time
	// Suspect reports whether the sender is suspected at instant now.
	Suspect(now clock.Time) bool
	// Ready reports whether the warm-up period is over (the paper only
	// measures "after the sliding window is full").
	Ready() bool
	// Name identifies the scheme (for tables and curve labels).
	Name() string
	// Reset returns the detector to its initial state.
	Reset()
}

// Accrual is a detector that additionally outputs a suspicion level on a
// continuous scale (the paper's footnote 3: "an FD service outputs a
// suspicion level on a continuous scale rather than information of a
// boolean nature").
type Accrual interface {
	Detector
	// SuspicionLevel returns the current suspicion value at instant now;
	// larger means more suspicious. The φ FD returns φ, SFD returns a
	// margin-normalized overshoot.
	SuspicionLevel(now clock.Time) float64
}

// ArrivalEstimator is Chen's windowed expected-arrival-time estimator
// (Eq. 2): EA_{k+1} = (1/n)·Σ_{i∈W}(A_i − Δt·i) + (k+1)·Δt, where W holds
// the most recent n received heartbeats (i = sequence number, A_i =
// arrival time). When the configured sending interval Δt is zero, the
// estimator follows §IV-C of the paper and uses the average inter-arrival
// time observed in the window.
//
// The window costs one uint64 word per sample. The oldest and newest
// samples are kept whole; every other sample is stored as its delta from
// the sample before it, packed as a 16-bit sequence step under a 48-bit
// signed arrival delta in ns (steps below 65,535, gaps within ±39 h). A
// sample whose delta does not fit stores the escape word and its full
// value goes on a FIFO side slice, which evictions pop from the front, so
// it never holds more than the window size. Eviction rebuilds the new
// oldest sample from the old one plus the next word, so Σ A_i and Σ i are
// maintained exactly. The sums are 128-bit and cannot wrap: at WS = 1000
// an int64 Σ A_i overflows once arrivals pass ≈ 106 days of monitor
// uptime.
type ArrivalEstimator struct {
	interval clock.Duration // configured Δt; 0 ⇒ estimate from window
	buf      []uint64       // delta words; buf[head] is the oldest's slot, unused
	head     int
	n        int
	esc      []ArrivalSample // escaped samples, oldest at escHead
	escHead  int
	oldest   ArrivalSample
	newest   ArrivalSample
	sumRecv  int128 // Σ A_i (ns)
	sumSeq   int128 // Σ i
}

const (
	stepBits = 16
	// escape is the word stored for a sample that lives on the escape
	// FIFO. No delta word equals it: their steps stop one short of it.
	escape = 1<<stepBits - 1
)

// MakeArrivalEstimator returns an estimator over a window of ws received
// heartbeats, by value so that detectors can embed it. interval is the
// known sending interval Δt, or 0 to estimate it from the window. The
// sample buffer is allocated at full capacity up front.
func MakeArrivalEstimator(ws int, interval clock.Duration) ArrivalEstimator {
	if ws <= 0 {
		ws = DefaultWindowSize
	}
	return ArrivalEstimator{interval: interval, buf: make([]uint64, ws)}
}

// Observe records an arrival.
func (e *ArrivalEstimator) Observe(seq uint64, recv clock.Time) {
	s := ArrivalSample{Seq: seq, Recv: recv}
	if e.n == len(e.buf) {
		// Evict the oldest: the next word turns into the new oldest, and
		// the freed slot is the one the new sample's word lands in.
		e.sumRecv = e.sumRecv.sub(i128(int64(e.oldest.Recv)))
		e.sumSeq = e.sumSeq.sub(int128{lo: e.oldest.Seq})
		e.n--
		if e.n > 0 {
			e.head = e.wrap(e.head + 1)
			e.oldest = e.unpack(e.oldest, e.buf[e.head])
		}
	}
	if e.n == 0 {
		e.oldest = s
	} else {
		w := pack(e.newest, s)
		if w == escape {
			e.pushEscape(s)
		}
		e.buf[e.wrap(e.head+e.n)] = w
	}
	e.n++
	e.newest = s
	e.sumRecv = e.sumRecv.add(i128(int64(recv)))
	e.sumSeq = e.sumSeq.add(int128{lo: seq})
}

func (e *ArrivalEstimator) wrap(i int) int {
	if i >= len(e.buf) {
		i -= len(e.buf)
	}
	return i
}

// pack encodes s as its delta from prev, or returns escape when the
// delta does not fit one word. The arithmetic wraps mod 2^64 both ways,
// so any delta that fits decodes exactly.
func pack(prev, s ArrivalSample) uint64 {
	step := s.Seq - prev.Seq
	d := int64(s.Recv - prev.Recv)
	if step >= escape || d<<stepBits>>stepBits != d {
		return escape
	}
	return uint64(d)<<stepBits | step
}

func decode(prev ArrivalSample, w uint64) ArrivalSample {
	return ArrivalSample{Seq: prev.Seq + w&escape, Recv: prev.Recv + clock.Time(int64(w)>>stepBits)}
}

// unpack decodes the sample after prev from word w, popping the escape
// FIFO for escaped words: evictions meet escaped samples in the order
// they were pushed.
func (e *ArrivalEstimator) unpack(prev ArrivalSample, w uint64) ArrivalSample {
	if w != escape {
		return decode(prev, w)
	}
	s := e.esc[e.escHead]
	e.escHead++
	if e.escHead == len(e.esc) {
		e.esc, e.escHead = e.esc[:0], 0
	}
	return s
}

// pushEscape appends s to the escape FIFO. It holds at most one entry per
// non-oldest sample, so its capacity is kept within the window size.
func (e *ArrivalEstimator) pushEscape(s ArrivalSample) {
	if len(e.esc) == cap(e.esc) {
		live := e.esc[e.escHead:]
		if e.escHead == 0 {
			e.esc = make([]ArrivalSample, 0, min(max(2*len(live), 4), len(e.buf)))
		}
		e.esc, e.escHead = e.esc[:copy(e.esc[:len(live)], live)], 0
	}
	e.esc = append(e.esc, s)
}

// Interval returns the Δt in effect: the configured one, or the window
// estimate (mean arrival spacing per sequence step, which remains correct
// across loss gaps because it divides by sequence distance, not count).
func (e *ArrivalEstimator) Interval() clock.Duration {
	if e.interval > 0 {
		return e.interval
	}
	if e.n < 2 {
		return 0
	}
	seqSpan := e.newest.Seq - e.oldest.Seq
	if seqSpan == 0 {
		return 0
	}
	return e.newest.Recv.Sub(e.oldest.Recv) / clock.Duration(seqSpan)
}

// Expected returns EA_{k+1}: the estimated arrival time of the next
// heartbeat (sequence lastSeq+1). ok is false until at least one arrival
// (and, with estimated Δt, two) has been observed.
func (e *ArrivalEstimator) Expected() (clock.Time, bool) {
	if e.n == 0 {
		return 0, false
	}
	dt := e.Interval()
	if dt <= 0 {
		return 0, false
	}
	n := float64(e.n)
	sumRecv, okRecv := e.sumRecv.int64()
	sumSeq, okSeq := e.sumSeq.int64()
	if okRecv && okSeq {
		// (1/n)·Σ(A_i − Δt·i) + (k+1)·Δt
		meanShift := float64(sumRecv)/n - float64(dt)*float64(sumSeq)/n
		ea := meanShift + float64(dt)*float64(e.newest.Seq+1)
		return clock.Time(ea), true
	}
	// Sums past int64: the same formula anchored at the newest sample,
	// A_k + Δt + (1/n)·Σ((A_i − A_k) − Δt·(i − k)). The anchored sums are
	// window-sized, so float64 keeps them to the nanosecond for any
	// realistic window.
	nn := uint64(e.n)
	dRecv := e.sumRecv.sub(i128(int64(e.newest.Recv)).mul(nn))
	dSeq := e.sumSeq.sub(int128{lo: e.newest.Seq}.mul(nn))
	corr := dRecv.float()/n - float64(dt)*dSeq.float()/n
	return e.newest.Recv.Add(dt + clock.Duration(corr)), true
}

// Last returns the sequence number and arrival time of the most recent
// heartbeat.
func (e *ArrivalEstimator) Last() (seq uint64, recv clock.Time, ok bool) {
	return e.newest.Seq, e.newest.Recv, e.n > 0
}

// ArrivalSample is one (sequence, arrival) pair of the estimation window
// in exportable form — the unit of detector state persistence.
type ArrivalSample struct {
	Seq  uint64
	Recv clock.Time
}

// Export copies the estimation window, oldest first, appending to dst
// (which may be nil). Together with Import it lets a warm-restarting
// monitor carry a stream's learned arrival distribution across process
// lives instead of re-entering warmup.
func (e *ArrivalEstimator) Export(dst []ArrivalSample) []ArrivalSample {
	if e.n == 0 {
		return dst
	}
	s, esc := e.oldest, e.escHead
	dst = append(dst, s)
	for i := 1; i < e.n; i++ {
		if w := e.buf[e.wrap(e.head+i)]; w == escape {
			s = e.esc[esc]
			esc++
		} else {
			s = decode(s, w)
		}
		dst = append(dst, s)
	}
	return dst
}

// Import resets the estimator and replays the samples (which must be in
// strictly increasing sequence order) through Observe, rebuilding the
// running sums. Samples beyond the window capacity keep only the newest
// Cap() entries, matching what a live estimator would hold.
func (e *ArrivalEstimator) Import(samples []ArrivalSample) {
	e.Reset()
	if n := len(samples) - e.Cap(); n > 0 {
		samples = samples[n:]
	}
	for _, s := range samples {
		e.Observe(s.Seq, s.Recv)
	}
}

// Cap returns the window size.
func (e *ArrivalEstimator) Cap() int { return len(e.buf) }

// Full reports whether the estimation window is full.
func (e *ArrivalEstimator) Full() bool { return e.n == len(e.buf) }

// Len returns the number of arrivals currently in the window.
func (e *ArrivalEstimator) Len() int { return e.n }

// Reset clears all state, keeping the sample buffer.
func (e *ArrivalEstimator) Reset() {
	e.head, e.n = 0, 0
	e.esc, e.escHead = e.esc[:0], 0
	e.oldest, e.newest = ArrivalSample{}, ArrivalSample{}
	e.sumRecv, e.sumSeq = int128{}, int128{}
}

// int128 is a two's-complement 128-bit integer, wide enough that the
// window sums carry instead of wrapping.
type int128 struct {
	hi int64
	lo uint64
}

func i128(x int64) int128 { return int128{hi: x >> 63, lo: uint64(x)} }

func (a int128) add(b int128) int128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	return int128{hi: a.hi + b.hi + int64(c), lo: lo}
}

func (a int128) sub(b int128) int128 {
	lo, c := bits.Sub64(a.lo, b.lo, 0)
	return int128{hi: a.hi - b.hi - int64(c), lo: lo}
}

// mul returns a·m, exact while the product fits in 128 bits.
func (a int128) mul(m uint64) int128 {
	hi, lo := bits.Mul64(a.lo, m)
	return int128{hi: a.hi*int64(m) + int64(hi), lo: lo}
}

// int64 returns a and whether it fits in an int64.
func (a int128) int64() (int64, bool) {
	return int64(a.lo), a.hi == int64(a.lo)>>63
}

// float returns a rounded to float64.
func (a int128) float() float64 {
	if v, ok := a.int64(); ok {
		return float64(v)
	}
	neg := a.hi < 0
	if neg {
		a = int128{}.sub(a)
	}
	f := float64(uint64(a.hi))*0x1p64 + float64(a.lo)
	if neg {
		f = -f
	}
	return f
}
