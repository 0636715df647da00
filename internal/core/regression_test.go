package core

// Regression tests for the tuning-loop bugs fixed alongside the metrics
// layer (ISSUE 3): fillGap synthesizing arrivals later than the real
// arrival of the triggering heartbeat, and slotEvaluator charging a
// boundary-crossing mistake's full duration to one slot.

import (
	"testing"

	"repro/internal/clock"
)

// feedRegular drives s with heartbeats 0..n-1 at interval dt and a fixed
// 1 ms delivery delay, returning the last (send, recv).
func feedRegular(s *SFD, n int, dt clock.Duration) (send, recv clock.Time) {
	for i := 0; i < n; i++ {
		send = clock.Time(i) * clock.Time(dt)
		recv = send.Add(msC)
		s.Observe(uint64(i), send, recv)
	}
	return send, recv
}

// TestFillGapClampsToRealArrival reproduces the overshoot directly: after
// a long loss burst the compounded synthetic delay d_j = Δt·n_ag + d_{j−1}
// plus the per-position send offset exceeds the real arrival time of the
// heartbeat that ended the burst. Every synthetic sample handed to the
// estimator must be clamped to that real arrival — the estimator's
// contract is non-decreasing arrivals, and a "future" sample distorts
// EA_{k+1} for a full window length.
func TestFillGapClampsToRealArrival(t *testing.T) {
	dt := 100 * msC
	s := New(Config{WindowSize: 16, Interval: dt, FillGaps: true, MaxGapFill: 8})
	feedRegular(s, 10, dt) // seqs 0..9, last arrival 901 ms

	// Burst: seqs 10..24 lost, seq 25 arrives. Replicate Observe's gap
	// handling by hand so the estimator can be inspected between the
	// synthetic fills and the real observation.
	const seq = 25
	send := clock.Time(seq) * clock.Time(dt)
	recv := send.Add(msC)
	gap := int(seq - s.lastSeq - 1)
	s.gapAvg.Add(float64(gap))
	s.fillGap(seq, gap, recv)

	if lastSeq, lastArr, ok := s.est.Last(); !ok || lastArr.After(recv) {
		t.Fatalf("synthetic arrival for seq %d at %v is later than the real arrival %v of seq %d",
			lastSeq, lastArr, recv, seq)
	}
}

// TestFillGapExpectedArrivalBounded is the end-to-end form: with the
// clamp in place, the post-burst expected arrival stays near the real
// schedule; with pre-fix future samples in the window it drifts several
// intervals late (measured: EA = recv+437ms pre-fix vs recv+250ms fixed
// for this exact scenario).
func TestFillGapExpectedArrivalBounded(t *testing.T) {
	dt := 100 * msC
	s := New(Config{WindowSize: 16, Interval: dt, FillGaps: true, MaxGapFill: 8})
	feedRegular(s, 10, dt)

	send := clock.Time(25) * clock.Time(dt)
	recv := send.Add(msC)
	s.Observe(25, send, recv)

	ea, ok := s.est.Expected()
	if !ok {
		t.Fatal("estimator has no expected arrival after the burst")
	}
	if limit := recv.Add(3 * dt); ea.After(limit) {
		t.Fatalf("EA after loss burst = %v, want ≤ %v (recv %v + 3Δt): future-dated synthetic samples inflated the estimate", ea, limit, recv)
	}
}

// TestSlotMistakeSplitAtBoundary: a suspicion that began in the previous
// slot must only charge this slot for the portion after the boundary.
// Pre-fix the full duration landed here, so mistakeDur could exceed the
// slot span and floor QAP at 0.
func TestSlotMistakeSplitAtBoundary(t *testing.T) {
	sec := clock.Time(clock.Second)
	var s slotEvaluator
	s.begin(10 * sec)
	s.addTD(200 * msC)
	// Suspicion began at t=2s (8 s before this slot opened); the
	// disproving heartbeat arrived at t=11s — 9 s of mistake, only 1 s of
	// which belongs to this slot.
	s.addMistake(2*sec, 11*sec)
	q, ok := s.measure(12 * sec) // span 2 s
	if !ok {
		t.Fatal("slot did not measure")
	}
	if s.mistakeDur != 1*clock.Second {
		t.Fatalf("mistakeDur = %v, want 1s (split at the slot boundary)", s.mistakeDur)
	}
	if want := 0.5; q.QAP != want {
		t.Fatalf("QAP = %v, want %v — boundary-crossing mistake over-charged the slot", q.QAP, want)
	}
}

// TestSlotMistakeWithinSlotUnchanged: the split must not alter mistakes
// fully contained in the slot.
func TestSlotMistakeWithinSlotUnchanged(t *testing.T) {
	sec := clock.Time(clock.Second)
	var s slotEvaluator
	s.begin(10 * sec)
	s.addTD(200 * msC)
	s.addMistake(10*sec+clock.Time(500*msC), 11*sec)
	if s.mistakeDur != 500*msC {
		t.Fatalf("mistakeDur = %v, want 500ms", s.mistakeDur)
	}
}

// TestSlotQAPNeverNegative: even if accounting ever overruns the span,
// measure clamps mistake time to the span (QAP ≥ 0) instead of going
// negative.
func TestSlotQAPNeverNegative(t *testing.T) {
	sec := clock.Time(clock.Second)
	var s slotEvaluator
	s.begin(10 * sec)
	s.addTD(100 * msC)
	s.addMistake(10*sec, 11*sec)
	s.addMistake(10*sec, 11*sec) // overlapping mistakes can still overrun
	q, ok := s.measure(11 * sec)
	if !ok {
		t.Fatal("slot did not measure")
	}
	if q.QAP < 0 || q.QAP > 1 {
		t.Fatalf("QAP = %v out of [0,1]", q.QAP)
	}
}

// TestLastAdjustmentPastHistoryCap: the adjustment log stops growing at
// HistoryCap, but LastAdjustment feeds the per-stream QoS gauges and the
// federation digest, so it must keep reporting the newest slot. With a
// cap of 3 and 10-heartbeat slots, 300 heartbeats evaluate far more
// than 3 slots; the report must match an uncapped twin's.
func TestLastAdjustmentPastHistoryCap(t *testing.T) {
	cfg := Config{
		WindowSize: 10, Interval: 100 * msC, SlotHeartbeats: 10, HistoryCap: 3,
		Targets: Targets{MaxTD: clock.Second, MaxMR: 1, MinQAP: 0.9},
	}
	capped := New(cfg)
	cfg.HistoryCap = 0
	twin := New(cfg)
	feedRegular(capped, 300, 100*msC)
	feedRegular(twin, 300, 100*msC)

	want, ok := twin.LastAdjustment()
	if !ok || want.Slot <= 3 {
		t.Fatalf("uncapped twin's last slot = %d (ok=%v); the probe needs more than 3 slots", want.Slot, ok)
	}
	got, ok := capped.LastAdjustment()
	if !ok || got != want {
		t.Fatalf("LastAdjustment = %+v (ok=%v), want the newest slot %+v", got, ok, want)
	}
	if n := len(capped.History()); n != 3 {
		t.Fatalf("history grew to %d entries past its cap of 3", n)
	}
}
