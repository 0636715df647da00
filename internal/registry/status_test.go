package registry

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusUnknown, StatusActive, StatusBusy, StatusSuspected, StatusOffline, Status(42)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

// TestStatusBusyBandWithAccrual: SFD's accrual level consumes the margin
// gradually, so between BusyLevel and SuspectLevel a trusted stream
// reports busy — on StatusOf and in Snapshot alike — and crossing
// SuspectLevel reports suspected before the wheel has fired.
func TestStatusBusyBandWithAccrual(t *testing.T) {
	factory := func(string) detector.Detector {
		return core.New(core.Config{WindowSize: 20, Interval: 100 * ms, InitialMargin: 200 * ms})
	}
	r := New(clock.NewSim(0), factory, Options{BusyLevel: 0.5, SuspectLevel: 1.0})
	var last clock.Time
	for i := 0; i < 40; i++ {
		send := clock.Time(i) * clock.Time(100*ms)
		last = send.Add(2 * ms)
		r.Observe(heartbeat.Arrival{From: "srv", Seq: uint64(i), Send: send, Recv: last})
	}
	for _, c := range []struct {
		after clock.Duration
		want  Status
	}{
		{50 * ms, StatusActive},     // next beat not yet due
		{220 * ms, StatusBusy},      // interval + 60% of the margin: level ≈ 0.6
		{400 * ms, StatusSuspected}, // past the freshness point
	} {
		at := last.Add(c.after)
		st, ok := r.StatusOf("srv", at)
		snap := r.Snapshot(at)
		if !ok || st != c.want || len(snap) != 1 || snap[0].Status != c.want {
			t.Fatalf("at +%v: StatusOf = %v (ok=%v), snapshot %+v; want %v", c.after, st, ok, snap, c.want)
		}
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := New(clock.NewSim(0), chenFactory(100*ms, 50*ms), Options{})
	for _, p := range []string{"zeta", "alpha", "mid"} {
		if err := r.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot(0)
	if len(snap) != 3 || snap[0].Peer != "alpha" || snap[2].Peer != "zeta" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	for _, rep := range snap {
		if rep.Status != StatusUnknown || rep.Detector == "" {
			t.Fatalf("fresh peer report wrong: %+v", rep)
		}
	}
}

func TestScoreboardFormatting(t *testing.T) {
	if FormatSnapshot(nil) != "(no peers)\n" {
		t.Fatal("empty snapshot format wrong")
	}
	reports := []Report{
		{Peer: "a", Status: StatusActive, Detector: "SFD"},
		{Peer: "b", Status: StatusSuspected, SuspicionLevel: 3.2, Detector: "SFD"},
		{Peer: "c", Status: StatusOffline, SuspicionLevel: 42, Detector: "SFD"},
	}
	board := FormatSnapshot(reports)
	for _, want := range []string{"a", "b", "c", "suspected", "offline", "detector"} {
		if !strings.Contains(board, want) {
			t.Fatalf("board missing %q:\n%s", want, board)
		}
	}
	counts, attention := Summarize(reports)
	if counts[StatusActive] != 1 || counts[StatusSuspected] != 1 || counts[StatusOffline] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if len(attention) != 2 || attention[0] != "b" || attention[1] != "c" {
		t.Fatalf("attention = %v", attention)
	}
	sum := FormatSummary(reports)
	if !strings.Contains(sum, "active=1") || !strings.Contains(sum, "investigate: b c") {
		t.Fatalf("summary = %q", sum)
	}
}
