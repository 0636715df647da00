package load

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

// startTestMonitor boots a receiver+registry pair on a real loopback
// socket with a wide-margin Chen detector (no false suspicion during
// short tests) and returns the UDP address plus an event drain.
func startTestMonitor(t *testing.T, clk clock.Clock) (*registry.Registry, string, func() []registry.Event, func()) {
	t.Helper()
	udp, err := transport.ListenUDPOpts("127.0.0.1:0", transport.UDPOptions{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(clk, func(string) detector.Detector {
		return detector.NewChen(16, 50*clock.Millisecond, 300*clock.Millisecond)
	}, registry.Options{
		WheelTick:    10 * clock.Millisecond,
		OfflineAfter: 2 * clock.Second,
		EvictAfter:   -1,
		MaxSilence:   5 * clock.Second,
	})
	reg.Start()
	recv := heartbeat.NewReceiver(udp, clk, reg.Observe)
	recv.Start()
	sub := reg.Subscribe(1024)
	var mu sync.Mutex
	var events []registry.Event
	go func() {
		for ev := range sub.C() {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	}()
	drain := func() []registry.Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]registry.Event(nil), events...)
	}
	stop := func() {
		udp.Close()
		recv.Wait()
		sub.Close()
		reg.Stop()
	}
	return reg, udp.Addr(), drain, stop
}

func waitCond(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFleetHeartbeatsOverUDP: a small fleet's named streams all register
// on a real monitor, and Kill stops exactly the victim.
func TestFleetHeartbeatsOverUDP(t *testing.T) {
	clk := clock.NewReal()
	reg, addr, _, stop := startTestMonitor(t, clk)
	defer stop()

	f, err := NewFleet(FleetOptions{
		Prefix:  "t",
		Count:   20,
		Targets: []string{addr},
		Pacer:   Pacer{Interval: 50 * time.Millisecond},
		Sockets: 4,
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	waitCond(t, "20 streams", 3*time.Second, func() bool { return reg.Len() == 20 })
	if f.Alive() != 20 {
		t.Fatalf("alive = %d", f.Alive())
	}
	killAt := f.Kill(3)
	if killAt == 0 {
		t.Fatal("kill returned zero instant")
	}
	if f.Alive() != 19 {
		t.Fatalf("alive after kill = %d", f.Alive())
	}
	name := f.Name(3)
	reg.MarkFailure(name, killAt)
	waitCond(t, "victim detected", 3*time.Second, func() bool {
		return reg.DetectionLatency().Samples == 1
	})
	d := reg.DetectionLatency()
	// Chen margin 300 ms on a 50 ms cadence: detection lands well under
	// a second but can't beat the margin.
	if d.Mean <= 0.05 || d.Mean > 1.5 {
		t.Fatalf("detection latency %.3fs out of plausible range", d.Mean)
	}

	// Restart: the victim resumes under a bumped incarnation.
	f.Restart(3)
	waitCond(t, "victim trusted again", 3*time.Second, func() bool {
		st, ok := reg.StatusOf(name, clk.Now())
		return ok && st == registry.StatusActive
	})
}

// TestFleetRebindKeepsTrust is the NAT-rebind regression (the wire-v3
// point): a mid-run rebind — new source socket, bumped incarnation,
// sequence reset — must NOT produce any suspect/offline transition for
// the stream, because the monitor keys it by logical name and the
// incarnation bump supersedes the old sequence numbering.
func TestFleetRebindKeepsTrust(t *testing.T) {
	clk := clock.NewReal()
	_, addr, drain, stop := startTestMonitor(t, clk)
	defer stop()

	f, err := NewFleet(FleetOptions{
		Prefix:  "nat",
		Count:   8,
		Targets: []string{addr},
		Pacer:   Pacer{Interval: 40 * time.Millisecond},
		Sockets: 4,
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	// Settle, then rebind every sender twice while heartbeats flow.
	time.Sleep(400 * time.Millisecond)
	for round := 0; round < 2; round++ {
		for i := 0; i < f.Count(); i++ {
			if at := f.Rebind(i); at == 0 {
				t.Fatalf("rebind %d/%d returned zero instant", round, i)
			}
		}
		time.Sleep(300 * time.Millisecond)
	}

	for _, ev := range drain() {
		if ev.Type == registry.EventSuspect || ev.Type == registry.EventOffline {
			t.Fatalf("rebind caused spurious transition: %v", ev)
		}
	}
}

// TestFleetSeqResetWithoutIncBumpIsStale is the control for the rebind
// test: a sequence reset WITHOUT an incarnation bump is exactly what the
// stale filter must reject, proving the rebind path works because of
// the inc bump and not because the filter is lax.
func TestFleetSeqResetWithoutIncBumpIsStale(t *testing.T) {
	clk := clock.NewReal()
	reg, addr, _, stop := startTestMonitor(t, clk)
	defer stop()

	udp, err := transport.ListenUDPOpts("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	emit := func(seq, inc uint64) {
		m := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Time: clk.Now(), Inc: inc, Name: "ctrl/a"}
		if err := udp.Send(addr, m.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		emit(i+10, 1)
		time.Sleep(10 * time.Millisecond)
	}
	waitCond(t, "stream registered", 2*time.Second, func() bool { return reg.Len() == 1 })
	before := reg.Counters().Heartbeats
	emit(0, 1) // seq reset, same incarnation: must be dropped as stale
	time.Sleep(100 * time.Millisecond)
	if got := reg.Counters().Heartbeats; got != before {
		t.Fatalf("stale seq-reset accepted: heartbeats %d → %d", before, got)
	}
	emit(0, 2) // same reset WITH the inc bump: accepted
	waitCond(t, "inc-bumped reset accepted", 2*time.Second, func() bool {
		return reg.Counters().Heartbeats == before+1
	})
}
