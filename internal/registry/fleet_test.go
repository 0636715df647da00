package registry

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
)

// simSender is a minimal deterministic heartbeat source: a chain of
// clock.Sim callbacks sending one datagram per interval to the monitor
// node, with an optional permanent crash and an optional pause window
// (heartbeats withheld but the process alive — a wrongful-suspicion
// generator).
type simSender struct {
	node     *netsim.Node
	clk      *clock.Sim
	to       string
	interval clock.Duration
	seq      uint64

	crashAt            clock.Time // 0 = never
	pauseFrom, pauseTo clock.Time // zero window = never
}

func (s *simSender) beat(now clock.Time) {
	if s.crashAt > 0 && !now.Before(s.crashAt) {
		return // crashed: the chain ends, like a dead process
	}
	paused := s.pauseTo > s.pauseFrom && !now.Before(s.pauseFrom) && now.Before(s.pauseTo)
	if !paused {
		msg := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: s.seq, Time: now}
		s.seq++
		_ = s.node.Send(s.to, msg.Marshal())
	}
	s.clk.AfterFunc(s.interval, s.beat)
}

// TestFleet10kStreamsDeterministic drives ten thousand heartbeat
// streams through a single Registry over netsim links on clock.Sim —
// the ISSUE's fleet-scale acceptance scenario. 100 senders crash, 100
// pause long enough to be wrongly suspected, the rest stay healthy. The
// test asserts exactly the right transition events come out of the bus,
// in order, with plausible latencies, and that crashed streams are
// evicted so the registry stays bounded.
func TestFleet10kStreamsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-stream fleet simulation skipped in -short mode")
	}
	const (
		n        = 10_000
		crashN   = 100
		pauseN   = 100
		interval = clock.Second
		step     = 50 * clock.Millisecond
		runFor   = 20 * clock.Second
		crashAt  = clock.Time(8 * clock.Second)
		pauseOn  = clock.Time(10 * clock.Second)
		pauseOff = clock.Time(13 * clock.Second)
	)
	sim := clock.NewSim(0)
	net := netsim.New(sim, netsim.LinkParams{DelayBase: 5 * clock.Millisecond}, 1)
	mon := net.AddNode("monitor", 1<<16)

	reg := New(sim, func(string) detector.Detector {
		// A fixed timeout makes every transition instant analytically
		// predictable (windowed estimators would be skewed by the pause
		// gap and oscillate while their window flushes). The 500 ms
		// margin over the interval dwarfs the 50 ms pump step, so
		// healthy streams can never be wrongly suspected by drain lag.
		return detector.NewFixed(interval+500*clock.Millisecond, 1)
	}, Options{
		Shards:       64,
		WheelTick:    10 * clock.Millisecond,
		OfflineAfter: 3 * clock.Second,
		EvictAfter:   2 * clock.Second,
	})
	reg.Start()
	defer reg.Stop()
	sub := reg.Subscribe(1 << 14)

	crashed := make(map[string]bool, crashN)
	pausing := make(map[string]bool, pauseN)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("srv-%04d", i)
		s := &simSender{
			node:     net.AddNode(name, 8),
			clk:      sim,
			to:       "monitor",
			interval: interval,
		}
		switch {
		case i < crashN:
			s.crashAt = crashAt
			crashed[name] = true
		case i < crashN+pauseN:
			s.pauseFrom, s.pauseTo = pauseOn, pauseOff
			pausing[name] = true
		}
		// Phase-offset the fleet so load spreads across every tick.
		phase := clock.Duration(int64(interval) * int64(i) / n)
		sim.AfterFunc(phase, s.beat)
	}

	pump := func() {
		for {
			in, ok := mon.TryRecv()
			if !ok {
				return
			}
			msg, err := heartbeat.Unmarshal(in.Payload)
			if err != nil || msg.Kind != heartbeat.KindHeartbeat {
				continue
			}
			reg.Observe(heartbeat.Arrival{From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: in.At})
		}
	}
	for elapsed := clock.Duration(0); elapsed < runFor; elapsed += step {
		sim.Advance(step)
		pump()
	}

	// Collect every event per peer, asserting global order per peer.
	type history struct {
		types []EventType
		at    []clock.Time
	}
	events := make(map[string]*history)
	for {
		var ev Event
		select {
		case ev = <-sub.C():
		default:
			ev = Event{}
		}
		if ev.Type == 0 {
			break
		}
		h := events[ev.Peer]
		if h == nil {
			h = &history{}
			events[ev.Peer] = h
		}
		h.types = append(h.types, ev.Type)
		h.at = append(h.at, ev.At)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscriber dropped %d events — buffer sized wrong for the scenario", d)
	}

	wantCrash := []EventType{EventSuspect, EventOffline, EventEvicted}
	wantPause := []EventType{EventSuspect, EventTrust}
	for peer, h := range events {
		switch {
		case crashed[peer]:
			if !typesEqual(h.types, wantCrash) {
				t.Fatalf("crashed %s: events %v, want %v", peer, h.types, wantCrash)
			}
			// Suspicion must begin after the crash, within interval +
			// margin + delivery/step/tick slack.
			lat := h.at[0].Sub(crashAt)
			if lat <= 0 || lat > interval+700*clock.Millisecond {
				t.Fatalf("crashed %s: suspect latency %v out of range", peer, lat)
			}
		case pausing[peer]:
			if !typesEqual(h.types, wantPause) {
				t.Fatalf("paused %s: events %v, want %v", peer, h.types, wantPause)
			}
			if h.at[1].Before(clock.Time(pauseOff)) {
				t.Fatalf("paused %s: trusted again at %v, before the pause ended", peer, h.at[1])
			}
		default:
			t.Fatalf("healthy %s emitted events %v — wrongful transitions", peer, h.types)
		}
	}
	for peer := range crashed {
		if events[peer] == nil {
			t.Fatalf("crashed %s produced no events", peer)
		}
	}
	for peer := range pausing {
		if events[peer] == nil {
			t.Fatalf("paused %s produced no events", peer)
		}
	}

	// Eviction keeps the registry bounded: only live streams remain.
	if got, want := reg.Len(), n-crashN; got != want {
		t.Fatalf("registry holds %d streams, want %d after eviction", got, want)
	}
	now := sim.Now()
	for _, peer := range []string{"srv-0150", "srv-5000", "srv-9999"} {
		st, ok := reg.StatusOf(peer, now)
		if !ok || st != StatusActive {
			t.Fatalf("%s status = %v (ok=%v), want active", peer, st, ok)
		}
	}
	// Every paused stream recorded exactly one QoS mistake.
	for peer := range pausing {
		st, ok := reg.Stats(peer)
		if !ok || st.Mistakes != 1 {
			t.Fatalf("%s stats = %+v (ok=%v), want exactly one mistake", peer, st, ok)
		}
	}

	c := reg.Counters()
	if c.Suspects != crashN+pauseN || c.Trusts != pauseN ||
		c.Offlines != crashN || c.Evictions != crashN {
		t.Fatalf("counters = %+v", c)
	}
	if c.Heartbeats == 0 || c.Stale != 0 {
		t.Fatalf("ingest counters = %+v", c)
	}
	// FNV striping across 64 shards must have no pathological stripe.
	for i, occ := range reg.ShardOccupancy() {
		if occ == 0 {
			t.Fatalf("shard %d empty at 10k streams", i)
		}
	}
}

func typesEqual(a, b []EventType) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
