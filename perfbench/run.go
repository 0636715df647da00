package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/federate"
	"repro/internal/load"
	"repro/internal/registry"
	"repro/internal/transport"
)

// setupRounds is how many times a run builds and admits the monitor;
// setup_s is their median and the last one is kept and measured. A
// small fleet sets up in milliseconds, so it gets more rounds: about
// 200,000 admissions in all, between 5 and 41 rounds.
func setupRounds(streams int) int {
	return max(5, min(41, 200000/streams))
}

// result is one run's outcome.
type result struct {
	metrics   []metric
	failures  []string
	attempted uint64
	failed    uint64
	env       environment
	diag      string     // counters that explain a bad run
	rows      []layerRow // traced runs: self-time table
	dumpPath  string
}

func (res *result) fail(format string, args ...any) {
	res.failures = append(res.failures, fmt.Sprintf(format, args...))
}

// runner holds one run's moving parts.
type runner struct {
	w      workload
	seed   int64
	window time.Duration
	traced bool
	outDir string

	clk    *clock.Real
	tr     *tracer   // traced runs only
	detect *recorder // Fleet.Kill → suspect line decoded

	mu       sync.Mutex
	killedAt map[string]clock.Time
	// unmatched describes suspect lines no kill explains, for the
	// spurious-transition gate's message.
	unmatched  []string
	t0         clock.Time // the measured window's start
	fleetStart clock.Time // when the senders started
	sampler    *sampler

	tracker *load.Tracker
	fleets  []*load.Fleet
	ctls    []*chaos.Controller
	names   []string
	mon     *monitor
	agg     *federate.Aggregator
	aggUDP  *transport.UDP
	aggDone chan struct{}
	digests atomic.Uint64 // digest bytes the leaf sent
	taps    []*load.WatchTap
	busSub  *registry.Subscription
	busDone chan struct{}

	filterPrefix   string
	firehoseMatch  atomic.Uint64 // firehose events the filtered tap should also see
	filteredEvents atomic.Uint64
	filteredAlien  atomic.Uint64 // filtered-tap events outside its filter
}

func newRunner(w workload, seed int64, window time.Duration, traced bool, outDir string) *runner {
	clk := clock.NewReal()
	r := &runner{
		w: w, seed: seed, window: window, traced: traced, outDir: outDir,
		clk:      clk,
		detect:   newRecorder(1 << 16),
		killedAt: make(map[string]clock.Time),
		tracker:  load.NewTracker(),
	}
	if traced {
		rate := 0.0
		for _, c := range w.cohorts {
			rate += float64(c.count) / c.interval.Seconds()
		}
		// Tracing is on for about half the window.
		r.tr = newTracer(clk, int(rate*(window.Seconds()/2+2)*1.25)+1024)
	}
	if w.filteredTap != "" {
		r.filterPrefix = strings.TrimSuffix(w.filteredTap, "#")
	}
	return r
}

// monitorOpts wires the traced run's hooks into the monitor; an untraced
// monitor gets none.
func (r *runner) monitorOpts() monitorOpts {
	o := monitorOpts{clk: r.clk, factory: r.w.factory()}
	if r.traced {
		o.factory = r.tr.factory(o.factory)
		o.wrap = r.tr.handler
		o.tick = r.tr.timeTick
	}
	if r.w.federate {
		o.fed = &leafOpts{agg: r.aggUDP.Addr(), interval: time.Second, sentBytes: &r.digests}
		for _, c := range r.w.cohorts {
			o.fed.cohorts = append(o.fed.cohorts, c.name+"/#")
		}
		if r.traced {
			o.fed.rollup = func(l *federate.Leaf, now clock.Time) { r.tr.timeRollup(l, now, &r.digests) }
		}
	}
	return o
}

// startAggregator runs the in-process federation aggregator the leaf
// rolls up to.
func (r *runner) startAggregator() error {
	u, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("aggregator udp: %w", err)
	}
	r.aggUDP = u
	r.agg = federate.NewAggregator(u, r.clk, federate.AggregatorOptions{ID: "agg-0", Region: "bench", DigestInterval: time.Second})
	r.agg.Start()
	r.aggDone = make(chan struct{})
	go func() {
		defer close(r.aggDone)
		transport.Pump(u, func(in transport.Inbound) { r.agg.HandleDatagram(in.From, in.Payload) })
	}()
	return nil
}

func (r *runner) stopAggregator() {
	r.agg.Stop()
	_ = r.aggUDP.Close()
	<-r.aggDone
}

// buildFleets creates one scheduler per cohort aimed at the monitor
// (not started).
func (r *runner) buildFleets() error {
	for ci, c := range r.w.cohorts {
		var ctl *chaos.Controller
		if len(c.chaos) > 0 {
			ctl = chaos.NewController(r.clk, r.seed*31+int64(ci)+1)
			ctl.SetLogCap(0)
		}
		f, err := load.NewFleet(load.FleetOptions{
			Prefix:  c.name,
			Count:   c.count,
			Targets: []string{r.mon.udp.Addr()},
			Pacer:   load.Pacer{Interval: c.interval, Jitter: c.jitter, Ramp: c.interval},
			Sockets: 2,
			Seed:    r.seed*101 + int64(ci) + 1,
			Clock:   r.clk,
			Chaos:   ctl,
		})
		if err != nil {
			return err
		}
		r.fleets = append(r.fleets, f)
		r.ctls = append(r.ctls, ctl)
		if want := r.names[r.offset(ci)]; f.Name(0) != want {
			return fmt.Errorf("load.Fleet names its streams %q, the benchmark %q", f.Name(0), want)
		}
	}
	return nil
}

// offset is the index of cohort i's first stream in r.names.
func (r *runner) offset(i int) int {
	n := 0
	for _, c := range r.w.cohorts[:i] {
		n += c.count
	}
	return n
}

// setup builds and admits the monitor setupRounds times, returning each
// round's construction + admission wall time and the heap (after a
// forced GC) of the kept monitor before admission. The generator is
// built between the two, so the heap delta leaves it out.
func (r *runner) setup() (rounds []float64, heapBefore uint64, err error) {
	n := setupRounds(len(r.names))
	for i := 0; i < n; i++ {
		last := i == n-1
		// Every round starts as a fresh process would: the previous
		// round's heap collected and its memory handed back to the OS,
		// so each admission faults its pages in anew.
		debug.FreeOSMemory()
		t0 := time.Now()
		m, err := startMonitor(r.monitorOpts())
		if err != nil {
			return nil, 0, err
		}
		built := time.Since(t0)
		if last {
			r.mon = m
			if err := r.buildFleets(); err != nil {
				return nil, 0, err
			}
			heapBefore = heapAlloc()
			if r.traced {
				r.tr.newTiming.Store(true)
			}
		}
		t1 := time.Now()
		err = m.admit(r.names)
		rounds = append(rounds, (built + time.Since(t1)).Seconds())
		if r.traced {
			r.tr.newTiming.Store(false)
		}
		if err != nil {
			return nil, 0, err
		}
		if !last {
			m.close()
		}
	}
	return rounds, heapBefore, nil
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// onEvent is the firehose tap's callback: it times detections against
// the kill instants, traces the line's lag, and feeds the tracker.
func (r *runner) onEvent(ev load.WatchEvent) {
	now := r.clk.Now()
	if r.filterPrefix != "" && strings.HasPrefix(ev.Peer, r.filterPrefix) {
		r.firehoseMatch.Add(1)
	}
	parent := int32(-1)
	tracing := r.traced && r.tr.on.Load()
	if ev.Event == "suspect" {
		r.mu.Lock()
		at, killed := r.killedAt[ev.Peer]
		delete(r.killedAt, ev.Peer)
		if !killed && len(r.unmatched) < 8 {
			r.unmatched = append(r.unmatched, fmt.Sprintf("%s at %+.3fs from window start (suspicion %.2f, line lag %v)",
				ev.Peer, time.Duration(clock.Time(ev.At)-r.t0).Seconds(), ev.Suspicion, time.Duration(now-clock.Time(ev.At))))
		}
		r.mu.Unlock()
		if killed {
			r.detect.add(int64(now - at))
			if tracing {
				parent = r.tr.event(spDetect, ev.Peer, ev.Incarnation, ev.Event, at, now, -1)
			}
		}
	}
	if tracing {
		r.tr.watch.add(int64(now - clock.Time(ev.At)))
		r.tr.event(spWatch, ev.Peer, ev.Incarnation, ev.Event, clock.Time(ev.At), now, parent)
	}
	r.tracker.OnEvent(ev)
}

func (r *runner) onFiltered(ev load.WatchEvent) {
	r.filteredEvents.Add(1)
	if !strings.HasPrefix(ev.Peer, r.filterPrefix) {
		r.filteredAlien.Add(1)
	}
}

// startTaps opens the /watch connections (and, traced, an in-process
// topic subscription) and waits until the monitor holds them all.
func (r *runner) startTaps() error {
	r.taps = append(r.taps, load.NewWatchTap(r.mon.base, "#", 8192, r.onEvent))
	if r.w.filteredTap != "" {
		r.taps = append(r.taps, load.NewWatchTap(r.mon.base, r.w.filteredTap, 8192, r.onFiltered))
	}
	for _, t := range r.taps {
		t.Start()
	}
	if r.traced {
		sub, err := r.mon.reg.SubscribeTopic("#", 8192)
		if err != nil {
			return err
		}
		r.busSub, r.busDone = sub, make(chan struct{})
		go func() {
			defer close(r.busDone)
			for ev := range sub.C() {
				if r.tr.on.Load() {
					now := r.clk.Now()
					r.tr.bus.add(int64(now - ev.At))
					r.tr.event(spBus, ev.Peer, ev.Incarnation, ev.Type.String(), ev.At, now, -1)
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.mon.reg.Counters().WatchConns < len(r.taps) {
		if time.Now().After(deadline) {
			return fmt.Errorf("/watch taps did not connect: %d of %d (%s)", r.mon.reg.Counters().WatchConns, len(r.taps), r.taps[0].Err())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func (r *runner) stopTaps() {
	for _, t := range r.taps {
		t.Stop()
	}
	if r.busSub != nil {
		r.busSub.Close()
		<-r.busDone
	}
}

// midCycle moves each kill in a cohort that beats exactly on period
// (no jitter) to the next instant halfway between two of the victim's
// beats, t0 being the window's start. Sender i of a fleet first beats
// Pacer.StartOffset(i) after the fleet starts, so its beat times are
// known. A random phase would make the detection-time median wander by
// a few percent from seed to seed with the luck of the draw; at a fixed
// phase the spread of detection times is the monitor's own. Restarts
// stay put: the move is under one interval, less than restartAfter.
func (r *runner) midCycle(ops []op, t0 clock.Time) []op {
	out := append([]op(nil), ops...)
	for i, o := range out {
		c := r.w.cohorts[o.cohort]
		if o.kind != opKill || c.jitter != 0 {
			continue
		}
		p := load.Pacer{Interval: c.interval, Ramp: c.interval}
		first := r.fleetStart.Add(p.StartOffset(o.idx, c.count))
		at := t0.Add(o.at)
		// The first mid-cycle instant at or after at.
		half := c.interval / 2
		k := (at.Sub(first) - half + c.interval - 1) / c.interval
		out[i].at += first.Add(k*c.interval + half).Sub(at)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// play applies the fault timeline from start until done or stop.
func (r *runner) play(ops []op, start time.Time, stop <-chan struct{}) {
	for _, o := range ops {
		if d := time.Until(start.Add(o.at)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
		f := r.fleets[o.cohort]
		name := f.Name(o.idx)
		switch o.kind {
		case opKill:
			at := f.Kill(o.idx)
			r.mu.Lock()
			r.killedAt[name] = at
			r.mu.Unlock()
			r.tracker.MarkKilled(name, at)
		case opRestart:
			r.mu.Lock()
			delete(r.killedAt, name)
			r.mu.Unlock()
			r.tracker.MarkRestarted(name)
			f.Restart(o.idx)
		case opRebind:
			f.Rebind(o.idx)
			r.tracker.NoteRebind(name)
		}
	}
}

// sampler wakes every 10 ms from the senders' start until the books
// close. It records its longest late wake-up: a stall of the whole
// process (the collector, or the host taking both CPUs away) shows
// there. While the window is open it also records the deepest ingest
// queue and how many sends the fleets were due to make.
type sampler struct {
	inWindow atomic.Bool

	// Written by the sampler goroutine; read after stop returns.
	stall     time.Duration
	stallAt   clock.Time
	qdMax     int64
	scheduled float64

	quit, done chan struct{}
}

func (r *runner) startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		const every = 10 * time.Millisecond
		t := time.NewTicker(every)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				now := time.Now() // the tick's own time would hide how late it was read
				if late := now.Sub(last) - every; late > s.stall {
					s.stall, s.stallAt = late, r.clk.Now()
				}
				last = now
				if !s.inWindow.Load() {
					continue
				}
				if d := int64(r.mon.udp.Counters().QueueDepth); d > s.qdMax {
					s.qdMax = d
				}
				for ci, f := range r.fleets {
					s.scheduled += float64(f.Alive()) * every.Seconds() / r.w.cohorts[ci].interval.Seconds()
				}
			}
		}
	}()
	return s
}

// stop ends the sampler; its figures are safe to read once it returns.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// snap is the counter state at one instant.
type snap struct {
	cpu        float64
	reg        registry.Counters
	recvStale  uint64
	udp        transport.UDPCounters
	prom       map[string]float64
	numGC      uint64
	gcCPU      float64
	totalCPU   float64
	pauses     []uint64
	pauseEdges []float64
	sent       uint64
	spurious   int
	newCalls   int64
}

var rtSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func (r *runner) snap() snap {
	s := snap{cpu: cpuSeconds(), reg: r.mon.reg.Counters(), udp: r.mon.udp.Counters(), prom: scrape(r.mon.reg)}
	_, s.recvStale = r.mon.recv.Counters()
	rs := make([]rtmetrics.Sample, len(rtSamples))
	for i, n := range rtSamples {
		rs[i].Name = n
	}
	rtmetrics.Read(rs)
	s.numGC = rs[0].Value.Uint64()
	s.gcCPU, s.totalCPU = rs[1].Value.Float64(), rs[2].Value.Float64()
	h := rs[3].Value.Float64Histogram()
	s.pauses, s.pauseEdges = append([]uint64(nil), h.Counts...), h.Buckets
	for _, f := range r.fleets {
		s.sent += f.Sent()
	}
	s.spurious = r.tracker.Snapshot().Spurious
	if r.traced {
		s.newCalls = r.tr.newCalls.Load()
	}
	return s
}

// sliceState is the throughput state at a tracing-slice boundary.
type sliceState struct{ hb, cpu, histSum, histN float64 }

func (r *runner) sliceSnap() sliceState {
	s := sliceState{hb: float64(r.mon.reg.Counters().Heartbeats), cpu: cpuSeconds()}
	if r.traced {
		p := scrape(r.mon.reg)
		s.histSum, s.histN = p["sfd_receiver_decode_seconds_sum"], p["sfd_receiver_decode_seconds_count"]
	}
	return s
}

func (s *sliceState) addDelta(a, b sliceState) {
	s.hb += b.hb - a.hb
	s.cpu += b.cpu - a.cpu
	s.histSum += b.histSum - a.histSum
	s.histN += b.histN - a.histN
}

// window is what the measured window recorded.
type window struct {
	a, b      snap
	elapsed   time.Duration
	on, off   sliceState // totals over tracing-on and -off slices
	perSec    []float64  // heartbeats per CPU second of each untraced slice
	heapInuse uint64
}

// measure runs the window while the fault timeline plays. It returns
// once the window is over; the timeline plays on until stop closes, and
// played closes when it has.
func (r *runner) measure(ops []op, stop <-chan struct{}, played chan<- struct{}) *window {
	win := &window{a: r.snap()}
	start := time.Now()
	r.mu.Lock()
	r.t0 = r.clk.Now()
	r.mu.Unlock()
	ops = r.midCycle(ops, r.t0)
	go func() {
		defer close(played)
		r.play(ops, start, stop)
	}()
	r.sampler.inWindow.Store(true)
	// One-second slices. A traced run switches tracing on in every other
	// slice. Each untraced slice's throughput per CPU second is kept.
	for i := 0; i < int(r.window/time.Second); i++ {
		tracing := r.traced && i%2 == 0
		s0 := r.sliceSnap()
		if r.traced {
			r.tr.on.Store(tracing)
		}
		time.Sleep(time.Second)
		if r.traced {
			r.tr.on.Store(false)
		}
		s1 := r.sliceSnap()
		if tracing {
			win.on.addDelta(s0, s1)
			continue
		}
		var d sliceState
		d.addDelta(s0, s1)
		win.off.addDelta(s0, s1)
		win.perSec = append(win.perSec, ratio(d.hb, d.cpu))
	}
	win.b = r.snap()
	win.elapsed = time.Since(start)
	r.sampler.inWindow.Store(false)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	win.heapInuse = ms.HeapInuse
	return win
}

// run executes one workload and returns its metrics and gate failures.
func (r *runner) run() (*result, error) {
	res := &result{env: stampEnvironment(r.seed, monitorReadBuffer)}
	ops, err := r.w.schedule(r.window, rand.New(rand.NewSource(r.seed)))
	if err != nil {
		return nil, err
	}
	for _, c := range r.w.cohorts {
		for i := 0; i < c.count; i++ {
			name := fmt.Sprintf("%s/s-%05d", c.name, i) // load.Fleet's naming
			r.names = append(r.names, name)
			r.tracker.Register(name)
		}
	}
	if r.w.federate {
		if err := r.startAggregator(); err != nil {
			return nil, err
		}
		defer r.stopAggregator()
	}
	kern0, err := udpRcvbufErrors()
	if err != nil {
		return nil, err
	}
	rounds, heapBefore, err := r.setup()
	if r.mon != nil {
		defer r.mon.close()
	}
	var stopOnce sync.Once
	stopFleets := func() {
		stopOnce.Do(func() {
			for _, f := range r.fleets {
				f.Stop()
			}
		})
	}
	defer stopFleets()
	if err != nil {
		return nil, err
	}
	if err := r.startTaps(); err != nil {
		return nil, err
	}
	defer r.stopTaps()
	for ci, ctl := range r.ctls {
		for _, im := range r.w.cohorts[ci].chaos {
			if _, err := ctl.Arm(im); err != nil {
				return nil, err
			}
		}
	}
	r.fleetStart = r.clk.Now()
	for _, f := range r.fleets {
		f.Start()
	}
	r.sampler = r.startSampler()

	time.Sleep(r.w.warm)
	heapAfter := heapAlloc()
	// The socket's receive-buffer pool keeps every buffer it allocated,
	// up to its cap. How many depends on the run's peak backlog, not on
	// the streams, so they are taken out of the per-stream figure:
	// pool-owned buffers are the misses (fresh allocations) less the
	// discards.
	pool := r.mon.udp.Counters().Pool
	poolBytes := (pool.Misses - pool.Discards) * uint64(r.mon.udp.Pool().BufSize())
	time.Sleep(500 * time.Millisecond) // let the forced collection's wake pass

	opsStop, opsDone := make(chan struct{}), make(chan struct{})
	win := r.measure(ops, opsStop, opsDone)

	// Detections land, then the books close.
	time.Sleep(r.w.grace)
	close(opsStop)
	<-opsDone
	r.tracker.Freeze()
	missed := r.tracker.FinishMissed()
	ts := r.tracker.Snapshot()
	for _, ctl := range r.ctls {
		if ctl != nil {
			ctl.DisarmAll()
		}
	}
	time.Sleep(300 * time.Millisecond) // delayed and duplicated copies go out
	// Stop the wheel before the senders: their silence must not fire
	// transitions while the books close.
	r.mon.stopDrivers()
	stopFleets()
	r.sampler.stop()
	sm := r.sampler
	led, err := r.quiesce(kern0)
	if err != nil {
		res.fail("%v", err)
	}
	if err := led.check(); err != nil {
		res.fail("%v", err)
	}
	res.attempted, res.failed = led.onWire(), led.lost()
	r.checkTaps(res)

	kills := 0
	for _, o := range ops {
		if o.kind == opKill {
			kills++
		}
	}
	if missed > 0 || ts.Injected != kills || ts.Detected != kills {
		res.fail("kills: %d scheduled, %d injected, %d detected, %d missed", kills, ts.Injected, ts.Detected, missed)
	}
	if !r.w.mistakesAllowed && ts.Spurious > 0 {
		r.mu.Lock()
		res.fail("%d spurious transitions of live streams: %s", ts.Spurious, strings.Join(r.unmatched, "; "))
		r.mu.Unlock()
	}
	if n := win.b.reg.InvalidNames; n > 0 {
		res.fail("%d invalid stream names", n)
	}
	a, b := win.a, win.b
	sent := float64(b.sent - a.sent)
	behind := ratio(sm.scheduled-sent, sm.scheduled)
	if behind > 0.05 {
		res.fail("load generator fell behind: sent %.0f of %.0f scheduled", sent, sm.scheduled)
	}
	hbPerCPU := median(win.perSec)
	res.diag = fmt.Sprintf("window: %.0f hb/cpu-s, %d GC cycles, %d pool misses of %d gets, queue depth max %d, queue drops %d; "+
		"run: kernel drops %d, longest process stall %v ending %+.3fs from window start",
		hbPerCPU, b.numGC-a.numGC, b.udp.Pool.Misses-a.udp.Pool.Misses, b.udp.Pool.Gets-a.udp.Pool.Gets, sm.qdMax,
		b.udp.Dropped-a.udp.Dropped, led.KernelDrops, sm.stall.Round(time.Millisecond), time.Duration(sm.stallAt-r.t0).Seconds())

	f := figures{}
	if !r.traced {
		detect := r.detect.summarize(1e6)
		if !detect.P99OK {
			res.fail("detect: %d samples leave fewer than %d beyond p99", detect.N, minBeyond)
		}
		f.put("setup_s", median(rounds), "median of %d rounds (%.4f to %.4f), %d streams", len(rounds), minOf(rounds), maxOf(rounds), len(r.names))
		f.put("detect_p50_ms", detect.P50, "n=%d", detect.N)
		f.put("detect_p99_ms", detect.P99, "n=%d", detect.N)
		f.put("bytes_per_stream", (float64(heapAfter)-float64(heapBefore)-float64(poolBytes))/float64(len(r.names)),
			"heap %d → %d, less %d B of receive-buffer pool", heapBefore, heapAfter, poolBytes)
		res.metrics, err = f.pick(endToEnd)
		return res, err
	}
	f.put("hb_per_cpu_s", hbPerCPU, "median of %d untraced one-second slices (%.0f to %.0f); generator included",
		len(win.perSec), minOf(win.perSec), maxOf(win.perSec))
	f.put("gen.behind_ratio", behind, "sent %.0f of %.0f scheduled", sent, sm.scheduled)
	f.put("mistakes_per_stream_h", float64(b.spurious-a.spurious)/(float64(len(r.names))*win.elapsed.Hours()),
		"%d spurious suspicions in the window", b.spurious-a.spurious)
	f.put("hb_loss_ratio", led.lossRatio(), "%d of %d on the wire", led.lost(), led.onWire())
	f.put("transport.kernel_drops", float64(led.KernelDrops), "whole run")
	r.traceFigures(res, f, win)
	res.metrics, err = f.pick(perLayer)
	return res, err
}

// traceFigures computes the traced run's per-layer figures, checks the
// trace's own consistency, and writes the span dump.
func (r *runner) traceFigures(res *result, f figures, win *window) {
	t, a, b, on, off := r.tr, win.a, win.b, win.on, win.off
	spans, dropped := t.snapshot()
	res.rows = selfTimes(spans)
	if ing, parts, n := ingestSplit(spans); n == 0 || float64(parts) < 0.95*float64(ing) || parts > ing {
		res.fail("trace: transport.wait + registry.observe = %d ns of %d ns traced ingest over %d heartbeats", parts, ing, n)
	}
	obsSum, obsN := t.observe.total()
	if float64(obsSum) > on.histSum*1e9*1.01 || float64(obsN) > on.histN*1.01 {
		res.fail("trace: %d Observe spans (%d ns) exceed the receiver's dispatch histogram (%.0f, %.0f ns)", obsN, obsSum, on.histN, on.histSum*1e9)
	}
	res.dumpPath = filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.seed))
	if err := writeDump(res.dumpPath, spans, dropped, res.rows); err != nil {
		res.fail("trace dump: %v", err)
	}

	pcts := func(prefix string, rec *recorder, div float64) {
		s := rec.summarize(div)
		note := fmt.Sprintf("n=%d", s.N)
		f.put(prefix+"_p50", s.P50, "%s", note)
		if !s.P99OK {
			note += ", fewer than 10 beyond: read as the largest"
		}
		f.put(prefix+"_p99", s.P99, "%s", note)
	}
	ingest := t.ingest.summarize(1e3)
	f.put("ingest_p50_us", ingest.P50, "n=%d", ingest.N)
	f.put("ingest_p99_us", ingest.P99, "n=%d, max %.0f us", ingest.N, ingest.Max)
	pcts("transport.wait_us", t.wait, 1e3)
	pcts("registry.observe_ns", t.observe, 1)
	pcts("registry.tick_us", t.tick, 1e3)
	pcts("core.observe_ns", t.coreObs, 1)
	pcts("bus.deliver_us", t.bus, 1e3)
	pcts("watch.lag_us", t.watch, 1e3)
	pcts("federate.rollup_ms", t.rollup, 1e6)

	gets := float64(b.udp.Pool.Gets - a.udp.Pool.Gets)
	datagrams := float64(b.udp.Received - a.udp.Received)
	f.put("transport.queue_drops", float64(b.udp.Dropped-a.udp.Dropped), "window")
	f.put("transport.queue_depth_max", float64(r.sampler.qdMax), "sampled every 10 ms")
	f.put("transport.pool_miss_ratio", ratio(float64(b.udp.Pool.Misses-a.udp.Pool.Misses), gets), "of %.0f buffer gets", gets)
	coreSum, _ := t.coreObs.total()
	f.put("heartbeat.dispatch_ns_mean", ratio(on.histSum*1e9, on.histN), "n=%.0f", on.histN)
	f.put("heartbeat.self_ns_mean", ratio(on.histSum*1e9-float64(obsSum), on.histN), "dispatch minus Observe")
	f.put("heartbeat.stale_ratio", ratio(float64(b.recvStale-a.recvStale), datagrams), "of %.0f datagrams", datagrams)
	f.put("registry.observe_self_ns_mean", ratio(float64(obsSum-coreSum), float64(obsN)), "Observe minus core.Observe")
	f.put("registry.stale", float64(b.reg.Stale-a.reg.Stale), "window")
	f.put("registry.wheel_rearms", b.prom["sfd_registry_wheel_rearms_total"]-a.prom["sfd_registry_wheel_rearms_total"], "window")
	f.put("registry.tick_fired", float64(b.reg.Suspects+b.reg.Offlines+b.reg.Evictions-a.reg.Suspects-a.reg.Offlines-a.reg.Evictions), "window")
	f.put("core.freshness_ns_mean", ratio(float64(t.freshSum.Load()), float64(t.freshN.Load())), "n=%d", t.freshN.Load())
	cn := t.coreNew.summarize(1e3)
	f.put("core.new_us_mean", cn.Mean, "n=%d (final set-up round)", cn.N)
	f.put("core.new_calls", float64(b.newCalls-a.newCalls), "window")
	f.put("fanout.matches", float64(b.reg.FanoutMatches-a.reg.FanoutMatches), "window")
	f.put("fanout.drops", float64(b.reg.FanoutDrops-a.reg.FanoutDrops), "window")
	var shed, reconnects uint64
	for _, tap := range r.taps {
		shed += tap.Dropped()
		reconnects += tap.Reconnects()
	}
	f.put("watch.dropped", float64(shed), "server-side sheds")
	f.put("watch.reconnects", float64(reconnects), "whole run")
	dg := t.digest.summarize(1)
	f.put("federate.digest_bytes", dg.Mean, "per roll-up, n=%d", dg.N)
	f.put("runtime.gc_cpu_fraction", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), "%d cycles; runtime/metrics estimate", b.numGC-a.numGC)
	f.put("runtime.gc_pause_p99_us", histP99(a.pauses, b.pauses, b.pauseEdges)*1e6, "bucket upper edge")
	f.put("runtime.heap_inuse_mb", float64(win.heapInuse)/(1<<20), "window end")
	hbOn, hbOff := ratio(on.hb, on.cpu), ratio(off.hb, off.cpu)
	f.put("trace.overhead", 1-ratio(hbOn, hbOff), "hb/cpu-s traced %.0f vs untraced %.0f", hbOn, hbOff)
}

func writeDump(path string, spans []span, dropped uint64, rows []layerRow) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dump(fh, spans, dropped, rows); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// quiesce waits for the monitor to drain what the stopped generator
// sent, then reads the heartbeat ledger.
func (r *runner) quiesce(kern0 uint64) (ledger, error) {
	read := func() (ledger, error) {
		kern, err := udpRcvbufErrors()
		c := r.mon.reg.Counters()
		_, stale := r.mon.recv.Counters()
		u := r.mon.udp.Counters()
		l := ledger{
			Accepted: c.Heartbeats, RegStale: c.Stale, Invalid: c.InvalidNames,
			RecvStale: stale, KernelDrops: kern - kern0, QueueDrops: u.Dropped,
			InFlight: uint64(u.QueueDepth),
		}
		for i, f := range r.fleets {
			l.Sent += f.Sent()
			if ctl := r.ctls[i]; ctl != nil {
				cc := ctl.Counters()
				l.ChaosLost += cc.LossDrops
				l.ChaosDup += cc.Duplicated
			}
		}
		return l, err
	}
	prev, err := read()
	deadline := time.Now().Add(5 * time.Second)
	for stable := 0; stable < 5 && err == nil; {
		time.Sleep(20 * time.Millisecond)
		var cur ledger
		if cur, err = read(); cur == prev && cur.InFlight == 0 {
			stable++
		} else {
			stable = 0
		}
		prev = cur
		if time.Now().After(deadline) {
			return prev, fmt.Errorf("monitor did not drain within 5 s (in flight %d)", prev.InFlight)
		}
	}
	return prev, err
}

// checkTaps confirms every transition the registry published reached the
// /watch clients, and that the filtered tap saw only its subtree.
func (r *runner) checkTaps(res *result) {
	want := r.mon.reg.Counters().BusPublished
	deadline := time.Now().Add(5 * time.Second)
	for r.taps[0].Events() < want && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := r.taps[0].Events(); got != want {
		res.fail("/watch firehose decoded %d events, registry published %d", got, want)
	}
	if r.filterPrefix != "" {
		want := r.firehoseMatch.Load()
		for r.filteredEvents.Load() < want && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if got := r.filteredEvents.Load(); got != want {
			res.fail("/watch %s decoded %d events, the firehose saw %d under it", r.w.filteredTap, got, want)
		}
		if n := r.filteredAlien.Load(); n > 0 {
			res.fail("/watch %s received %d events outside the filter", r.w.filteredTap, n)
		}
	}
	for _, t := range r.taps {
		if d := t.Dropped(); d > 0 {
			res.fail("/watch shed %d events", d)
		}
	}
}
