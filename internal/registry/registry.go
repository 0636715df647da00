// Package registry scales the paper's "one monitors multiple"
// deployment (Fig. 1, §VII) to fleet size: a sharded monitoring
// registry holding one failure detector per heartbeat stream, a
// hierarchical timer wheel that fires suspect/offline/eviction
// transitions for the whole fleet from a single driver, and a
// failure-event bus pushing typed transitions to subscribers over
// bounded channels with drop-oldest backpressure.
//
// It is the repository's one monitor core: the live daemon, the load
// harness, gossip, federation, the simulated consortium (cluster), the
// consensus layer and the public facade all run on it. Status (active /
// busy / suspected / offline), Report and the status-board formatters
// live here too, so every snapshot renders on the same board. It runs
// unchanged over the real clock (UDP stack) or clock.Sim (netsim); an
// unstarted registry classifies at query time from the detector's
// suspicion level alone, which keeps small simulations deterministic
// without a wheel driver.
package registry

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/fanout"
	"repro/internal/heartbeat"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/stats"
)

// Factory builds a fresh detector for a newly registered stream.
type Factory func(peer string) detector.Detector

// DefaultFactory returns SFD instances with the paper's defaults and the
// given QoS targets.
func DefaultFactory(targets core.Targets) Factory {
	return func(string) detector.Detector {
		cfg := core.DefaultConfig()
		cfg.Targets = targets
		return core.New(cfg)
	}
}

// Options tunes a Registry. Zero values take the documented defaults;
// negative durations disable the corresponding mechanism where noted.
type Options struct {
	// Shards is the number of lock stripes, rounded up to a power of two
	// (default 16).
	Shards int
	// WheelTick is the timer-wheel granularity — transitions fire within
	// one tick of their deadline (default 10 ms).
	WheelTick clock.Duration
	// BusyLevel and SuspectLevel classify snapshot queries on the
	// accrual suspicion scale (defaults 0.5 and 1.0); binary detectors
	// map trust→0 and suspect→SuspectLevel.
	BusyLevel    float64
	SuspectLevel float64
	// OfflineAfter is how long a stream stays suspected before it is
	// declared offline (default 10 s).
	OfflineAfter clock.Duration
	// MaxSilence is the safety net under the detector: a stream whose
	// last heartbeat is older than this is suspected even if its detector
	// never formed a freshness point. Default 30 s; negative disables.
	// With it disabled, a stream that heartbeats once and goes silent
	// before its detector warms up is never suspected nor evicted.
	MaxSilence clock.Duration
	// EvictAfter is how long an offline stream is kept before it is
	// removed from the registry — the bound that keeps the table finite
	// under peer churn. Default 1 minute; negative disables eviction.
	EvictAfter clock.Duration
	// MetricsMaxStreams caps how many streams the /metrics page exposes
	// per-stream QoS gauges for — a huge fleet would otherwise make every
	// scrape enumerate every stream. Default 256; negative disables the
	// per-stream sampler entirely (aggregate series remain).
	MetricsMaxStreams int
	// WatchMaxConns caps concurrent /watch connections; each holds a bus
	// subscription, so an unbounded count would let one misbehaving
	// aggregator exhaust the event bus. Saturated requests get 503 with a
	// Retry-After header. Default 64; negative disables the cap.
	WatchMaxConns int

	// StateDir enables crash-safe persistence: full snapshots and the
	// delta journal live here, and Start restores from them (warm
	// restart). Empty disables persistence entirely.
	StateDir string
	// CheckpointInterval is the cadence of full state snapshots
	// (default 30 s).
	CheckpointInterval clock.Duration
	// JournalFlush is the cadence of incremental delta-journal flushes
	// (default 1 s).
	JournalFlush clock.Duration
	// JournalMaxBytes rotates the delta journal into a fresh full
	// snapshot once it grows past this size (default 1 MiB).
	JournalMaxBytes int64
	// RewarmArrivals is how many fresh arrivals a restored detector's
	// safety margin stays frozen for after a warm restart (0 → one
	// slot's worth, the detector default).
	RewarmArrivals int
	// RewarmGrace is the deadline granted to restored trusted streams:
	// a stream that does not heartbeat within this window after restart
	// is suspected through the normal machinery. Default: MaxSilence,
	// or OfflineAfter when the silence net is disabled.
	RewarmGrace clock.Duration
}

func (o *Options) normalize() {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	o.Shards = n
	if o.WheelTick <= 0 {
		o.WheelTick = 10 * clock.Millisecond
	}
	if o.BusyLevel <= 0 {
		o.BusyLevel = 0.5
	}
	if o.SuspectLevel <= o.BusyLevel {
		o.SuspectLevel = o.BusyLevel + 0.5
	}
	if o.OfflineAfter <= 0 {
		o.OfflineAfter = 10 * clock.Second
	}
	switch {
	case o.MaxSilence == 0:
		o.MaxSilence = 30 * clock.Second
	case o.MaxSilence < 0:
		o.MaxSilence = 0
	}
	switch {
	case o.EvictAfter == 0:
		o.EvictAfter = 60 * clock.Second
	case o.EvictAfter < 0:
		o.EvictAfter = 0
	}
	switch {
	case o.MetricsMaxStreams == 0:
		o.MetricsMaxStreams = 256
	case o.MetricsMaxStreams < 0:
		o.MetricsMaxStreams = 0
	}
	switch {
	case o.WatchMaxConns == 0:
		o.WatchMaxConns = 64
	case o.WatchMaxConns < 0:
		o.WatchMaxConns = 0
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 30 * clock.Second
	}
	if o.JournalFlush <= 0 {
		o.JournalFlush = clock.Second
	}
	if o.JournalMaxBytes <= 0 {
		o.JournalMaxBytes = 1 << 20
	}
	if o.RewarmGrace <= 0 {
		if o.MaxSilence > 0 {
			o.RewarmGrace = o.MaxSilence
		} else {
			o.RewarmGrace = o.OfflineAfter
		}
	}
}

// Counters is a point-in-time view of the registry's monotonic counters
// (the expvar-style numbers the HTTP endpoint exposes).
type Counters struct {
	Heartbeats    uint64 `json:"heartbeats"`      // accepted arrivals
	Stale         uint64 `json:"stale"`           // duplicate/reordered arrivals dropped
	Registered    uint64 `json:"registered"`      // streams ever registered
	InvalidNames  uint64 `json:"invalid_names"`   // registrations rejected by name validation
	Suspects      uint64 `json:"suspects"`        // trust → suspect transitions
	Trusts        uint64 `json:"trusts"`          // suspect → trust transitions
	Offlines      uint64 `json:"offlines"`        // suspect → offline transitions
	Evictions     uint64 `json:"evictions"`       // offline streams removed
	CannotSatisfy uint64 `json:"cannot_satisfy"`  // self-tuner infeasibility reports
	BusPublished  uint64 `json:"bus_published"`   // events published on the bus
	BusDropped    uint64 `json:"bus_dropped"`     // events dropped across subscribers
	FanoutMatches uint64 `json:"fanout_matches"`  // deliveries routed by the topic trie
	FanoutDrops   uint64 `json:"fanout_drops"`    // drops charged to topic subscriptions
	WatchRejected uint64 `json:"watch_rejected"`  // /watch requests refused at WatchMaxConns
	WatchConns    int    `json:"watch_conns"`     // live /watch connections
	Streams       int    `json:"streams"`         // currently registered streams
	WheelEntries  int    `json:"wheel_entries"`   // live wheel entries (incl. stale)
	Subscribers   int    `json:"bus_subscribers"` // current subscribers (firehose + topic)
	TopicSubs     int    `json:"topic_subscriptions"`
	TrieNodes     int    `json:"fanout_trie_nodes"`
}

// stater is implemented by self-tuning detectors (core.SFD) whose
// infeasibility verdict the registry surfaces as EventCannotSatisfy.
type stater interface {
	State() core.State
	Response() string
}

// afterFuncer is satisfied by clock.Sim; when the registry runs on a
// simulated clock it drives the wheel through deterministic timer
// callbacks instead of a goroutine.
type afterFuncer interface {
	AfterFunc(clock.Duration, func(clock.Time))
}

// Registry is the sharded fleet monitor. All methods are safe for
// concurrent use.
type Registry struct {
	clk     clock.Clock
	factory Factory
	opts    Options

	shards    []*shard
	shardMask uint32
	wheel     *timerWheel
	bus       *Bus

	// gen issues globally unique wheel-entry generations (see stream.gen).
	gen atomic.Uint64

	heartbeats    atomic.Uint64
	stale         atomic.Uint64
	registered    atomic.Uint64
	invalidNames  atomic.Uint64
	suspects      atomic.Uint64
	trusts        atomic.Uint64
	offlines      atomic.Uint64
	evictions     atomic.Uint64
	cannotSatisfy atomic.Uint64
	rearms        atomic.Uint64

	// metricsSet is built lazily on the first Metrics() call so embedders
	// that never scrape pay nothing for it.
	metricsOnce sync.Once
	metricsSet  *metrics.Set

	// Ground-truth failure marks (see groundtruth.go). markCount gates the
	// hot-path checks so a registry with no marks pays one atomic load.
	marksMu    sync.Mutex
	marks      map[string]clock.Time
	markCount  atomic.Int64
	detLat     *stats.Histogram                  // quantile summary, under marksMu
	detLatHist atomic.Pointer[metrics.Histogram] // /metrics exposition

	// varsAux holds /vars sections registered by other subsystems via
	// RegisterVars (transport, gossip, federation).
	varsMu  sync.Mutex
	varsAux map[string]func() any

	// watchConns counts live /watch connections against WatchMaxConns.
	watchConns    atomic.Int64
	watchRejected atomic.Uint64

	started atomic.Bool
	stopped atomic.Bool
	stopc   chan struct{}

	tickBuf []expiry // owned by the single wheel driver

	// Persistence plumbing (zero when Options.StateDir is unset). The
	// checkpointer rides in an atomic pointer so scrape-time metrics can
	// read it regardless of Start ordering; restoreMu guards the
	// restore-once state and the store handle.
	ckpt           atomic.Pointer[persist.Checkpointer]
	auxSnap        atomic.Value // auxSnapFunc
	restoreMu      sync.Mutex
	store          *persist.Store
	deltaSub       *Subscription
	restored       bool
	restoredCount  int
	restoreErr     error
	restoredGossip *persist.GossipRecord
}

// New builds a Registry. A nil clock defaults to the real clock; a nil
// factory defaults to SFD instances with default targets.
func New(clk clock.Clock, factory Factory, opts Options) *Registry {
	if clk == nil {
		clk = clock.NewReal()
	}
	if factory == nil {
		factory = DefaultFactory(core.Targets{})
	}
	opts.normalize()
	r := &Registry{
		clk:       clk,
		factory:   factory,
		opts:      opts,
		shards:    make([]*shard, opts.Shards),
		shardMask: uint32(opts.Shards - 1),
		wheel:     newTimerWheel(opts.WheelTick, clk.Now()),
		bus:       NewBus(),
		stopc:     make(chan struct{}),
	}
	for i := range r.shards {
		r.shards[i] = newShard()
	}
	return r
}

// Options returns the effective configuration after defaulting.
func (r *Registry) Options() Options { return r.opts }

// Start launches the timer-wheel driver. Under the real clock this is a
// goroutine waking every WheelTick; under clock.Sim it is a chain of
// simulated timer callbacks, so deterministic tests drive transitions by
// advancing the clock. Start is idempotent.
func (r *Registry) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	r.startPersist()
	if af, ok := r.clk.(afterFuncer); ok {
		r.armSim(af)
		return
	}
	go r.runReal()
}

// Stop halts the wheel driver and, when persistence is enabled, flushes
// a final full snapshot (the graceful-shutdown guarantee: a clean exit
// restores exactly). Streams and subscriptions survive; Tick can still
// be called manually.
func (r *Registry) Stop() {
	if r.stopped.CompareAndSwap(false, true) {
		close(r.stopc)
		r.stopPersist()
	}
}

func (r *Registry) armSim(af afterFuncer) {
	af.AfterFunc(r.opts.WheelTick, func(now clock.Time) {
		if r.stopped.Load() {
			return
		}
		r.Tick(now)
		r.armSim(af)
	})
}

func (r *Registry) runReal() {
	for {
		select {
		case <-r.stopc:
			return
		case now := <-r.clk.After(r.opts.WheelTick):
			r.Tick(now)
		}
	}
}

// Tick advances the wheel to instant now, firing every due transition.
// Start calls it automatically; it is exported so tests and embedders
// can drive the wheel by hand. It must not be called concurrently with
// itself (the Start drivers never do).
func (r *Registry) Tick(now clock.Time) {
	r.tickBuf = r.wheel.advance(now, r.tickBuf[:0])
	for _, x := range r.tickBuf {
		r.expire(now, x)
	}
}

func (r *Registry) shardFor(peer string) *shard {
	return r.shards[fnv32a(peer)&r.shardMask]
}

// Register adds a stream without waiting for its first heartbeat
// (idempotent). The silence safety net starts immediately, so a
// registered peer that never speaks is still suspected and evicted.
//
// Stream names are hierarchical topics (`region/cluster/host/service`):
// names with empty segments (`a//b`) or wildcard characters (`+`, `#`)
// are rejected here, at the boundary, so every tracked stream is
// unambiguously addressable by SubscribeTopic filters.
func (r *Registry) Register(peer string) error {
	if err := fanout.ValidateName(peer); err != nil {
		r.invalidNames.Add(1)
		return err
	}
	sh := r.shardFor(peer)
	sh.mu.Lock()
	if _, ok := sh.streams[peer]; !ok {
		st := r.newStreamLocked(sh, peer)
		if r.opts.MaxSilence > 0 {
			r.rearmLocked(st, r.clk.Now().Add(r.opts.MaxSilence))
		}
	}
	sh.mu.Unlock()
	return nil
}

// newStreamLocked creates and files a stream; the shard lock must be held.
func (r *Registry) newStreamLocked(sh *shard, peer string) *stream {
	st := &stream{peer: peer, det: r.factory(peer)}
	sh.streams[peer] = st
	r.registered.Add(1)
	return st
}

// Deregister removes a stream, reporting whether it existed. Stale wheel
// entries for it are invalidated lazily.
func (r *Registry) Deregister(peer string) bool {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	_, ok := sh.streams[peer]
	delete(sh.streams, peer)
	sh.mu.Unlock()
	return ok
}

// Len returns the number of registered streams.
func (r *Registry) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.len()
	}
	return n
}

// Subscribe attaches a firehose failure-event subscriber (every event)
// with the given channel capacity (buf <= 0 takes the default).
func (r *Registry) Subscribe(buf int) *Subscription {
	return r.bus.Subscribe(buf)
}

// SubscribeTopic attaches an interest-routed subscriber: it receives
// only events whose stream name matches filter (`+`/`#` wildcards over
// `/`-separated hierarchical names). A client watching 50 streams in a
// million-stream fleet pays for exactly those 50 streams' events.
func (r *Registry) SubscribeTopic(filter string, buf int) (*Subscription, error) {
	return r.bus.SubscribeTopic(filter, buf)
}

// Bus returns the underlying event bus.
func (r *Registry) Bus() *Bus { return r.bus }

// Observe ingests one heartbeat arrival. It matches heartbeat.Handler,
// so a Registry wires directly into a Receiver:
//
//	recv := heartbeat.NewReceiver(ep, clk, reg.Observe)
//
// Arrivals from unknown peers auto-register them (a server joining the
// cloud announces itself by heartbeating). The hot path takes one shard
// lock and normally never touches the wheel: a heartbeat only moves the
// stream's authoritative deadline, and the wheel entry re-arms itself
// when it fires.
func (r *Registry) Observe(a heartbeat.Arrival) {
	sh := r.shardFor(a.From)
	var evs [2]Event
	nev := 0

	sh.mu.Lock()
	st, ok := sh.streams[a.From]
	if !ok {
		// First sight of this name: validate it before it becomes a
		// topic. Known streams skip this, so the hot path pays nothing.
		if err := fanout.ValidateName(a.From); err != nil {
			sh.mu.Unlock()
			r.invalidNames.Add(1)
			return
		}
		st = r.newStreamLocked(sh, a.From)
	}
	if st.seen && (a.Inc < st.inc || (a.Inc == st.inc && a.Seq <= st.lastSeq)) {
		st.stats.Stale++
		sh.mu.Unlock()
		r.stale.Add(1)
		return
	}
	if st.seen && a.Inc > st.inc {
		// A restarted process: its arrival statistics share nothing with
		// the dead incarnation, so start the detector over.
		st.det = r.factory(a.From)
	}
	st.inc = a.Inc

	if st.phase != phaseTrusted {
		// Recovery: the suspicion (or offline verdict) was a mistake.
		st.stats.Mistakes++
		if a.Recv.After(st.suspectSince) {
			st.stats.MistakeTime += a.Recv.Sub(st.suspectSince)
		}
		st.phase = phaseTrusted
		evs[nev] = Event{Type: EventTrust, Peer: a.From, At: a.Recv, Incarnation: a.Inc}
		nev++
	}

	st.det.Observe(a.Seq, a.Send, a.Recv)
	st.lastSeq, st.lastArrival, st.seen = a.Seq, a.Recv, true
	st.stats.Heartbeats++

	// Surface the self-tuner's "can not satisfy" response as an event,
	// once per infeasibility episode.
	if sd, ok := st.det.(stater); ok {
		if sd.State() == core.StateInfeasible {
			if !st.infeasible {
				st.infeasible = true
				evs[nev] = Event{Type: EventCannotSatisfy, Peer: a.From, At: a.Recv, Detail: sd.Response()}
				nev++
			}
		} else {
			st.infeasible = false
		}
	}

	// New authoritative deadline: the freshness point, tightened by the
	// silence safety net when that comes first (or when no freshness
	// point exists yet).
	dl := st.det.FreshnessPoint()
	if r.opts.MaxSilence > 0 {
		if sil := a.Recv.Add(r.opts.MaxSilence); dl == 0 || sil.Before(dl) {
			dl = sil
		}
	}
	st.deadline = dl
	if dl > 0 && (st.entryAt == 0 || dl.Before(st.entryAt)) {
		r.rearmLocked(st, dl)
	}
	sh.mu.Unlock()

	r.heartbeats.Add(1)
	if r.markCount.Load() > 0 {
		r.clearMark(a.From, a.Recv)
	}
	for i := 0; i < nev; i++ {
		r.publish(evs[i])
	}
}

// rearmLocked schedules a fresh wheel entry for st at instant at,
// invalidating any previous entry. The stream's shard lock must be held.
// The generation comes from the registry-wide counter so entries left
// behind by a deregistered stream can never match a later stream that
// reuses the same address.
func (r *Registry) rearmLocked(st *stream, at clock.Time) {
	r.rearms.Add(1)
	st.gen = r.gen.Add(1)
	st.entryAt = at
	st.deadline = at
	r.wheel.schedule(at, st.peer, st.gen)
}

// expire resolves one fired wheel entry against the stream's current
// state: re-arm if a heartbeat moved the deadline, otherwise advance the
// trusted → suspected → offline → evicted machine one step.
func (r *Registry) expire(now clock.Time, x expiry) {
	sh := r.shardFor(x.peer)
	sh.mu.Lock()
	st := sh.streams[x.peer]
	if st == nil || st.gen != x.gen {
		sh.mu.Unlock()
		return // deregistered, evicted, or a lazily-invalidated entry
	}
	st.entryAt = 0
	if st.deadline.After(now) {
		// Heartbeats pushed the deadline out while the entry was queued.
		r.rearmLocked(st, st.deadline)
		sh.mu.Unlock()
		return
	}

	var ev Event
	switch st.phase {
	case phaseTrusted:
		st.phase = phaseSuspected
		// The suspicion episode began when the freshness point expired,
		// not when the wheel got around to firing it.
		st.suspectSince = now
		if fp := st.det.FreshnessPoint(); fp > 0 && fp.Before(now) {
			st.suspectSince = fp
		}
		ev = Event{Type: EventSuspect, Peer: st.peer, At: now, Suspicion: r.level(st, now), Incarnation: st.inc}
		r.rearmLocked(st, st.suspectSince.Add(r.opts.OfflineAfter))
	case phaseSuspected:
		st.phase = phaseOffline
		ev = Event{Type: EventOffline, Peer: st.peer, At: now, Suspicion: r.level(st, now), Incarnation: st.inc}
		if r.opts.EvictAfter > 0 {
			r.rearmLocked(st, now.Add(r.opts.EvictAfter))
		} else {
			st.deadline = 0 // parked: kept until it recovers or is deregistered
		}
	case phaseOffline:
		delete(sh.streams, st.peer)
		ev = Event{Type: EventEvicted, Peer: st.peer, At: now, Incarnation: st.inc}
	}
	sh.mu.Unlock()
	if ev.Type == EventSuspect && r.markCount.Load() > 0 {
		r.noteDetection(ev.Peer, now)
	}
	r.publish(ev)
}

// level computes the accrual suspicion level (shard lock must be held).
func (r *Registry) level(st *stream, now clock.Time) float64 {
	if acc, ok := st.det.(detector.Accrual); ok {
		return acc.SuspicionLevel(now)
	}
	if st.det.Suspect(now) {
		return r.opts.SuspectLevel
	}
	return 0
}

func (r *Registry) publish(ev Event) {
	switch ev.Type {
	case EventSuspect:
		r.suspects.Add(1)
	case EventTrust:
		r.trusts.Add(1)
	case EventOffline:
		r.offlines.Add(1)
	case EventEvicted:
		r.evictions.Add(1)
	case EventCannotSatisfy:
		r.cannotSatisfy.Add(1)
	}
	r.bus.Publish(ev)
}

// SuspicionOf returns the peer's current accrual suspicion level at
// instant now; ok is false for unknown peers.
func (r *Registry) SuspicionOf(peer string, now clock.Time) (float64, bool) {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil {
		return 0, false
	}
	return r.level(st, now), true
}

// IncarnationOf returns the peer's current incarnation number; ok is
// false for unknown peers. The gossip layer uses it to stamp local
// opinions so a restarted process can refute suspicion of its old life.
func (r *Registry) IncarnationOf(peer string) (uint64, bool) {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil {
		return 0, false
	}
	return st.inc, true
}

// StatusOf classifies one stream at instant now; ok is false for
// unknown peers.
func (r *Registry) StatusOf(peer string, now clock.Time) (Status, bool) {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil {
		return StatusUnknown, false
	}
	s, _ := r.classify(st, now)
	return s, true
}

// classify maps a stream's phase (plus the accrual level for the
// busy/active refinement) onto Status. Shard lock must be held.
func (r *Registry) classify(st *stream, now clock.Time) (Status, float64) {
	if !st.seen {
		return StatusUnknown, 0
	}
	lvl := r.level(st, now)
	switch st.phase {
	case phaseOffline:
		return StatusOffline, lvl
	case phaseSuspected:
		return StatusSuspected, lvl
	default:
		switch {
		case lvl >= r.opts.SuspectLevel:
			// The wheel has not fired yet this tick; report what the
			// detector already knows.
			return StatusSuspected, lvl
		case lvl >= r.opts.BusyLevel:
			return StatusBusy, lvl
		default:
			return StatusActive, lvl
		}
	}
}

// Snapshot reports every stream at instant now, sorted by peer name —
// the "guidance" the paper's PlanetLab motivation asks for ("it is
// impractical to login one by one without any guidance"); FormatSnapshot
// renders it as a status board.
func (r *Registry) Snapshot(now clock.Time) []Report {
	out := make([]Report, 0, r.Len())
	for _, sh := range r.shards {
		sh.mu.Lock()
		for name, st := range sh.streams {
			status, lvl := r.classify(st, now)
			out = append(out, Report{
				Peer:           name,
				Status:         status,
				SuspicionLevel: lvl,
				LastSeq:        st.lastSeq,
				LastArrival:    st.lastArrival,
				FreshnessPoint: st.det.FreshnessPoint(),
				Detector:       st.det.Name(),
				Incarnation:    st.inc,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Stats returns one stream's QoS tracker; ok is false for unknown peers.
func (r *Registry) Stats(peer string) (StreamStats, bool) {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil {
		return StreamStats{}, false
	}
	return st.stats, true
}

// Inspect runs fn on a stream's detector under the shard lock; it
// reports whether the peer was tracked. fn must not retain the detector
// or call back into the registry — it is a read hatch for tests and
// diagnostics (e.g. chaos acceptance asserting the safety margin widened
// during a loss burst), not a mutation path.
func (r *Registry) Inspect(peer string, fn func(det detector.Detector)) bool {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil || st.det == nil {
		return false
	}
	fn(st.det)
	return true
}

// Counters returns the registry's monotonic counters plus current gauges.
func (r *Registry) Counters() Counters {
	pub, drop := r.bus.Stats()
	fs := r.bus.FanoutStats()
	return Counters{
		Heartbeats:    r.heartbeats.Load(),
		Stale:         r.stale.Load(),
		Registered:    r.registered.Load(),
		InvalidNames:  r.invalidNames.Load(),
		Suspects:      r.suspects.Load(),
		Trusts:        r.trusts.Load(),
		Offlines:      r.offlines.Load(),
		Evictions:     r.evictions.Load(),
		CannotSatisfy: r.cannotSatisfy.Load(),
		BusPublished:  pub,
		BusDropped:    drop,
		FanoutMatches: fs.Matches,
		FanoutDrops:   r.bus.TopicDropped(),
		WatchRejected: r.watchRejected.Load(),
		WatchConns:    int(r.watchConns.Load()),
		Streams:       r.Len(),
		WheelEntries:  r.wheel.len(),
		Subscribers:   r.bus.Subscribers(),
		TopicSubs:     fs.Subscriptions,
		TrieNodes:     fs.Nodes,
	}
}

// ShardOccupancy returns the stream count per shard (lock-stripe load
// balance; with FNV hashing it should be near-uniform).
func (r *Registry) ShardOccupancy() []int {
	out := make([]int, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.len()
	}
	return out
}
