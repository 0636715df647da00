package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/federate"
	"repro/internal/heartbeat"
	"repro/internal/registry"
)

// spanKind names one layer boundary the traced run records.
type spanKind uint8

const (
	spIngest  spanKind = iota // sender stamp → Registry.Observe returned
	spWait                    // sender stamp → Handler entry (kernel, recvmmsg, queue, decode, stale filter)
	spObserve                 // Registry.Observe
	spCore                    // core.SFD.Observe inside it
	spTick                    // one Registry.Tick
	spBus                     // Event.At → receive on an in-process topic subscription
	spWatch                   // Event.At → /watch line decoded
	spDetect                  // Fleet.Kill instant → suspect line decoded
	spRollup                  // one federate Leaf.Rollup
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"ingest", "transport.wait", "registry.observe", "core.observe",
	"registry.tick", "bus.deliver", "watch.lag", "detect", "federate.rollup",
}

// span is one timed interval. Heartbeat spans carry the stream and its
// (incarnation, sequence) as their id; event spans the peer, its
// incarnation and the event type.
type span struct {
	kind       spanKind
	start, end clock.Time
	parent     int32 // index into the span list, -1 for a root
	stream     string
	a, b       uint64
	label      string
}

func (s span) id() string {
	switch s.kind {
	case spIngest, spWait, spObserve, spCore:
		return fmt.Sprintf("%s#%d.%d", s.stream, s.a, s.b)
	case spBus, spWatch, spDetect:
		return fmt.Sprintf("%s#%d:%s", s.stream, s.a, s.label)
	default:
		return fmt.Sprintf("%s#%d", spanNames[s.kind], s.a)
	}
}

// tracer times the calls the benchmark makes into each layer's public
// functions. Tracing is switched on and off in alternating slices of the
// measured window (on), so one run yields both the per-layer numbers and
// the untraced throughput they cost. Spans are sampled and bounded, kept
// in memory, and written out when the run ends.
type tracer struct {
	clk clock.Clock
	on  atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped uint64

	// Per-call populations, recorded while on (nanoseconds).
	ingest, wait, observe *recorder
	coreObs               *recorder
	tick, bus, watch      *recorder
	rollup, digest        *recorder
	coreNew               *recorder // factory calls while admitting (see newTiming)
	freshSum, freshN      atomic.Int64
	newCalls              atomic.Int64 // every factory call
	newTiming             atomic.Bool  // time factory calls (final setup round)

	// Receiver-goroutine state: the ingest path is one goroutine (one
	// ingest queue), so the handler and the detector it calls into share
	// these without locks.
	seen               uint64
	sampling           bool
	coreStart, coreEnd clock.Time
	// Owned by the wheel and roll-up drivers respectively.
	tickN, rollupN uint64
}

const (
	maxSpans    = 200000
	sampleEvery = 64 // heartbeats per sampled heartbeat span set
)

func newTracer(clk clock.Clock, perCall int) *tracer {
	return &tracer{
		clk:     clk,
		spans:   make([]span, 0, maxSpans),
		ingest:  newRecorder(perCall),
		wait:    newRecorder(perCall),
		observe: newRecorder(perCall),
		coreObs: newRecorder(perCall),
		tick:    newRecorder(1 << 14),
		bus:     newRecorder(1 << 16),
		watch:   newRecorder(1 << 16),
		rollup:  newRecorder(1 << 10),
		digest:  newRecorder(1 << 10),
		coreNew: newRecorder(1 << 17),
	}
}

// record appends a span and returns its index (-1 when the bound is hit).
func (t *tracer) record(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// handler wraps the arrival handler handed to heartbeat.NewReceiver.
func (t *tracer) handler(obs heartbeat.Handler) heartbeat.Handler {
	return func(a heartbeat.Arrival) {
		if !t.on.Load() {
			obs(a)
			return
		}
		t0 := t.clk.Now()
		t.seen++
		t.sampling = t.seen%sampleEvery == 0
		t1 := t.clk.Now()
		obs(a)
		t2 := t.clk.Now()
		t.ingest.add(int64(t2 - a.Send))
		t.wait.add(int64(t0 - a.Send))
		t.observe.add(int64(t2 - t1))
		if !t.sampling {
			return
		}
		t.sampling = false
		root := t.record(span{kind: spIngest, start: a.Send, end: t2, parent: -1, stream: a.From, a: a.Inc, b: a.Seq})
		if root < 0 {
			return
		}
		t.record(span{kind: spWait, start: a.Send, end: t0, parent: root, stream: a.From, a: a.Inc, b: a.Seq})
		obsIdx := t.record(span{kind: spObserve, start: t1, end: t2, parent: root, stream: a.From, a: a.Inc, b: a.Seq})
		if obsIdx >= 0 && t.coreEnd > 0 {
			t.record(span{kind: spCore, start: t.coreStart, end: t.coreEnd, parent: obsIdx, stream: a.From, a: a.Inc, b: a.Seq})
		}
		t.coreStart, t.coreEnd = 0, 0
	}
}

// factory wraps the registry's detector factory: every detector is a
// tracedSFD, every creation is counted, and creation is timed while the
// final set-up round admits the fleet.
func (t *tracer) factory(inner registry.Factory) registry.Factory {
	return func(peer string) detector.Detector {
		t.newCalls.Add(1)
		if !t.newTiming.Load() {
			return &tracedSFD{SFD: inner(peer).(*core.SFD), t: t}
		}
		t0 := t.clk.Now()
		d := inner(peer).(*core.SFD)
		t.coreNew.add(int64(t.clk.Now() - t0))
		return &tracedSFD{SFD: d, t: t}
	}
}

// tracedSFD is the paper's detector with its hot calls timed. It embeds
// *core.SFD, so every optional method the registry looks for by type
// assertion (State, Response, Margin, LastAdjustment, ExportState, ...)
// is still there; trace_test.go asserts it.
type tracedSFD struct {
	*core.SFD
	t *tracer
}

func (d *tracedSFD) Observe(seq uint64, send, recv clock.Time) {
	t := d.t
	if !t.on.Load() {
		d.SFD.Observe(seq, send, recv)
		return
	}
	t0 := t.clk.Now()
	d.SFD.Observe(seq, send, recv)
	t1 := t.clk.Now()
	t.coreObs.add(int64(t1 - t0))
	if t.sampling {
		t.coreStart, t.coreEnd = t0, t1
	}
}

func (d *tracedSFD) FreshnessPoint() clock.Time {
	t := d.t
	if !t.on.Load() {
		return d.SFD.FreshnessPoint()
	}
	t0 := t.clk.Now()
	fp := d.SFD.FreshnessPoint()
	t.freshSum.Add(int64(t.clk.Now() - t0))
	t.freshN.Add(1)
	return fp
}

// timeTick drives one wheel tick, timing it while on.
func (t *tracer) timeTick(reg *registry.Registry, now clock.Time) {
	if !t.on.Load() {
		reg.Tick(now)
		return
	}
	t0 := t.clk.Now()
	reg.Tick(now)
	t1 := t.clk.Now()
	t.tick.add(int64(t1 - t0))
	t.tickN++
	if t.tickN%16 == 0 {
		t.record(span{kind: spTick, start: t0, end: t1, parent: -1, a: t.tickN})
	}
}

// timeRollup drives one federation roll-up, timing it and the digest
// bytes it sent while on.
func (t *tracer) timeRollup(leaf *federate.Leaf, now clock.Time, sent *atomic.Uint64) {
	if !t.on.Load() {
		leaf.Rollup(now)
		return
	}
	b0 := sent.Load()
	t0 := t.clk.Now()
	leaf.Rollup(now)
	t1 := t.clk.Now()
	t.rollup.add(int64(t1 - t0))
	t.digest.add(int64(sent.Load() - b0))
	t.rollupN++
	t.record(span{kind: spRollup, start: t0, end: t1, parent: -1, a: t.rollupN})
}

// event records an event-path span (bus delivery, /watch decode or a
// detection) and returns its index for children to hang off.
func (t *tracer) event(kind spanKind, peer string, inc uint64, label string, at, now clock.Time, parent int32) int32 {
	return t.record(span{kind: kind, start: at, end: now, parent: parent, stream: peer, a: inc, label: label})
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	MeanUS  float64 `json:"mean_us"`
	SelfUS  float64 `json:"self_mean_us"`
	ShareOf string  `json:"parent,omitempty"`
}

// selfTimes computes, per span name, the mean duration and the mean self
// time: the duration minus the part of it that child spans cover.
func selfTimes(spans []span) []layerRow {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := s.start, s.end
		if lo < p.start {
			lo = p.start
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			covered[s.parent] += int64(hi - lo)
		}
	}
	type acc struct {
		n         int
		dur, self int64
		parent    string
	}
	var per [numSpanKinds]acc
	for i, s := range spans {
		d := int64(s.end - s.start)
		a := &per[s.kind]
		a.n++
		a.dur += d
		a.self += d - covered[i]
		if s.parent >= 0 {
			a.parent = spanNames[spans[s.parent].kind]
		}
	}
	var rows []layerRow
	for k, a := range per {
		if a.n == 0 {
			continue
		}
		rows = append(rows, layerRow{
			Name:    spanNames[k],
			Count:   a.n,
			MeanUS:  float64(a.dur) / float64(a.n) / 1e3,
			SelfUS:  float64(a.self) / float64(a.n) / 1e3,
			ShareOf: a.parent,
		})
	}
	return rows
}

// ingestSplit sums, over sampled heartbeats, the traced ingest latency
// and the transport.wait + registry.observe spans of the same
// heartbeats. The two agree up to the handler's own few instructions.
func ingestSplit(spans []span) (ingest, parts int64, n int) {
	children := make(map[int32]int64)
	for _, s := range spans {
		if s.parent >= 0 && (s.kind == spWait || s.kind == spObserve) {
			children[s.parent] += int64(s.end - s.start)
		}
	}
	for i, s := range spans {
		if s.kind != spIngest {
			continue
		}
		ingest += int64(s.end - s.start)
		parts += children[int32(i)]
		n++
	}
	return ingest, parts, n
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() ([]span, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// dump writes the spans as JSON lines, then the self-time table.
func dump(w io.Writer, spans []span, dropped uint64, rows []layerRow) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type spanJSON struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		ID     string `json:"id"`
	}
	for _, s := range spans {
		if err := enc.Encode(spanJSON{spanNames[s.kind], int64(s.start), int64(s.end), s.parent, s.id()}); err != nil {
			return err
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	if err := enc.Encode(map[string]any{"self_time": rows, "spans": len(spans), "spans_dropped": dropped}); err != nil {
		return err
	}
	return bw.Flush()
}
