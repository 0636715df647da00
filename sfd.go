// Package sfd (import path "repro") is the public API of this
// reproduction of "A Self-tuning Failure Detection Scheme for Cloud
// Computing Service" (Xiong et al., IEEE IPDPS 2012).
//
// It provides:
//
//   - The paper's contribution: the SFD self-tuning accrual failure
//     detector (NewSFD) and the general self-tuning wrapper for any
//     timeout-based detector (NewSelfTuner).
//   - The baselines the paper compares against: Chen FD (NewChen),
//     Bertier FD (NewBertier), the φ accrual FD (NewPhi), and a naive
//     fixed-timeout detector (NewFixed).
//   - QoS evaluation by trace replay (Replay, Sweep) with Chen et al.'s
//     metrics: detection time, mistake rate, query accuracy probability.
//   - Synthetic WAN heartbeat traces calibrated to the paper's Table II
//     (TracePreset, NewTraceGenerator), plus binary/CSV codecs.
//   - A live heartbeat stack over UDP or in-memory transports
//     (NewHeartbeatSender, NewHeartbeatReceiver, ListenUDP).
//   - One monitor core, the fleet-scale monitoring registry
//     (NewRegistry), implementing the paper's "one monitors multiple"
//     deployment: lock-striped shards, a hierarchical timer wheel
//     firing suspect transitions, the active / busy / suspected /
//     offline status model, a Quorum over several registries
//     ("multiple monitor multiple"), and a bounded drop-oldest
//     failure-event bus — firehose (Subscribe) or interest-routed over
//     hierarchical stream names with MQTT-style `+`/`#` wildcards
//     (SubscribeTopic, MatchTopic).
//   - A gossip dissemination layer between monitors (NewGossiper):
//     anti-entropy suspicion digests, accuracy-weighted quorum
//     corroboration, and SWIM-style incarnation refutation, publishing
//     GlobalSuspect / GlobalOffline / GlobalTrust verdicts on the bus.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	det := sfd.NewSFD(sfd.Config{
//		Targets: sfd.Targets{MaxTD: 900 * time.Millisecond, MaxMR: 0.35, MinQAP: 0.994},
//	})
//	det.Observe(seq, sendTime, recvTime) // per heartbeat
//	if det.Suspect(now) { ... }
package sfd

import (
	"io"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/fanout"
	"repro/internal/federate"
	"repro/internal/gossip"
	"repro/internal/heartbeat"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Time is a monotonic instant in nanoseconds (see internal/clock).
type Time = clock.Time

// Duration aliases time.Duration.
type Duration = clock.Duration

// Clock abstracts a monotonic time source (real or simulated).
type Clock = clock.Clock

// NewRealClock returns a wall-clock-backed Clock.
func NewRealClock() Clock { return clock.NewReal() }

// NewSimClock returns a deterministic simulated Clock starting at origin.
func NewSimClock(origin Time) *clock.Sim { return clock.NewSim(origin) }

// Detector is a heartbeat failure detector: it consumes arrivals and
// exposes a freshness point (the instant suspicion begins).
type Detector = detector.Detector

// Accrual is a Detector that also outputs a continuous suspicion level.
type Accrual = detector.Accrual

// DefaultWindowSize is the paper's sliding-window size (WS = 1000).
const DefaultWindowSize = detector.DefaultWindowSize

// Config configures an SFD instance (see core.Config for field docs).
type Config = core.Config

// Targets is an application's QoS requirement: max detection time, max
// mistake rate, min query accuracy probability.
type Targets = core.Targets

// QoS is the (TD, MR, QAP) tuple of the paper's Eq. 1.
type QoS = core.QoS

// SFD is the paper's Self-tuning Failure Detector.
type SFD = core.SFD

// State is the SFD tuning state.
type State = core.State

// Tuning states.
const (
	StateWarmup     = core.StateWarmup
	StateTuning     = core.StateTuning
	StateStable     = core.StateStable
	StateInfeasible = core.StateInfeasible
)

// NewSFD builds the paper's Self-tuning Failure Detector; zero Config
// fields take paper-faithful defaults (WS=1000, α=100ms, β=0.5).
func NewSFD(cfg Config) *SFD { return core.New(cfg) }

// DefaultConfig returns the paper-faithful SFD configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Tunable is a detector whose margin/timeout the general self-tuning
// method can drive.
type Tunable = core.Tunable

// TunerOptions configures NewSelfTuner.
type TunerOptions = core.TunerOptions

// SelfTuner retrofits the paper's feedback loop onto any Tunable.
type SelfTuner = core.SelfTuner

// NewSelfTuner wraps a Tunable detector with QoS feedback (§IV-A's
// general method).
func NewSelfTuner(d Tunable, opts TunerOptions) *SelfTuner { return core.NewSelfTuner(d, opts) }

// TunableChen adapts a Chen FD for NewSelfTuner (tunes α).
type TunableChen = core.TunableChen

// TunableFixed adapts a Fixed FD for NewSelfTuner (tunes the timeout).
type TunableFixed = core.TunableFixed

// NewChen builds Chen et al.'s adaptive FD: window estimation plus a
// constant safety margin alpha. interval 0 estimates Δt from arrivals.
func NewChen(windowSize int, interval, alpha Duration) *detector.Chen {
	return detector.NewChen(windowSize, interval, alpha)
}

// BertierParams are Bertier's estimator constants (β, φ, γ).
type BertierParams = detector.BertierParams

// NewBertier builds Bertier et al.'s adaptive FD; zero params take the
// published β=1, φ=4, γ=0.1.
func NewBertier(windowSize int, interval Duration, p BertierParams) *detector.Bertier {
	return detector.NewBertier(windowSize, interval, p)
}

// NewPhi builds the φ accrual FD with the given suspicion threshold Φ.
func NewPhi(windowSize int, threshold float64, minSigma Duration) *detector.Phi {
	return detector.NewPhi(windowSize, threshold, minSigma)
}

// NewFixed builds the naive constant-timeout baseline.
func NewFixed(timeout Duration, warmup int) *detector.Fixed {
	return detector.NewFixed(timeout, warmup)
}

// NewRTO builds the TCP-RTO-style detector (Jacobson/Karels smoothing of
// inter-arrival times, timeout = srtt + k·rttvar); k ≤ 0 defaults to 4.
func NewRTO(k float64, warmup int) *detector.RTO {
	return detector.NewRTO(k, warmup)
}

// NewPhiExp builds the exponential-tail accrual detector (the
// Cassandra-style simplification of φ).
func NewPhiExp(windowSize int, threshold float64) *detector.PhiExp {
	return detector.NewPhiExp(windowSize, threshold)
}

// Static configuration procedure (Chen-style provisioning; see
// internal/detector/configure.go for the derivation).
type (
	// NetworkStats is the probabilistic network model Configure consumes.
	NetworkStats = detector.NetworkStats
	// Requirements is the QoS an application demands of a detector.
	Requirements = detector.Requirements
	// Configuration is a computed (interval, margin) operating point.
	Configuration = detector.Configuration
)

// ErrInfeasible reports that no operating point satisfies the
// requirements — the static analogue of SFD's "can not satisfy" response.
var ErrInfeasible = detector.ErrInfeasible

// Configure computes a heartbeat interval and safety margin meeting the
// requirements on a network with the given loss/delay statistics, or
// ErrInfeasible. Use it to provision Δt and SM₁; SFD's feedback then
// keeps them matched to the live network.
func Configure(net NetworkStats, req Requirements) (Configuration, error) {
	return detector.Configure(net, req)
}

// Result is the measured QoS of one replay.
type Result = qos.Result

// CrashOutcome extends Result with actual crash-detection latency.
type CrashOutcome = qos.CrashOutcome

// Curve is a detector's QoS trade-off curve from a parameter sweep.
type Curve = qos.Curve

// Replay feeds a heartbeat trace through a detector and measures its QoS
// exactly as the paper's replay-based evaluation does.
func Replay(s trace.Stream, det Detector) Result { return qos.Replay(s, det) }

// ReplayWithCrash injects a crash at crashSeq and measures the actual
// detection latency alongside the pre-crash QoS.
func ReplayWithCrash(s trace.Stream, det Detector, crashSeq uint64) CrashOutcome {
	return qos.ReplayWithCrash(s, det, crashSeq)
}

// SweepFactory builds a detector per parameter value.
type SweepFactory = qos.Factory

// Sweep traces a detector's QoS curve by replaying the trace once per
// parameter value.
func Sweep(tr *trace.Trace, name string, f SweepFactory, params []float64) Curve {
	return qos.Sweep(tr, name, f, params)
}

// Trace types and generation.
type (
	// Trace is a materialized heartbeat trace.
	Trace = trace.Trace
	// TraceRecord is one heartbeat observation.
	TraceRecord = trace.Record
	// TraceMeta describes a trace's origin and parameters.
	TraceMeta = trace.Meta
	// TraceStream yields records in sequence order.
	TraceStream = trace.Stream
	// TraceGenParams parameterizes the synthetic WAN generator.
	TraceGenParams = trace.GenParams
	// TraceStats is the Table II statistics row for a trace.
	TraceStats = trace.Stats
)

// TracePreset returns the generator parameters of one of the paper's
// seven WAN environments ("WAN-JPCH", "WAN-1".."WAN-6").
func TracePreset(name string) (TraceGenParams, error) { return trace.Preset(name) }

// TracePresetNames lists the available environments in paper order.
func TracePresetNames() []string { return trace.PresetNames() }

// NewTraceGenerator returns a deterministic synthetic heartbeat stream.
func NewTraceGenerator(p TraceGenParams) TraceStream { return trace.NewGenerator(p) }

// CollectTrace materializes a stream.
func CollectTrace(meta TraceMeta, s TraceStream) *Trace { return trace.Collect(meta, s) }

// AnalyzeTrace computes a trace's Table II statistics.
func AnalyzeTrace(name string, s TraceStream) TraceStats { return trace.Analyze(name, s) }

// WriteTrace / ReadTrace encode traces in the compact binary format.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Write(w, t) }

// ReadTrace decodes a binary trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// Live heartbeat stack.
type (
	// Endpoint is an unreliable datagram endpoint.
	Endpoint = transport.Endpoint
	// HeartbeatArrival is one decoded heartbeat delivery.
	HeartbeatArrival = heartbeat.Arrival
	// HeartbeatSender emits periodic heartbeats (the paper's process p).
	HeartbeatSender = heartbeat.Sender
	// HeartbeatReceiver decodes and filters heartbeats (process q).
	HeartbeatReceiver = heartbeat.Receiver
	// Prober estimates RTT with ping/pong, like the paper's parallel
	// low-frequency ping process.
	Prober = heartbeat.Prober
)

// ListenUDP opens a UDP endpoint (e.g. "127.0.0.1:0") with default
// receive-path options: batched reads where the platform supports them,
// one ingest queue, a private receive-buffer pool.
func ListenUDP(addr string) (*transport.UDP, error) { return transport.ListenUDP(addr) }

// Million-stream ingest tuning (see internal/transport): the UDP
// receive path batches datagram reads (recvmmsg on Linux), lands
// payloads in pooled buffers, and can shard inbound traffic across
// several ingest queues drained in parallel by HeartbeatReceiver.
type (
	// UDPEndpoint is the concrete UDP endpoint with its receive-path
	// counters and multi-queue surface.
	UDPEndpoint = transport.UDP
	// UDPOptions tunes the batched receive path (queues, batch size,
	// buffer pool).
	UDPOptions = transport.UDPOptions
	// UDPCounters is a UDP endpoint's receive-path counter snapshot,
	// including datagrams dropped at full ingest queues.
	UDPCounters = transport.UDPCounters
	// QueuedEndpoint is the optional multi-queue surface of an endpoint.
	QueuedEndpoint = transport.QueuedEndpoint
	// BufPool is a bounded pool of fixed-size receive buffers.
	BufPool = transport.BufPool
	// BufPoolStats is a BufPool counter snapshot.
	BufPoolStats = transport.BufPoolStats
)

// MonitorIngest returns o with its receive path sized for a monitor's
// heartbeat socket: a deep SO_RCVBUF request and a buffer pool covering
// the whole ingest queue (see transport.MonitorIngest).
func MonitorIngest(o UDPOptions) UDPOptions { return transport.MonitorIngest(o) }

// ListenUDPOpts opens a UDP endpoint with explicit receive-path tuning.
func ListenUDPOpts(addr string, opts UDPOptions) (*transport.UDP, error) {
	return transport.ListenUDPOpts(addr, opts)
}

// NewBufPool builds a receive-buffer pool of up to `buffers` buffers of
// `size` bytes (defaults: 256 × 64 KiB). Share one pool across
// endpoints to share its memory bound.
func NewBufPool(buffers, size int) *BufPool { return transport.NewBufPool(buffers, size) }

// NewHub returns an in-memory datagram switchboard for socket-free use.
func NewHub(lossRate float64, delay Duration, seed int64) *transport.Hub {
	return transport.NewHub(lossRate, delay, seed)
}

// NewHeartbeatSender emits a heartbeat to `to` every interval.
func NewHeartbeatSender(ep Endpoint, to string, interval Duration, clk Clock) *HeartbeatSender {
	return heartbeat.NewSender(ep, to, interval, clk)
}

// NewHeartbeatReceiver drains ep, filters stale heartbeats, answers
// pings, and feeds arrivals to h.
func NewHeartbeatReceiver(ep Endpoint, clk Clock, h func(HeartbeatArrival)) *HeartbeatReceiver {
	return heartbeat.NewReceiver(ep, clk, h)
}

// NewProber measures RTT against `to` through ep.
func NewProber(ep Endpoint, to string, clk Clock) *Prober {
	return heartbeat.NewProber(ep, to, clk)
}

// Cloud-monitoring layer: the status model every Registry reports in.
type (
	// MonitorReport is a point-in-time view of one peer.
	MonitorReport = registry.Report
	// PeerStatus classifies a monitored server.
	PeerStatus = registry.Status
	// StatusSource classifies peers at an instant; *Registry satisfies it.
	StatusSource = cluster.StatusSource
	// Quorum aggregates several monitors ("multiple monitor multiple").
	Quorum = cluster.Quorum
	// DetectorFactory builds a detector per watched peer.
	DetectorFactory = registry.Factory
)

// Peer status values (the paper's active / busy / offline classification).
const (
	PeerUnknown   = registry.StatusUnknown
	PeerActive    = registry.StatusActive
	PeerBusy      = registry.StatusBusy
	PeerSuspected = registry.StatusSuspected
	PeerOffline   = registry.StatusOffline
)

// SFDFactory returns a DetectorFactory producing SFDs with the given
// targets and otherwise default configuration.
func SFDFactory(targets Targets) DetectorFactory { return registry.DefaultFactory(targets) }

// Reactor implements the paper's graduated-reaction pattern (§I):
// applications register actions at ascending suspicion thresholds; each
// fires once per suspicion episode.
type Reactor = cluster.Reactor

// ActionFunc reacts to a suspicion threshold crossing.
type ActionFunc = cluster.ActionFunc

// NewReactor returns an empty graduated-reaction registry.
func NewReactor() *Reactor { return cluster.NewReactor() }

// FormatSnapshot renders a Registry snapshot as an aligned status board.
func FormatSnapshot(reports []MonitorReport) string { return registry.FormatSnapshot(reports) }

// SummarizeSnapshot counts a snapshot by status and lists the peers
// needing attention.
func SummarizeSnapshot(reports []MonitorReport) (map[PeerStatus]int, []string) {
	return registry.Summarize(reports)
}

// Elector implements Ω (eventual leader election) over a StatusSource:
// the leader is the smallest-ranked candidate not currently suspected.
type Elector = cluster.Elector

// NewElector builds an elector for the candidate set; self is this
// process's own name and mon must watch the other candidates.
func NewElector(self string, mon StatusSource, candidates []string) *Elector {
	return cluster.NewElector(self, mon, candidates)
}

// Fleet-scale monitoring: the sharded registry, its timer wheel, and
// the failure-event bus (see internal/registry).
type (
	// Registry is a sharded, timer-wheel-scheduled monitoring table for
	// tens of thousands of heartbeat streams.
	Registry = registry.Registry
	// RegistryOptions tunes sharding, wheel granularity, thresholds, and
	// eviction policy.
	RegistryOptions = registry.Options
	// RegistryCounters is the registry's aggregate counter snapshot.
	RegistryCounters = registry.Counters
	// StreamStats is the per-stream ingest/mistake accounting.
	StreamStats = registry.StreamStats
	// Event is one failure-detection state transition on the event bus.
	Event = registry.Event
	// EventType classifies an Event.
	EventType = registry.EventType
	// Subscription is one subscriber's bounded, drop-oldest event queue.
	Subscription = registry.Subscription
	// SubscriptionStats is one subscription's delivery accounting
	// (delivered / dropped / queued), as listed on /vars.
	SubscriptionStats = registry.SubscriptionStats
	// FanoutStats is the topic trie's size and routing counters.
	FanoutStats = fanout.Stats
)

// Failure-event kinds published on the registry bus. The Global* kinds
// are corroborated verdicts from the gossip layer (Source names the
// publishing monitor); the rest are this monitor's local transitions.
const (
	EventSuspect       = registry.EventSuspect
	EventTrust         = registry.EventTrust
	EventOffline       = registry.EventOffline
	EventEvicted       = registry.EventEvicted
	EventCannotSatisfy = registry.EventCannotSatisfy
	EventGlobalSuspect = registry.EventGlobalSuspect
	EventGlobalOffline = registry.EventGlobalOffline
	EventGlobalTrust   = registry.EventGlobalTrust
)

// NewRegistry builds a fleet-scale monitoring registry. nil clk means
// the real clock; nil f defaults every stream to an SFD instance. Call
// Start to arm the timer wheel, Observe per heartbeat arrival, and
// Subscribe to consume transition events.
func NewRegistry(clk Clock, f DetectorFactory, opts RegistryOptions) *Registry {
	return registry.New(clk, f, opts)
}

// Interest-routed subscriptions: stream names are hierarchical
// (`region/cluster/host/service`), and a topic filter selects a subtree
// with MQTT-style wildcards — `+` matches exactly one segment, a final
// `#` matches the rest (including nothing). Registry.SubscribeTopic
// attaches a filtered subscription; the registry's /watch endpoint
// streams one as NDJSON over HTTP.

// MatchTopic reports whether a topic filter matches a stream name, e.g.
// MatchTopic("eu/+/web-1/#", "eu/zrh/web-1/api") == true. It returns
// false for invalid filters or names (see ValidateTopicFilter).
func MatchTopic(filter, name string) bool { return fanout.MatchTopic(filter, name) }

// ValidateStreamName reports whether a stream name is publishable:
// non-empty `/`-separated segments, no `+` or `#`. The registry rejects
// invalid names at registration.
func ValidateStreamName(name string) error { return fanout.ValidateName(name) }

// ValidateTopicFilter reports whether a topic filter is well-formed:
// wildcards only as whole segments, `#` only in the last position.
func ValidateTopicFilter(filter string) error { return fanout.ValidateFilter(filter) }

// Crash-safe state persistence and warm restart (see internal/persist):
// versioned, checksummed snapshots of registry + detector + gossip state
// rotated atomically on disk, restored on restart with a rewarm grace
// window so a short monitor outage produces zero spurious suspicions.
// Set RegistryOptions.StateDir to arm it; Registry.Stop flushes a final
// snapshot.
type (
	// StateSnapshot is one full capture of monitor state.
	StateSnapshot = persist.Snapshot
	// StateStreamRecord is one stream's row in a StateSnapshot.
	StateStreamRecord = persist.StreamRecord
	// StateDelta is one incremental journal entry between snapshots.
	StateDelta = persist.Delta
	// StateStore manages the snapshot/journal files in a state directory.
	StateStore = persist.Store
	// Checkpointer drives periodic snapshots and journal flushes.
	Checkpointer = persist.Checkpointer
	// CheckpointOptions tunes snapshot cadence and journal rotation.
	CheckpointOptions = persist.CheckpointOptions
)

// ErrNoSnapshot reports an empty state directory on restore — the normal
// first-boot condition, distinct from corruption.
var ErrNoSnapshot = persist.ErrNoSnapshot

// OpenStateStore opens (creating if needed) a state directory holding
// retain snapshot epochs (minimum 2).
func OpenStateStore(dir string, retain int) (*StateStore, error) {
	return persist.OpenStore(dir, retain)
}

// SaveSnapshot forces a full state checkpoint of reg now — the graceful-
// shutdown flush. With RegistryOptions.StateDir set this happens
// automatically on Registry.Stop; exported for on-demand use.
func SaveSnapshot(reg *Registry) error { return reg.SaveSnapshot() }

// RestoreSnapshot restores reg from its StateDir, reporting how many
// streams were recovered. downtime is how long the monitor was down;
// pass a negative value to derive it from the snapshot's wall-clock
// anchor. Registry.Start does this automatically; call it explicitly
// (before Start) to control the downtime or inspect the result.
func RestoreSnapshot(reg *Registry, downtime Duration) (int, error) {
	return reg.RestoreFromDisk(downtime)
}

// Gossip dissemination layer: multi-monitor suspicion exchange with
// accuracy-weighted quorum corroboration (see internal/gossip).
type (
	// Gossiper is one monitor's membership in the dissemination fabric.
	Gossiper = gossip.Gossiper
	// GossipOptions tunes round interval, fanout, quorum, weighting, and
	// opinion TTL.
	GossipOptions = gossip.Options
	// GossipEndpoint is the send-only datagram surface a Gossiper needs;
	// transport endpoints and netsim nodes both satisfy it.
	GossipEndpoint = gossip.Endpoint
	// GossipState is a monitor's per-subject opinion (trusted / suspect /
	// offline).
	GossipState = gossip.State
	// GossipOpinion is one monitor's view of one subject incarnation.
	GossipOpinion = gossip.Opinion
	// GossipDigest is the versioned anti-entropy exchange unit.
	GossipDigest = gossip.Digest
	// GossipCounters is the gossiper's counter snapshot.
	GossipCounters = gossip.Counters
)

// Gossip opinion states, ordered by severity.
const (
	GossipTrusted = gossip.StateTrusted
	GossipSuspect = gossip.StateSuspect
	GossipOffline = gossip.StateOffline
)

// NewGossiper attaches a dissemination-layer member to reg, gossiping
// over ep with the given peer monitor addresses. Feed received non-
// heartbeat datagrams to HandleDatagram (HeartbeatReceiver.SetForeign
// does this when the socket is shared) and call Start. Corroborated
// verdicts surface as EventGlobal* events on reg's bus.
func NewGossiper(ep GossipEndpoint, clk Clock, reg *Registry, peers []string, opts GossipOptions) *Gossiper {
	return gossip.New(ep, clk, reg, peers, opts)
}

// Hierarchical federation tier (see internal/federate): leaf monitors
// own cohorts of heartbeat streams (topic-filter prefixes) and roll
// compact per-cohort digests up to a regional aggregator over the same
// unreliable datagram fabric as heartbeats. The aggregator merges
// digests into a fleet view (GET /fleet), monitors leaf liveness with
// the same SFD detector machinery (the digest stream is itself a
// monitored heartbeat stream), and on leaf death re-delegates the dead
// leaf's cohorts to surviving leaves through a versioned assignment
// table. Digest bandwidth is O(cohorts), not O(streams).
type (
	// FederationLeaf is a leaf monitor's roll-up agent: it sweeps the
	// local Registry, folds bus transitions into per-cohort digests, and
	// pushes them to its aggregator every interval.
	FederationLeaf = federate.Leaf
	// FederationLeafOptions tunes identity, cohorts, and roll-up cadence.
	FederationLeafOptions = federate.LeafOptions
	// FederationLeafCounters is the leaf's counter snapshot.
	FederationLeafCounters = federate.LeafCounters
	// FederationAggregator is the regional tier: digest merge, leaf
	// liveness, cohort re-delegation, and the /fleet query surface.
	FederationAggregator = federate.Aggregator
	// FederationAggregatorOptions tunes digest cadence and leaf-liveness
	// thresholds.
	FederationAggregatorOptions = federate.AggregatorOptions
	// FederationAggCounters is the aggregator's counter snapshot.
	FederationAggCounters = federate.AggCounters
	// FederationDigest is one leaf→aggregator roll-up datagram.
	FederationDigest = federate.Digest
	// FederationCohortDigest is one cohort's row inside a digest.
	FederationCohortDigest = federate.CohortDigest
	// FederationAssignment is one aggregator→leaf cohort-ownership table.
	FederationAssignment = federate.Assignment
	// FederationRedelegation records one re-delegation round.
	FederationRedelegation = federate.RedelegationRecord
	// FederationPeerBeat is one aggregator→aggregator HA state heartbeat.
	FederationPeerBeat = federate.PeerBeat
	// FederationMirror is one aggregator→aggregator anti-entropy state
	// mirror chunk.
	FederationMirror = federate.Mirror
	// FederationAck is one aggregator→leaf digest receipt (leaves track
	// per-aggregator reachability from it).
	FederationAck = federate.Ack
	// FederationPeerInfo is one HA peer row as served by /fleet.
	FederationPeerInfo = federate.PeerInfo
)

// NewFederationLeaf attaches a roll-up agent to reg, digesting to the
// aggregator at agg through ep — or to the ordered HA pair in
// opts.Aggs, which supersedes agg. Feed received federation datagrams
// (assignment tables and digest acks) to HandleDatagramFrom and call
// Start.
func NewFederationLeaf(ep GossipEndpoint, clk Clock, reg *Registry, agg string, opts FederationLeafOptions) (*FederationLeaf, error) {
	return federate.NewLeaf(ep, clk, reg, agg, opts)
}

// NewFederationAggregator builds a regional aggregator replying through
// ep. Set opts.Peers to run it as half of an HA pair: the pair exchange
// state heartbeats and anti-entropy mirrors, elect the lowest alive id
// leader, and fail over within a few digest intervals. Feed received
// datagrams to HandleDatagram(from, payload) and call Start; mount
// Handler() for GET /fleet.
func NewFederationAggregator(ep GossipEndpoint, clk Clock, opts FederationAggregatorOptions) *FederationAggregator {
	return federate.NewAggregator(ep, clk, opts)
}

// IsFederationDatagram reports whether a payload carries the federation
// magic — the dispatch test when the socket is shared with heartbeats
// and gossip.
func IsFederationDatagram(payload []byte) bool { return federate.IsFederation(payload) }

// Instrumentation layer: dependency-free atomic counters, gauges, and
// fixed-bucket histograms with Prometheus text exposition (see
// internal/metrics). Registry.Metrics() returns the registry's set;
// HeartbeatReceiver.InstrumentMetrics and Gossiper.InstrumentMetrics
// register their instruments into it so one /metrics page covers the
// whole pipeline.
type (
	// MetricsSet is a named instrument collection exposed together as one
	// Prometheus text page (Handler / WritePrometheus).
	MetricsSet = metrics.Set
	// MetricsCounter is a lock-free monotonic counter.
	MetricsCounter = metrics.Counter
	// MetricsGauge is an atomically settable float64 gauge.
	MetricsGauge = metrics.Gauge
	// MetricsHistogram is a fixed-bucket cumulative histogram whose
	// Observe is lock- and allocation-free.
	MetricsHistogram = metrics.Histogram
	// MetricsEmitter receives scrape-time samples from Sampled callbacks.
	MetricsEmitter = metrics.Emitter
)

// NewMetricsSet returns an empty instrument set for application metrics.
func NewMetricsSet() *MetricsSet { return metrics.NewSet() }

// MetricName composes a series name from a family and label key/value
// pairs, escaping label values per the Prometheus text format.
func MetricName(family string, labels ...string) string { return metrics.Name(family, labels...) }

// Chaos fault-injection layer (see internal/chaos): an Endpoint
// middleware that injects deterministic, seeded impairments — burst
// loss, delay/jitter, reordering, duplication, truncation, directional
// partitions, clock skew — into the live heartbeat stack, steered by a
// runtime Controller and scriptable Scenario timelines.
type (
	// ChaosController arms/disarms impairments, owns the injection
	// randomness and counters, and replays Scenario timelines.
	ChaosController = chaos.Controller
	// ChaosEndpoint wraps any Endpoint with the armed impairments.
	ChaosEndpoint = chaos.Endpoint
	// ChaosImpairment is one parameterized fault.
	ChaosImpairment = chaos.Impairment
	// ChaosScenario is an ordered impairment timeline.
	ChaosScenario = chaos.Scenario
	// ChaosStep is one scenario timeline entry.
	ChaosStep = chaos.Step
	// ChaosKind names an impairment class.
	ChaosKind = chaos.Kind
	// ChaosDirection selects inbound/outbound/both traffic.
	ChaosDirection = chaos.Direction
	// ChaosSpan is a duration that marshals as a human string.
	ChaosSpan = chaos.Span
	// ChaosCounters is the controller's injection-counter snapshot.
	ChaosCounters = chaos.Counters
	// SkewedClock offsets a Clock by a settable step plus drift — the
	// send-side timestamp-skew fault.
	SkewedClock = chaos.SkewedClock
)

// Impairment kinds.
const (
	ChaosLoss      = chaos.KindLoss
	ChaosDelay     = chaos.KindDelay
	ChaosReorder   = chaos.KindReorder
	ChaosDuplicate = chaos.KindDuplicate
	ChaosTruncate  = chaos.KindTruncate
	ChaosPartition = chaos.KindPartition
	ChaosSkew      = chaos.KindSkew
)

// Impairment directions.
const (
	ChaosDirBoth = chaos.DirBoth
	ChaosDirIn   = chaos.DirIn
	ChaosDirOut  = chaos.DirOut
)

// NewChaosController builds an idle impairment controller drawing
// injection randomness from seed. nil clk means the real clock.
func NewChaosController(clk Clock, seed int64) *ChaosController {
	return chaos.NewController(clk, seed)
}

// WrapChaos layers chaos injection over an endpoint, steered by ctl.
func WrapChaos(inner Endpoint, ctl *ChaosController) *ChaosEndpoint {
	return chaos.Wrap(inner, ctl)
}

// ParseChaosScenario decodes and validates a JSON scenario file.
func ParseChaosScenario(b []byte) (ChaosScenario, error) { return chaos.ParseScenario(b) }

// ParseChaosDSL parses the compact flag form of a scenario, e.g.
// "seed=7;2s+10s:loss(rate=0.3,burst=5);15s+5s:partition(dir=in)".
func ParseChaosDSL(s string) (ChaosScenario, error) { return chaos.ParseDSL(s) }

// NewSkewedClock wraps a Clock with zero initial skew; attach it to a
// ChaosController so skew impairments drive it.
func NewSkewedClock(inner Clock) *SkewedClock { return chaos.NewSkewedClock(inner) }

// Inbound is one received datagram (transport layer).
type Inbound = transport.Inbound

// Pump drains an endpoint into a handler until the endpoint closes; run
// it on its own goroutine to feed a Gossiper that owns a whole socket.
func Pump(ep Endpoint, h func(Inbound)) { transport.Pump(ep, h) }

// Simulation layer (deterministic, no sockets).
type (
	// SimCluster is a simulated monitoring deployment.
	SimCluster = cluster.SimCluster
	// Consortium is the Fig. 1 multi-cloud scenario.
	Consortium = cluster.Consortium
	// ConsortiumConfig parameterizes BuildConsortium.
	ConsortiumConfig = cluster.ConsortiumConfig
	// LinkParams describes a simulated network link.
	LinkParams = netsim.LinkParams
)

// NewSimCluster creates a simulated deployment with the given default
// link parameters and seed.
func NewSimCluster(def LinkParams, seed int64) *SimCluster {
	return cluster.NewSimCluster(def, seed)
}

// BuildConsortium constructs the education-cloud consortium of Fig. 1.
func BuildConsortium(cfg ConsortiumConfig) *Consortium { return cluster.BuildConsortium(cfg) }

// Consensus layer: Chandra–Toueg consensus driven by these failure
// detectors (the paper's ◇P_ac ⇒ consensus claim, executable).
type (
	// ConsensusCluster is a simulated set of consensus processes.
	ConsensusCluster = consensus.Cluster
	// ConsensusOptions configures NewConsensus.
	ConsensusOptions = consensus.Options
	// ConsensusProcess is one participant.
	ConsensusProcess = consensus.Process
)

// NewConsensus builds a simulated consensus cluster whose processes
// monitor each other with detectors from Options.Factory (default: Chen).
func NewConsensus(opts ConsensusOptions) *ConsensusCluster { return consensus.New(opts) }

// Load harness (internal/load): real-traffic scenario driver spawning
// tens of thousands of named UDP heartbeat senders over a socket pool,
// injecting kill / restart / NAT-rebind faults on a timeline, and
// scoring ground-truth detection latency against the monitor's /watch
// stream. `cmd/sfdload` is the CLI front end.
type (
	// LoadPacer shapes sender timing: interval, jitter, ramp.
	LoadPacer = load.Pacer
	// LoadSpec is a complete load scenario (cohorts, faults, bounds).
	LoadSpec = load.Spec
	// LoadCohort is one homogeneous slice of a load fleet.
	LoadCohort = load.CohortSpec
	// LoadFault schedules one kill/rebind wave over a cohort.
	LoadFault = load.FaultSpec
	// LoadBounds are the pass/fail gates a run is scored against.
	LoadBounds = load.Bounds
	// LoadReport is a run's JSON artifact.
	LoadReport = load.Report
	// LoadFleet runs N logical senders over a pooled socket set.
	LoadFleet = load.Fleet
	// LoadFleetOptions configures a fleet cohort.
	LoadFleetOptions = load.FleetOptions
	// PacedSender is a single jitter/ramp-paced heartbeat sender.
	PacedSender = load.PacedSender
	// LoadFederationSpec is a federation-HA load scenario: heartbeat
	// fleets → leaf monitors → an HA aggregator pair over real loopback
	// UDP, with a scripted kill (and restart) of the active aggregator.
	LoadFederationSpec = load.FederationSpec
	// LoadFederationBounds are a federation-HA run's pass/fail gates
	// (promotion latency, /fleet availability gap, lost transitions).
	LoadFederationBounds = load.FederationBounds
	// LoadFederationReport is a federation-HA run's JSON artifact.
	LoadFederationReport = load.FederationReport
)

// LoadPresets lists the built-in load scenarios.
func LoadPresets() []string { return load.Presets() }

// LoadPreset returns a built-in load scenario by name (datacenter,
// mobile, mixed-fleet); adjust Total/Duration/Bounds before RunLoad.
func LoadPreset(name string) (LoadSpec, error) { return load.Preset(name) }

// RunLoad executes a load scenario end to end and returns its scored
// report; progress (nil to silence) gets periodic status lines.
func RunLoad(spec LoadSpec, progress io.Writer) (*LoadReport, error) {
	return load.Run(spec, progress)
}

// NewLoadFleet builds (without starting) a fleet of logical senders.
func NewLoadFleet(opts LoadFleetOptions) (*LoadFleet, error) { return load.NewFleet(opts) }

// LoadFederationPreset returns the built-in federation-HA scenario;
// adjust StreamsPerLeaf / Duration / Bounds before RunLoadFederation.
func LoadFederationPreset() LoadFederationSpec { return load.FederationPreset() }

// RunLoadFederation executes a federation-HA scenario end to end —
// leaves and an aggregator pair under live heartbeat load, the active
// aggregator killed (and restarted) on a timeline — and scores the
// failover by polling both /fleet surfaces: promotion latency, longest
// availability gap, and transition totals that must not regress.
func RunLoadFederation(spec LoadFederationSpec, progress io.Writer) (*LoadFederationReport, error) {
	return load.RunFederation(spec, progress)
}

// NewPacedHeartbeatSender builds a single paced sender: heartbeats to
// `to` through ep every pacer interval ± jitter, after a ramp delay. A
// non-empty name sends wire-v3 named heartbeats (the monitor keys the
// stream by name instead of source address, so it survives NAT
// rebinds).
func NewPacedHeartbeatSender(ep Endpoint, to, name string, pacer LoadPacer, seed int64, clk Clock) (*PacedSender, error) {
	return load.NewPacedSender(ep, to, name, pacer, seed, clk)
}
