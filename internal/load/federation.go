package load

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/federate"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

// Federation-tier load scenario: a real-UDP deployment of the full
// hierarchy — heartbeat fleets → leaf monitors → an HA aggregator pair —
// with a scripted kill of the active aggregator mid-run. The run is
// scored the way an operator would experience the failover: by polling
// both aggregators' /fleet endpoints over HTTP and measuring how long
// the fleet view was unavailable (no aggregator serving as leader), how
// fast the standby promoted, and whether any cohort transition totals
// regressed across the failover (the zero-lost-transitions invariant,
// checked over live traffic instead of netsim).

// FederationBounds are the pass/fail gates of a federation-HA run.
type FederationBounds struct {
	// MaxPromotion bounds kill→standby-serving-as-leader latency.
	MaxPromotion time.Duration `json:"max_promotion"`
	// MaxFleetGap bounds the longest span between two successive polls
	// that found some aggregator serving /fleet as leader.
	MaxFleetGap time.Duration `json:"max_fleet_gap"`
	// MaxLostTransitions bounds the regression of cumulative cohort
	// offline totals across the failover (0 = none tolerated).
	MaxLostTransitions int `json:"max_lost_transitions"`
	// MinOfflines requires the final fleet view to carry at least this
	// many offline transitions — the injected stream kills must have
	// been detected AND survived the failover (0 = the injected count).
	MinOfflines int `json:"min_offlines"`
}

// FederationSpec is a complete federation-HA load scenario.
type FederationSpec struct {
	Name string `json:"name"`
	// Topology: Regions × LeavesPerRegion leaf monitors, each owning one
	// cohort of StreamsPerLeaf heartbeat senders.
	Regions         int `json:"regions"`
	LeavesPerRegion int `json:"leaves_per_region"`
	StreamsPerLeaf  int `json:"streams_per_leaf"`
	// Interval is the senders' heartbeat period; DigestInterval is the
	// leaves' roll-up period and the aggregator pair's HA round.
	Interval       time.Duration `json:"interval"`
	DigestInterval time.Duration `json:"digest_interval"`
	Duration       time.Duration `json:"duration"`
	Seed           int64         `json:"seed,omitempty"`
	// KillAt is when the active aggregator is killed, as a fraction of
	// the run; KillStreams senders in the first leaf's cohort are killed
	// halfway to that point, so their offline transitions are in flight
	// or freshly merged when the aggregator dies.
	KillAt      float64 `json:"kill_at"`
	KillStreams int     `json:"kill_streams"`
	// RestartAfter revives the killed aggregator (incarnation bumped)
	// this long after its kill; it must rejoin as standby, catch up by
	// anti-entropy, and take leadership back (lowest id wins). Negative
	// leaves it dead.
	RestartAfter time.Duration `json:"restart_after"`
	// PollEvery is the /fleet availability-probe cadence (default:
	// DigestInterval / 5).
	PollEvery time.Duration    `json:"poll_every,omitempty"`
	Bounds    FederationBounds `json:"bounds"`
}

func (s *FederationSpec) normalize() error {
	if s.Name == "" {
		s.Name = "federation-ha"
	}
	if s.Regions <= 0 {
		s.Regions = 2
	}
	if s.LeavesPerRegion <= 0 {
		s.LeavesPerRegion = 2
	}
	if s.StreamsPerLeaf <= 0 {
		return fmt.Errorf("load: federation streams-per-leaf must be positive (got %d)", s.StreamsPerLeaf)
	}
	if s.Interval <= 0 {
		s.Interval = 250 * time.Millisecond
	}
	if s.DigestInterval <= 0 {
		s.DigestInterval = 2 * s.Interval
	}
	if s.Duration <= 0 {
		return fmt.Errorf("load: federation duration must be positive (got %v)", s.Duration)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.KillAt <= 0 || s.KillAt >= 1 {
		s.KillAt = 0.45
	}
	if s.KillStreams <= 0 {
		s.KillStreams = 25
	}
	if s.KillStreams > s.StreamsPerLeaf {
		s.KillStreams = s.StreamsPerLeaf
	}
	if s.RestartAfter == 0 {
		s.RestartAfter = 4 * s.DigestInterval
	}
	if s.PollEvery <= 0 {
		s.PollEvery = s.DigestInterval / 5
	}
	if s.Bounds.MaxPromotion <= 0 {
		s.Bounds.MaxPromotion = 4 * s.DigestInterval
	}
	if s.Bounds.MaxFleetGap <= 0 {
		s.Bounds.MaxFleetGap = 6 * s.DigestInterval
	}
	if s.Bounds.MinOfflines <= 0 {
		s.Bounds.MinOfflines = s.KillStreams
	}
	return nil
}

// FederationPreset returns the built-in federation-HA scenario; adjust
// StreamsPerLeaf / Duration / Bounds before RunFederation.
func FederationPreset() FederationSpec {
	return FederationSpec{
		Name:            "federation-ha",
		Regions:         2,
		LeavesPerRegion: 2,
		StreamsPerLeaf:  150,
		Duration:        30 * time.Second,
	}
}

// FederationReport is a federation-HA run's JSON artifact.
type FederationReport struct {
	Scenario  string    `json:"scenario"`
	StartedAt time.Time `json:"started_at"`
	WallTime  float64   `json:"wall_time_s"`

	Regions         int   `json:"regions"`
	LeavesPerRegion int   `json:"leaves_per_region"`
	StreamsPerLeaf  int   `json:"streams_per_leaf"`
	TotalStreams    int   `json:"total_streams"`
	Seed            int64 `json:"seed"`

	// Availability, as the /fleet pollers saw it.
	Polls         int     `json:"fleet_polls"`
	Served        int     `json:"fleet_polls_served"`
	FleetGapS     float64 `json:"fleet_gap_s"`     // longest no-leader span
	PromotionS    float64 `json:"promotion_s"`     // agg kill → standby serving as leader
	FailbackS     float64 `json:"failback_s"`      // agg restart → old active leading again
	KilledAgg     string  `json:"killed_agg"`      // which aggregator the script killed
	RestartAfterS float64 `json:"restart_after_s"` // kill → scripted restart delay (<0: stayed dead)
	FinalLeader   string  `json:"final_leader"`    // leader at run end

	// Transition accounting across the failover.
	InjectedStreamKills int    `json:"injected_stream_kills"`
	OfflinesPreKill     uint64 `json:"offlines_pre_kill"`     // leader totals just before the agg kill
	OfflinesAtPromotion uint64 `json:"offlines_at_promotion"` // promoted standby's totals
	OfflinesFinal       uint64 `json:"offlines_final"`
	LostTransitions     int    `json:"lost_transitions"`

	// Final fleet-view shape at the run-end leader.
	FinalStreams       uint64 `json:"final_streams"`
	FinalLiveLeaves    int    `json:"final_live_leaves"`
	Leaves             int    `json:"leaves"`
	FinalAssignVersion uint64 `json:"final_assign_version"`
	Redelegations      int    `json:"redelegations"`

	// Ground-truth stream-kill detection latency at the marked leaf.
	Detection registry.DetectionLatency `json:"leaf_detection_latency"`

	Bounds     FederationBounds `json:"bounds"`
	Violations []string         `json:"violations,omitempty"`
	Pass       bool             `json:"pass"`
}

func (r *FederationReport) evaluate(restarted bool) {
	b := r.Bounds
	add := func(format string, a ...any) {
		r.Violations = append(r.Violations, fmt.Sprintf(format, a...))
	}
	if r.PromotionS <= 0 {
		add("standby never promoted after the aggregator kill")
	} else if d := time.Duration(r.PromotionS * float64(time.Second)); d > b.MaxPromotion {
		add("promotion latency %.2fs > max %v", r.PromotionS, b.MaxPromotion)
	}
	if d := time.Duration(r.FleetGapS * float64(time.Second)); d > b.MaxFleetGap {
		add("/fleet availability gap %.2fs > max %v", r.FleetGapS, b.MaxFleetGap)
	}
	if r.LostTransitions > b.MaxLostTransitions {
		add("lost transitions %d > max %d across failover", r.LostTransitions, b.MaxLostTransitions)
	}
	if r.OfflinesFinal < uint64(b.MinOfflines) {
		add("final offline total %d < injected %d (kills lost across failover)",
			r.OfflinesFinal, b.MinOfflines)
	}
	// No leaf died, so a correct failover issues no assignment tables:
	// any re-delegation here is a duplicate / spurious one.
	if r.Redelegations != 0 || r.FinalAssignVersion != 0 {
		add("spurious re-delegation during aggregator failover (version %d, %d records)",
			r.FinalAssignVersion, r.Redelegations)
	}
	if r.FinalLiveLeaves != r.Leaves {
		add("final fleet view has %d/%d leaves alive", r.FinalLiveLeaves, r.Leaves)
	}
	if restarted {
		if r.FailbackS <= 0 {
			add("restarted aggregator %s never took leadership back", r.KilledAgg)
		} else if r.FinalLeader != r.KilledAgg {
			add("final leader %q, want restarted %q", r.FinalLeader, r.KilledAgg)
		}
	}
	r.Pass = len(r.Violations) == 0
}

// fedAggNode is one aggregator of the HA pair: a UDP socket that
// outlives the aggregator instance (a restart keeps the address, like a
// respawned process on the same host), a swap-able Aggregator, and an
// HTTP /fleet surface that serves 503 while the "process" is down.
type fedAggNode struct {
	id   string
	udp  *transport.UDP
	clk  clock.Clock
	opts federate.AggregatorOptions

	agg      atomic.Pointer[federate.Aggregator]
	up       atomic.Bool
	srv      *http.Server
	ln       net.Listener
	httpDone chan struct{}
}

func (n *fedAggNode) boot(inc uint64) {
	o := n.opts
	o.Incarnation = inc
	a := federate.NewAggregator(n.udp, n.clk, o)
	n.agg.Store(a)
	n.up.Store(true)
	a.Start()
}

// kill simulates a process crash: the aggregator stops, inbound
// datagrams fall on the floor (the socket stays bound so the address
// survives for the restart), and /fleet answers 503.
func (n *fedAggNode) kill() {
	n.up.Store(false)
	n.agg.Load().Stop()
}

func (n *fedAggNode) baseURL() string { return "http://" + n.ln.Addr().String() }

func (n *fedAggNode) stop() {
	if n.up.Load() {
		n.kill()
	}
	_ = n.srv.Close()
	<-n.httpDone
	_ = n.udp.Close()
}

func startFedAggNode(id, region string, udp *transport.UDP, peer string, clk clock.Clock, digest time.Duration) (*fedAggNode, error) {
	n := &fedAggNode{
		id: id, udp: udp, clk: clk,
		opts: federate.AggregatorOptions{
			ID:             id,
			Region:         region,
			Peers:          []string{peer},
			DigestInterval: clock.Duration(digest),
		},
		httpDone: make(chan struct{}),
	}
	n.boot(1)
	go transport.Pump(udp, func(in transport.Inbound) {
		if !n.up.Load() {
			return // dead process: clean inbox, nothing handled
		}
		n.agg.Load().HandleDatagram(in.From, in.Payload)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.kill()
		_ = udp.Close()
		return nil, fmt.Errorf("load: aggregator %s http: %w", id, err)
	}
	n.ln = ln
	n.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !n.up.Load() {
			http.Error(w, "aggregator down", http.StatusServiceUnavailable)
			return
		}
		n.agg.Load().Handler().ServeHTTP(w, r)
	})}
	go func() {
		defer close(n.httpDone)
		_ = n.srv.Serve(ln)
	}()
	return n, nil
}

// fedLeafNode is one leaf monitor: UDP ingest shared between heartbeats
// and federation datagrams (acks, assignment tables), a registry, the
// roll-up agent, and the heartbeat fleet aimed at it.
type fedLeafNode struct {
	id    string
	udp   *transport.UDP
	reg   *registry.Registry
	recv  *heartbeat.Receiver
	leaf  *federate.Leaf
	fleet *Fleet
}

func (n *fedLeafNode) stop() {
	if n.fleet != nil {
		n.fleet.Stop()
	}
	n.leaf.Stop()
	_ = n.udp.Close()
	n.recv.Wait()
	n.reg.Stop()
}

func startFedLeafNode(id, region string, aggAddrs []string, spec *FederationSpec, clk clock.Clock) (*fedLeafNode, error) {
	udp, err := transport.ListenUDPOpts("127.0.0.1:0", transport.MonitorIngest(transport.UDPOptions{Batch: 32}))
	if err != nil {
		return nil, fmt.Errorf("load: leaf %s udp: %w", id, err)
	}
	cfg := core.DefaultConfig()
	cfg.Interval = clock.Duration(spec.Interval)
	cfg.InitialMargin = clock.Duration(spec.Interval) * 5 / 2
	cfg.WindowSize = 64
	cfg.SlotHeartbeats = 20
	cfg.Targets = core.Targets{MaxTD: 4 * clock.Duration(spec.Interval), MaxMR: 2, MinQAP: 0.9}
	reg := registry.New(clk, func(string) detector.Detector { return core.New(cfg) }, registry.Options{
		OfflineAfter:      2 * clock.Duration(spec.Interval),
		MaxSilence:        8 * clock.Duration(spec.Interval),
		EvictAfter:        -1, // keep offline streams: their counts must survive the failover
		MetricsMaxStreams: -1,
	})
	reg.Start()
	n := &fedLeafNode{id: id, udp: udp, reg: reg}
	leaf, err := federate.NewLeaf(udp, clk, reg, "", federate.LeafOptions{
		ID:       id,
		Region:   region,
		Cohorts:  []string{id + "/#"},
		Interval: clock.Duration(spec.DigestInterval),
		Aggs:     aggAddrs,
	})
	if err != nil {
		_ = udp.Close()
		reg.Stop()
		return nil, fmt.Errorf("load: leaf %s: %w", id, err)
	}
	n.leaf = leaf
	n.recv = heartbeat.NewReceiver(udp, clk, reg.Observe)
	n.recv.SetForeign(func(in transport.Inbound) {
		if federate.IsFederation(in.Payload) {
			leaf.HandleDatagramFrom(in.From, in.Payload)
		}
	})
	n.recv.Start()
	leaf.Start()
	return n, nil
}

// fleetProbe is the slice of the /fleet document the scorer reads.
type fleetProbe struct {
	Aggregator    string `json:"aggregator"`
	Role          string `json:"role"`
	LeaderID      string `json:"leader_id"`
	AssignVersion uint64 `json:"assign_version"`
	Leaves        []struct {
		State string `json:"state"`
	} `json:"leaves"`
	Cohorts []struct {
		Streams  uint32 `json:"streams"`
		Offlines uint64 `json:"offlines_total"`
	} `json:"cohorts"`
	Redelegations []json.RawMessage `json:"redelegations"`
}

func (p *fleetProbe) offlines() uint64 {
	var n uint64
	for _, c := range p.Cohorts {
		n += c.Offlines
	}
	return n
}

func (p *fleetProbe) streams() uint64 {
	var n uint64
	for _, c := range p.Cohorts {
		n += uint64(c.Streams)
	}
	return n
}

func (p *fleetProbe) liveLeaves() int {
	n := 0
	for _, l := range p.Leaves {
		if l.State == "alive" {
			n++
		}
	}
	return n
}

func probeFleet(client *http.Client, base string) (*fleetProbe, error) {
	resp, err := client.Get(base + "/fleet")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var p fleetProbe
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}

// RunFederation executes a federation-HA scenario end to end over real
// loopback UDP and HTTP, and scores the aggregator failover.
func RunFederation(spec FederationSpec, progress io.Writer) (*FederationReport, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	say := func(format string, a ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", a...)
		}
	}
	started := time.Now()
	clk := clock.NewReal()

	// --- aggregator pair (sockets bind first so each peer address is
	// known before either aggregator is built) ---------------------------
	udpA, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("load: agg-a udp: %w", err)
	}
	udpB, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		_ = udpA.Close()
		return nil, fmt.Errorf("load: agg-b udp: %w", err)
	}
	aggA, err := startFedAggNode("agg-a", "global", udpA, udpB.Addr(), clk, spec.DigestInterval)
	if err != nil {
		_ = udpB.Close()
		return nil, err
	}
	aggB, err := startFedAggNode("agg-b", "global", udpB, udpA.Addr(), clk, spec.DigestInterval)
	if err != nil {
		aggA.stop()
		return nil, err
	}
	nodes := []*fedAggNode{aggA, aggB}
	aggAddrs := []string{udpA.Addr(), udpB.Addr()}
	say("sfdload: aggregator pair up: agg-a=%s agg-b=%s", udpA.Addr(), udpB.Addr())

	// --- leaves + fleets -------------------------------------------------
	var leaves []*fedLeafNode
	stopAll := func() {
		for _, l := range leaves {
			l.stop()
		}
		aggA.stop()
		aggB.stop()
	}
	for r := 0; r < spec.Regions; r++ {
		region := fmt.Sprintf("r%d", r)
		for l := 0; l < spec.LeavesPerRegion; l++ {
			id := fmt.Sprintf("%s/leaf-%d", region, l)
			ln, err := startFedLeafNode(id, region, aggAddrs, &spec, clk)
			if err != nil {
				stopAll()
				return nil, err
			}
			f, err := NewFleet(FleetOptions{
				Prefix:  id,
				Count:   spec.StreamsPerLeaf,
				Targets: []string{ln.udp.Addr()},
				Pacer: Pacer{
					Interval: spec.Interval,
					Jitter:   0.05,
					Ramp:     2 * spec.DigestInterval,
				},
				Sockets: 16,
				Seed:    spec.Seed + int64(len(leaves)+1)*101,
				Clock:   clk,
			})
			if err != nil {
				ln.stop()
				stopAll()
				return nil, err
			}
			ln.fleet = f
			leaves = append(leaves, ln)
			f.Start()
		}
	}
	total := spec.Regions * spec.LeavesPerRegion * spec.StreamsPerLeaf
	say("sfdload: %d leaves up, %d senders heartbeating every %v (digests every %v)",
		len(leaves), total, spec.Interval, spec.DigestInterval)

	rep := &FederationReport{
		Scenario:            spec.Name,
		StartedAt:           started,
		Regions:             spec.Regions,
		LeavesPerRegion:     spec.LeavesPerRegion,
		StreamsPerLeaf:      spec.StreamsPerLeaf,
		TotalStreams:        total,
		Seed:                spec.Seed,
		InjectedStreamKills: spec.KillStreams,
		RestartAfterS:       spec.RestartAfter.Seconds(),
		Bounds:              spec.Bounds,
	}

	// --- scripted timeline + availability polling ------------------------
	client := &http.Client{Timeout: max(2*spec.PollEvery, 500*time.Millisecond)}
	killStreamsAt := time.Duration(float64(spec.Duration) * spec.KillAt / 2)
	killAggAt := time.Duration(float64(spec.Duration) * spec.KillAt)
	restartAt := time.Duration(-1)
	if spec.RestartAfter >= 0 {
		restartAt = killAggAt + spec.RestartAfter
	}

	var (
		killedIdx      = -1
		streamsKilled  bool
		killInstant    time.Time
		restartInstant time.Time
		restarted      bool
		leaderSeenAt   time.Time // last poll that found a serving leader
		maxGap         time.Duration
		lastLeaderIdx  = -1
		lastSay        time.Time
	)
	ticker := time.NewTicker(spec.PollEvery)
	defer ticker.Stop()
	for elapsed := time.Duration(0); elapsed < spec.Duration; {
		<-ticker.C
		elapsed = time.Since(started)
		now := time.Now()

		// Scripted faults, in timeline order.
		if spec.KillStreams > 0 && !streamsKilled && elapsed >= killStreamsAt {
			streamsKilled = true
			victim := leaves[0]
			for i := 0; i < spec.KillStreams; i++ {
				at := victim.fleet.Kill(i)
				victim.reg.MarkFailure(victim.fleet.Name(i), at)
			}
			say("sfdload: t=%v killed %d senders in %s", elapsed.Round(time.Millisecond),
				spec.KillStreams, victim.id)
		}
		if killedIdx < 0 && elapsed >= killAggAt {
			idx := lastLeaderIdx
			if idx < 0 {
				idx = 0
			}
			// Snapshot the active leader's transition totals the instant
			// before the kill — the baseline the promoted standby's view
			// must not regress from.
			if p, err := probeFleet(client, nodes[idx].baseURL()); err == nil {
				rep.OfflinesPreKill = p.offlines()
			}
			nodes[idx].kill()
			killedIdx = idx
			killInstant = now
			rep.KilledAgg = nodes[idx].id
			say("sfdload: t=%v killed active aggregator %s (pre-kill offline total %d)",
				elapsed.Round(time.Millisecond), nodes[idx].id, rep.OfflinesPreKill)
		}
		if restartAt >= 0 && !restarted && elapsed >= restartAt && killedIdx >= 0 {
			nodes[killedIdx].boot(2)
			restarted = true
			restartInstant = now
			say("sfdload: t=%v restarted %s (incarnation 2)", elapsed.Round(time.Millisecond),
				nodes[killedIdx].id)
		}

		// Availability probe: is any aggregator serving /fleet as leader?
		servedIdx := -1
		var servedProbe *fleetProbe
		for i, n := range nodes {
			p, err := probeFleet(client, n.baseURL())
			if err != nil {
				continue
			}
			if p.Role == "leader" {
				servedIdx, servedProbe = i, p
			}
		}
		if servedIdx >= 0 {
			if !leaderSeenAt.IsZero() {
				if gap := now.Sub(leaderSeenAt); gap > maxGap {
					maxGap = gap
				}
			}
			leaderSeenAt = now
			lastLeaderIdx = servedIdx
			rep.Served++
			if killedIdx >= 0 && rep.PromotionS == 0 && servedIdx != killedIdx {
				rep.PromotionS = now.Sub(killInstant).Seconds()
				rep.OfflinesAtPromotion = servedProbe.offlines()
				say("sfdload: t=%v standby %s promoted %.2fs after the kill (offline total %d)",
					elapsed.Round(time.Millisecond), nodes[servedIdx].id,
					rep.PromotionS, rep.OfflinesAtPromotion)
			}
			if restarted && rep.FailbackS == 0 && servedIdx == killedIdx {
				rep.FailbackS = now.Sub(restartInstant).Seconds()
				say("sfdload: t=%v restarted %s leads again %.2fs after its restart",
					elapsed.Round(time.Millisecond), nodes[servedIdx].id, rep.FailbackS)
			}
		}
		rep.Polls++

		if progress != nil && now.Sub(lastSay) >= 5*time.Second {
			lastSay = now
			if servedProbe != nil {
				say("sfdload: t=%v leader=%s streams=%d offline-total=%d leaves=%d/%d",
					elapsed.Round(time.Second), servedProbe.Aggregator, servedProbe.streams(),
					servedProbe.offlines(), servedProbe.liveLeaves(), len(servedProbe.Leaves))
			} else {
				say("sfdload: t=%v no aggregator serving /fleet as leader", elapsed.Round(time.Second))
			}
		}
	}
	// Count the tail: a run that ends leaderless hides its last gap.
	if !leaderSeenAt.IsZero() {
		if gap := time.Since(leaderSeenAt); gap > maxGap {
			maxGap = gap
		}
	}
	rep.FleetGapS = maxGap.Seconds()

	// --- final fleet view ------------------------------------------------
	if lastLeaderIdx >= 0 {
		if p, err := probeFleet(client, nodes[lastLeaderIdx].baseURL()); err == nil {
			rep.FinalLeader = p.Aggregator
			rep.OfflinesFinal = p.offlines()
			rep.FinalStreams = p.streams()
			rep.FinalLiveLeaves = p.liveLeaves()
			rep.Leaves = len(p.Leaves)
			rep.FinalAssignVersion = p.AssignVersion
			rep.Redelegations = len(p.Redelegations)
		}
	}
	if rep.OfflinesAtPromotion < rep.OfflinesPreKill {
		rep.LostTransitions = int(rep.OfflinesPreKill - rep.OfflinesAtPromotion)
	}
	rep.Detection = leaves[0].reg.DetectionLatency()

	stopAll()
	rep.WallTime = time.Since(started).Seconds()
	rep.evaluate(restarted)
	return rep, nil
}
