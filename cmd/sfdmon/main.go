// sfdmon is a live UDP heartbeat daemon: run it as a sender on the
// monitored host and as a monitor on the observing host. The monitor
// drives an SFD (or a baseline detector) per peer through the sharded
// registry, logs failure-bus transitions, evicts peers that stay
// offline, and prints a status table — the paper's PlanetLab motivation
// turned into a tool ("it is impractical to login one by one without
// any guidance").
//
// Usage:
//
//	# on the monitored host:
//	sfdmon -mode send -to 10.0.0.2:7946 -interval 100ms
//
//	# on the monitoring host (with the HTTP status surface):
//	sfdmon -mode monitor -listen :7946 -refresh 1s -serve :8080
//
//	# loopback demo in one process:
//	sfdmon -mode demo
//
//	# multi-monitor deployment: every monitor also gossips suspicion
//	# digests with its peers and publishes corroborated Global* verdicts:
//	sfdmon -mode monitor -listen :7946 -serve :8080 \
//	    -gossip -gossip-peers 10.0.0.3:7946,10.0.0.4:7946 -gossip-quorum 2
//
//	# chaos drill: replay a scripted impairment timeline against the
//	# live inbound stream (JSON file or inline DSL; see internal/chaos):
//	sfdmon -mode monitor -listen :7946 -serve :8080 \
//	    -chaos '2s+10s:loss(rate=0.4,burst=6);15s+5s:partition(dir=in)'
//
//	# crash-safe state: checkpoint detector/registry/gossip state to disk
//	# and warm-restart from it (SIGINT/SIGTERM flushes a final snapshot):
//	sfdmon -mode monitor -listen :7946 -state-dir /var/lib/sfdmon
//
//	# tail one subtree of a running monitor's failure events (NDJSON over
//	# the monitor's /watch endpoint; `+`/`#` wildcards route in the
//	# monitor's topic trie, so only matching events cross the wire).
//	# -retry reconnects with capped exponential backoff when the monitor
//	# restarts or sheds the connection (503 at the watch cap):
//	sfdmon -mode watch -url http://10.0.0.2:8080 -filter 'eu/+/web-1/#' -retry
//
//	# federation: a regional aggregator merges per-cohort digests from
//	# leaf monitors, tracks leaf liveness with the same SFD machinery,
//	# re-delegates a dead leaf's cohorts, and serves the fleet view:
//	sfdmon -mode aggregate -listen :7950 -serve :8090
//
//	# ... and each leaf monitor rolls its cohorts up to it:
//	sfdmon -mode monitor -listen :7946 -serve :8080 \
//	    -federate 10.0.0.9:7950 -fed-id eu/leaf-1 -fed-region eu \
//	    -fed-cohorts 'eu/cluster-3/#,eu/cluster-4/#'
//
// With -serve, the monitor exposes GET /status (full JSON snapshot),
// GET /vars (counters + per-shard occupancy), GET /metrics (Prometheus
// text exposition: receiver, registry, gossip, chaos, and per-stream
// detector QoS), GET /healthz, with -gossip GET /gossip (verdicts, peer
// weights, opinion table), and with -chaos GET /chaos (scenario,
// injection counters, active impairments; ?log=1 for the injection
// log). -pprof additionally mounts the Go profiler under /debug/pprof/
// on the same listener.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	sfd "repro"
)

func main() {
	var (
		mode     = flag.String("mode", "demo", "send, monitor, aggregate, watch, or demo")
		to       = flag.String("to", "127.0.0.1:7946", "send: monitor address")
		listen   = flag.String("listen", ":7946", "monitor: bind address")
		interval = flag.Duration("interval", 100*time.Millisecond, "send: heartbeat interval")
		jitter   = flag.Float64("jitter", 0, "send: per-beat uniform jitter fraction in [0,1) (0 = fixed cadence)")
		ramp     = flag.Duration("ramp", 0, "send: random start delay drawn from [0,ramp) (desynchronizes fleets)")
		hbName   = flag.String("name", "", "send: logical stream name (wire-v3; the monitor keys the stream by name, surviving address changes)")
		refresh  = flag.Duration("refresh", time.Second, "monitor: status print interval")
		maxTD    = flag.Duration("maxtd", 2*time.Second, "monitor: target max detection time")
		maxMR    = flag.Float64("maxmr", 0.5, "monitor: target max mistake rate")
		minQAP   = flag.Float64("minqap", 0.99, "monitor: target min QAP")
		serve    = flag.String("serve", "", "monitor: HTTP status address (e.g. :8080; empty = disabled)")
		pprofOn  = flag.Bool("pprof", false, "monitor: mount /debug/pprof/ on the -serve listener")
		evict    = flag.Duration("evict", time.Minute, "monitor: drop peers offline this long (<0 = never)")
		duration = flag.Duration("duration", 0, "exit after this long (0 = run until interrupted)")

		rxQueues = flag.Int("rxqueues", 1, "monitor: parallel ingest queues (rounded up to a power of two)")
		rxBatch  = flag.Int("rxbatch", 32, "monitor: datagrams per batched socket read (Linux recvmmsg fast path)")

		stateDir   = flag.String("state-dir", "", "monitor: directory for crash-safe state snapshots (empty = no persistence)")
		checkpoint = flag.Duration("checkpoint", 30*time.Second, "monitor: full-snapshot interval when -state-dir is set")

		gossipOn       = flag.Bool("gossip", false, "monitor: exchange suspicion digests with peer monitors")
		gossipPeers    = flag.String("gossip-peers", "", "monitor: comma-separated peer monitor addresses")
		gossipID       = flag.String("gossip-id", "", "monitor: gossip identity (default: the bound address)")
		gossipInterval = flag.Duration("gossip-interval", 250*time.Millisecond, "monitor: anti-entropy round period")
		gossipQuorum   = flag.Int("gossip-quorum", 2, "monitor: concurring monitors needed for a global verdict")
		gossipSeed     = flag.Int64("gossip-seed", 0, "monitor: peer-selection seed (0 = default)")

		chaosSpec = flag.String("chaos", "", "scenario to inject: a JSON file path or the flag DSL (see internal/chaos)")
		chaosSeed = flag.Int64("chaos-seed", 0, "override the scenario's injection seed (0 = keep)")

		watchURL    = flag.String("url", "http://127.0.0.1:8080", "watch: base URL of a monitor's HTTP surface")
		watchFilter = flag.String("filter", "#", "watch: topic filter over stream names (+/# wildcards)")
		watchBuf    = flag.Int("buf", 256, "watch: server-side subscription buffer (drop-oldest beyond it)")
		watchMax    = flag.Int("max", 0, "watch: exit after this many events (0 = stream until interrupted)")
		watchRetry  = flag.Bool("retry", false, "watch: reconnect with capped exponential backoff instead of exiting")

		fedAgg      = flag.String("federate", "", "monitor: aggregator address to roll cohort digests up to (empty = no federation)")
		fedAggs     = flag.String("fed-aggs", "", "monitor: comma-separated ordered aggregator addresses (HA pair; supersedes -federate)")
		fedID       = flag.String("fed-id", "", "monitor: federation leaf identity (default: the bound address)")
		fedRegion   = flag.String("fed-region", "", "monitor/aggregate: region label")
		fedCohorts  = flag.String("fed-cohorts", "", "monitor: comma-separated cohort topic filters this leaf owns (e.g. 'eu/cluster-3/#')")
		fedInterval = flag.Duration("fed-interval", time.Second, "monitor/aggregate: digest roll-up interval")
		fedPeer     = flag.String("fed-peer", "", "aggregate: comma-separated HA peer aggregator addresses (empty = standalone)")
		fedInc      = flag.Uint64("fed-inc", 1, "aggregate: incarnation, bumped on restart so HA peers reset this instance's beat stream")
	)
	flag.Parse()

	var chaosSc *sfd.ChaosScenario
	if *chaosSpec != "" {
		sc, err := loadScenario(*chaosSpec, *chaosSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfdmon: -chaos: %v\n", err)
			os.Exit(2)
		}
		chaosSc = &sc
	}

	switch *mode {
	case "send":
		if strings.TrimSpace(*to) == "" {
			fmt.Fprintln(os.Stderr, "sfdmon: -mode send needs a monitor address: -to host:port")
			os.Exit(2)
		}
		if *interval <= 0 {
			fmt.Fprintf(os.Stderr, "sfdmon: -interval must be positive (got %v)\n", *interval)
			os.Exit(2)
		}
		if *jitter < 0 || *jitter >= 1 {
			fmt.Fprintf(os.Stderr, "sfdmon: -jitter must be in [0,1) (got %g)\n", *jitter)
			os.Exit(2)
		}
		if *ramp < 0 {
			fmt.Fprintf(os.Stderr, "sfdmon: -ramp must be non-negative (got %v)\n", *ramp)
			os.Exit(2)
		}
		runSender(*to, *interval, *jitter, *ramp, *hbName, *duration, chaosSc)
	case "monitor":
		var gc *gossipConfig
		if *gossipOn {
			gc = &gossipConfig{
				peers:    splitPeers(*gossipPeers),
				id:       *gossipID,
				interval: *gossipInterval,
				quorum:   *gossipQuorum,
				seed:     *gossipSeed,
			}
			if len(gc.peers) == 0 {
				fmt.Fprintln(os.Stderr, "sfdmon: -gossip requires -gossip-peers")
				os.Exit(2)
			}
		}
		var fc *fedConfig
		if *fedAgg != "" || *fedAggs != "" {
			fc = &fedConfig{
				agg:      *fedAgg,
				aggs:     splitPeers(*fedAggs),
				id:       *fedID,
				region:   *fedRegion,
				cohorts:  splitPeers(*fedCohorts),
				interval: *fedInterval,
			}
			if fc.agg == "" && len(fc.aggs) > 0 {
				fc.agg = fc.aggs[0]
			}
		}
		runMonitor(*listen, *serve, *refresh,
			sfd.Targets{MaxTD: *maxTD, MaxMR: *maxMR, MinQAP: *minQAP}, *evict, *duration, gc, *pprofOn, chaosSc,
			*stateDir, *checkpoint, fc, *rxQueues, *rxBatch)
	case "aggregate":
		runAggregate(*listen, *serve, *fedID, *fedRegion, splitPeers(*fedPeer), *fedInc, *fedInterval, *refresh, *duration, *pprofOn)
	case "watch":
		runWatch(*watchURL, *watchFilter, *watchBuf, *watchMax, *duration, *watchRetry)
	case "demo":
		runDemo()
	default:
		fmt.Fprintf(os.Stderr, "sfdmon: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// loadScenario resolves the -chaos flag: a readable file is parsed as
// JSON, anything else as the compact DSL. A nonzero seed flag overrides
// the scenario's own.
func loadScenario(spec string, seed int64) (sfd.ChaosScenario, error) {
	var sc sfd.ChaosScenario
	if b, err := os.ReadFile(spec); err == nil {
		sc, err = sfd.ParseChaosScenario(b)
		if err != nil {
			return sc, fmt.Errorf("%s: %w", spec, err)
		}
	} else {
		var derr error
		sc, derr = sfd.ParseChaosDSL(spec)
		if derr != nil {
			return sc, fmt.Errorf("neither a readable file (%v) nor a valid scenario DSL (%v)", err, derr)
		}
	}
	if seed != 0 {
		sc.Seed = seed
	}
	return sc, nil
}

func runSender(to string, interval time.Duration, jitter float64, ramp time.Duration, name string, duration time.Duration, chaosSc *sfd.ChaosScenario) {
	udp, err := sfd.ListenUDP(":0")
	if err != nil {
		fatal(err)
	}
	defer udp.Close()
	var ep sfd.Endpoint = udp
	clk := sfd.NewRealClock()
	hbClk := clk

	// A send-side scenario impairs outbound heartbeats at the source and
	// lets skew steps drag the sender's timestamp clock.
	var ctl *sfd.ChaosController
	if chaosSc != nil {
		ctl = sfd.NewChaosController(clk, chaosSc.Seed)
		skewed := sfd.NewSkewedClock(clk)
		ctl.AttachClock(skewed)
		hbClk = skewed
		cep := sfd.WrapChaos(ep, ctl)
		cep.Start()
		ep = cep
		if err := ctl.Play(*chaosSc); err != nil {
			fatal(err)
		}
		fmt.Printf("sfdmon: chaos scenario %q armed (seed %d, %d steps)\n",
			chaosSc.Name, ctl.Seed(), len(chaosSc.Steps))
	}

	// The paced sender shares the load harness's timing model, so a
	// hand-run sender paces exactly like a harness fleet member.
	snd, err := sfd.NewPacedHeartbeatSender(ep, to, name,
		sfd.LoadPacer{Interval: interval, Jitter: jitter, Ramp: ramp}, 0, hbClk)
	if err != nil {
		fatal(err)
	}
	snd.Start()
	how := fmt.Sprintf("every %v", interval)
	if jitter > 0 {
		how += fmt.Sprintf(" ±%d%%", int(jitter*100))
	}
	if ramp > 0 {
		how += fmt.Sprintf(" after <%v ramp", ramp)
	}
	if name != "" {
		how += fmt.Sprintf(" as %q", name)
	}
	fmt.Printf("sfdmon: heartbeating to %s %s (from %s)\n", to, how, udp.Addr())
	waitForExit(duration)
	snd.Stop()
	fmt.Printf("sfdmon: sent %d heartbeats\n", snd.Sent())
	if ctl != nil {
		c := ctl.Counters()
		fmt.Printf("sfdmon: chaos injected loss=%d partition=%d delayed=%d reordered=%d duplicated=%d truncated=%d\n",
			c.LossDrops, c.PartDrops, c.Delayed, c.Reordered, c.Duplicated, c.Truncated)
	}
}

// gossipConfig carries the -gossip* flags into runMonitor.
type gossipConfig struct {
	peers    []string
	id       string
	interval time.Duration
	quorum   int
	seed     int64
}

// fedConfig carries the -federate/-fed-* flags into runMonitor.
type fedConfig struct {
	agg      string
	aggs     []string // ordered HA list; supersedes agg when set
	id       string
	region   string
	cohorts  []string
	interval time.Duration
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runMonitor(listen, serve string, refresh time.Duration, targets sfd.Targets, evict, duration time.Duration, gc *gossipConfig, pprofOn bool, chaosSc *sfd.ChaosScenario, stateDir string, checkpoint time.Duration, fc *fedConfig, rxQueues, rxBatch int) {
	// The chaos wrapper pumps only the primary receive channel, so a
	// scenario forces the transport back to a single ingest queue.
	if chaosSc != nil && rxQueues > 1 {
		fmt.Fprintln(os.Stderr, "sfdmon: -chaos forces -rxqueues=1 (the chaos pump drains one queue)")
		rxQueues = 1
	}
	// Sized like every other monitor ingest socket: at tens of thousands
	// of heartbeats/s the default SO_RCVBUF and buffer pool shed datagrams.
	udp, err := sfd.ListenUDPOpts(listen, sfd.MonitorIngest(sfd.UDPOptions{Queues: rxQueues, Batch: rxBatch}))
	if err != nil {
		fatal(err)
	}
	defer udp.Close()
	var ep sfd.Endpoint = udp
	clk := sfd.NewRealClock()

	// A monitor-side scenario sits between the socket and the receiver,
	// impairing the live inbound heartbeat/gossip stream.
	var ctl *sfd.ChaosController
	if chaosSc != nil {
		ctl = sfd.NewChaosController(clk, chaosSc.Seed)
		cep := sfd.WrapChaos(ep, ctl)
		cep.Start()
		defer cep.Close()
		ep = cep
		if err := ctl.Play(*chaosSc); err != nil {
			fatal(err)
		}
		fmt.Printf("sfdmon: chaos scenario %q armed (seed %d, %d steps)\n",
			chaosSc.Name, ctl.Seed(), len(chaosSc.Steps))
	}

	reg := sfd.NewRegistry(clk, sfd.SFDFactory(targets), sfd.RegistryOptions{
		EvictAfter:         evict,
		StateDir:           stateDir,
		CheckpointInterval: checkpoint,
	})
	reg.Start()
	defer reg.Stop()
	if stateDir != "" {
		// Start restored any valid snapshot (warm restart) and armed the
		// checkpointer; report what it found.
		switch n, err := reg.RestoredStreams(); {
		case err != nil && errors.Is(err, sfd.ErrNoSnapshot):
			fmt.Printf("sfdmon: no state snapshot in %s (cold start), checkpointing every %v\n", stateDir, checkpoint)
		case err != nil:
			fmt.Fprintf(os.Stderr, "sfdmon: state restore failed, cold start: %v\n", err)
		default:
			fmt.Printf("sfdmon: warm restart: restored %d streams from %s\n", n, stateDir)
		}
	}
	recv := sfd.NewHeartbeatReceiver(ep, clk, reg.Observe)

	// Gossip shares the heartbeat socket: digests (magic "SG") fall
	// through the receiver's heartbeat decoder into the gossiper.
	var gsp *sfd.Gossiper
	if gc != nil {
		gsp = sfd.NewGossiper(ep, clk, reg, gc.peers, sfd.GossipOptions{
			ID:       gc.id,
			Interval: gc.interval,
			Quorum:   gc.quorum,
			Seed:     gc.seed,
		})
		gsp.Start()
		defer gsp.Stop()
	}

	// Federation shares it too: assignment tables (magic "FD") arrive on
	// the same socket the leaf pushes digests through.
	var leaf *sfd.FederationLeaf
	if fc != nil {
		id := fc.id
		if id == "" {
			id = ep.Addr()
		}
		opts := sfd.FederationLeafOptions{
			ID:       id,
			Region:   fc.region,
			Cohorts:  fc.cohorts,
			Interval: fc.interval,
			Aggs:     fc.aggs,
		}
		if gsp != nil {
			opts.WeightFn = gsp.Weight // gossip accuracy feeds re-delegation preference
		}
		var err error
		leaf, err = sfd.NewFederationLeaf(ep, clk, reg, fc.agg, opts)
		if err != nil {
			fatal(err)
		}
		leaf.Start()
		defer leaf.Stop()
	}
	if gsp != nil || leaf != nil {
		recv.SetForeign(func(in sfd.Inbound) {
			switch {
			case leaf != nil && sfd.IsFederationDatagram(in.Payload):
				leaf.HandleDatagramFrom(in.From, in.Payload)
			case gsp != nil:
				gsp.HandleDatagram(in.Payload)
			}
		})
	}
	recv.Start()

	// One /metrics page for the whole pipeline: the transport, receiver,
	// and gossiper register their instruments into the registry's set,
	// and the transport's raw counters land in the /vars "aux" section so
	// silent datagram drops are observable from both surfaces.
	udp.InstrumentMetrics(reg.Metrics())
	reg.RegisterVars("transport", func() any { return udp.Counters() })
	recv.InstrumentMetrics(reg.Metrics())
	if gsp != nil {
		gsp.InstrumentMetrics(reg.Metrics())
	}
	if leaf != nil {
		leaf.InstrumentMetrics(reg.Metrics())
	}
	if ctl != nil {
		ctl.InstrumentMetrics(reg.Metrics())
	}

	fmt.Printf("sfdmon: monitoring on %s (targets %v)\n", ep.Addr(), targets)
	fmt.Printf("sfdmon: ingest: %d queue(s), batched reads %v\n", udp.RecvQueues(), udp.Batched())
	if gsp != nil {
		fmt.Printf("sfdmon: gossiping as %s with %v (quorum %d, every %v)\n",
			gsp.ID(), gsp.Peers(), gc.quorum, gsp.Options().Interval)
	}
	if leaf != nil {
		fmt.Printf("sfdmon: federating as leaf %s to %v (%d cohorts, every %v)\n",
			leaf.ID(), leaf.Aggregators(), len(leaf.Cohorts()), leaf.Options().Interval)
	}

	// Log every failure-bus transition; eviction also clears the
	// receiver's stale filter so both tables stay bounded under churn.
	sub := reg.Subscribe(1024)
	defer sub.Close()
	go func() {
		for ev := range sub.C() {
			fmt.Printf("event: %s\n", ev)
			if ev.Type == sfd.EventEvicted {
				recv.Forget(ev.Peer)
			}
		}
	}()

	if serve != "" {
		mux := http.NewServeMux()
		mux.Handle("/", reg.Handler())
		surfaces := "/status (also /vars, /metrics, /healthz"
		if gsp != nil {
			mux.Handle("/gossip", gsp.Handler())
			surfaces += ", /gossip"
		}
		if ctl != nil {
			mux.Handle("/chaos", ctl.Handler())
			surfaces += ", /chaos"
		}
		if pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			surfaces += ", /debug/pprof"
		}
		srv := &http.Server{Addr: serve, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "sfdmon: http: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("sfdmon: serving http://%s%s)\n", serve, surfaces)
	}

	ticker := time.NewTicker(refresh)
	defer ticker.Stop()
	done := exitChan(duration)
loop:
	for {
		select {
		case <-done:
			break loop
		case <-ticker.C:
			now := clk.Now()
			fmt.Printf("--- %s ---\n", time.Now().Format(time.RFC3339))
			fmt.Print(sfd.FormatSnapshot(reg.Snapshot(now)))
			c := reg.Counters()
			if d := sub.Dropped(); d > 0 {
				fmt.Printf("warning: %d bus events dropped by the log subscriber\n", d)
			}
			fmt.Printf("counters: hb=%d stale=%d suspects=%d trusts=%d offline=%d evicted=%d streams=%d\n",
				c.Heartbeats, c.Stale, c.Suspects, c.Trusts, c.Offlines, c.Evictions, c.Streams)
		}
	}

	// Graceful shutdown (SIGINT/SIGTERM or -duration), in dependency
	// order: close the socket first so the receiver quiesces and no new
	// arrivals race the final snapshot, stop the gossiper, then stop the
	// registry — which flushes a full state snapshot when -state-dir is
	// set — and exit 0. The remaining defers (HTTP server, chaos wrapper)
	// are idempotent backstops.
	fmt.Println("sfdmon: shutting down")
	udp.Close()
	recv.Wait()
	if gsp != nil {
		gsp.Stop()
	}
	reg.Stop()
	if stateDir != "" {
		fmt.Printf("sfdmon: final state snapshot flushed to %s\n", stateDir)
	}
}

// runAggregate runs the regional federation tier: it listens for leaf
// digests over UDP, merges them into the fleet view, tracks leaf
// liveness with the same detector machinery the leaves use for their
// streams, and re-delegates a dead leaf's cohorts to survivors. With
// -fed-peer it runs as one half of an HA pair: peer beats and state
// mirrors flow to the listed addresses, the lowest alive id leads, and
// a restarted instance (bump -fed-inc) rejoins as standby and catches
// up by anti-entropy. With -serve it exposes GET /fleet (merged fleet,
// HA role, peers, re-delegation history) alongside the leaf-liveness
// registry's /status, /vars, /metrics.
func runAggregate(listen, serve, id, region string, peers []string, inc uint64, interval, refresh, duration time.Duration, pprofOn bool) {
	udp, err := sfd.ListenUDP(listen)
	if err != nil {
		fatal(err)
	}
	defer udp.Close()
	clk := sfd.NewRealClock()

	if id == "" {
		id = udp.Addr()
	}
	agg := sfd.NewFederationAggregator(udp, clk, sfd.FederationAggregatorOptions{
		ID:             id,
		Region:         region,
		Peers:          peers,
		Incarnation:    inc,
		DigestInterval: interval,
	})
	agg.Start()
	defer agg.Stop()
	go sfd.Pump(udp, func(in sfd.Inbound) { agg.HandleDatagram(in.From, in.Payload) })

	fmt.Printf("sfdmon: aggregating on %s as %s (digest interval %v)\n", udp.Addr(), id, interval)
	if len(peers) > 0 {
		fmt.Printf("sfdmon: HA pair with %v (incarnation %d, lowest alive id leads)\n", peers, inc)
	}

	if serve != "" {
		liveness := agg.Liveness()
		agg.InstrumentMetrics(liveness.Metrics())
		mux := http.NewServeMux()
		mux.Handle("/", liveness.Handler()) // leaf liveness: /status, /vars, /metrics, /healthz
		mux.Handle("/fleet", agg.Handler())
		if pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
		}
		srv := &http.Server{Addr: serve, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "sfdmon: http: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("sfdmon: serving http://%s/fleet (also /status, /vars, /metrics, /healthz)\n", serve)
	}

	ticker := time.NewTicker(refresh)
	defer ticker.Stop()
	done := exitChan(duration)
loop:
	for {
		select {
		case <-done:
			break loop
		case <-ticker.C:
			c := agg.Counters()
			fmt.Printf("fed: role=%s leaves=%d/%d cohorts=%d (orphans=%d) streams=%d digests=%d stale=%d bad=%d redelegations=%d assign-v%d\n",
				agg.Role(), c.LiveLeaves, c.Leaves, c.Cohorts, c.OrphanedCohorts, c.FleetStreams,
				c.DigestsReceived, c.DigestsStale, c.DigestsBad, c.Redelegations, agg.AssignVersion())
		}
	}
	fmt.Println("sfdmon: shutting down")
}

// runWatch tails a monitor's /watch endpoint: one HTTP long-poll whose
// NDJSON lines (hello, events, keepalive heartbeats with this
// connection's drop accounting) are printed as they arrive. The filter
// is matched server-side in the monitor's topic trie, so a narrow
// watcher costs the monitor — and the network — only its own events.
// With retry, a failed connection or a severed stream reconnects under
// capped exponential backoff (500ms doubling to 15s, reset after any
// successful connection) instead of exiting — a 503 from a monitor at
// its watch-connection cap is retried the same way.
func runWatch(base, filter string, buf, max int, duration time.Duration, retry bool) {
	q := url.Values{}
	q.Set("filter", filter)
	if buf > 0 {
		q.Set("buf", strconv.Itoa(buf))
	}
	if max > 0 {
		q.Set("max", strconv.Itoa(max))
	}
	target := strings.TrimRight(base, "/") + "/watch?" + q.Encode()
	done := exitChan(duration)

	const (
		backoffMin = 500 * time.Millisecond
		backoffMax = 15 * time.Second
	)
	backoff := backoffMin
	total := 0
	for {
		lines, err := watchOnce(target, base, filter, done)
		total += lines
		select {
		case <-done: // local shutdown: a read error on the closed body is expected
			fmt.Fprintf(os.Stderr, "sfdmon: watch stream closed after %d lines\n", total)
			return
		default:
		}
		if !retry {
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "sfdmon: watch stream closed after %d lines\n", total)
			return
		}
		if lines > 0 {
			backoff = backoffMin // the connection worked; start the ladder over
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfdmon: watch: %v; retrying in %v\n", err, backoff)
		} else {
			fmt.Fprintf(os.Stderr, "sfdmon: watch stream ended; retrying in %v\n", backoff)
		}
		select {
		case <-done:
			fmt.Fprintf(os.Stderr, "sfdmon: watch stream closed after %d lines\n", total)
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// watchOnce runs a single /watch connection to completion, returning how
// many NDJSON lines it printed and why it ended.
func watchOnce(target, base, filter string, done <-chan struct{}) (int, error) {
	resp, err := http.Get(target)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("%s: %s: %s", target, resp.Status, strings.TrimSpace(string(msg)))
	}
	fmt.Fprintf(os.Stderr, "sfdmon: watching %s with filter %q\n", base, filter)

	// Shutdown closes the body, unblocking the scanner.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-done:
			resp.Body.Close()
		case <-stop:
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		fmt.Println(sc.Text())
		lines++
	}
	return lines, sc.Err()
}

// runDemo wires a sender and monitor over UDP loopback, crashes the
// sender halfway, and shows the status flip.
func runDemo() {
	monEP, err := sfd.ListenUDP("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer monEP.Close()
	sndEP, err := sfd.ListenUDP("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer sndEP.Close()

	clk := sfd.NewRealClock()
	mon := sfd.NewRegistry(clk, sfd.SFDFactory(sfd.Targets{MaxTD: time.Second, MaxMR: 1, MinQAP: 0.99}), sfd.RegistryOptions{})
	mon.Start()
	defer mon.Stop()
	recv := sfd.NewHeartbeatReceiver(monEP, clk, mon.Observe)
	recv.Start()

	snd := sfd.NewHeartbeatSender(sndEP, monEP.Addr(), 20*time.Millisecond, clk)
	snd.Start()
	fmt.Println("demo: sender heartbeating over UDP loopback at 50 Hz")

	time.Sleep(2 * time.Second)
	printDemo(mon, clk, "while alive")
	fmt.Println("demo: crashing the sender...")
	snd.Crash()
	time.Sleep(1500 * time.Millisecond)
	printDemo(mon, clk, "after crash")
}

func printDemo(mon *sfd.Registry, clk sfd.Clock, label string) {
	for _, r := range mon.Snapshot(clk.Now()) {
		fmt.Printf("demo [%s]: peer=%s status=%s suspicion=%.3f\n",
			label, r.Peer, r.Status, r.SuspicionLevel)
	}
}

func exitChan(duration time.Duration) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		if duration > 0 {
			select {
			case <-sig:
			case <-time.After(duration):
			}
			return
		}
		<-sig
	}()
	return done
}

func waitForExit(duration time.Duration) { <-exitChan(duration) }

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sfdmon: %v\n", err)
	os.Exit(1)
}
