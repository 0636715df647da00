package load

import (
	"fmt"
	"net"
	"net/http"
	"strings"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/gossip"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

// NodeOptions configures one embedded monitor node.
type NodeOptions struct {
	// Clock must be shared with the fleets and tracker so event
	// timestamps subtract from fault instants on one timebase.
	Clock clock.Clock
	// Factory builds each stream's detector (the run derives it from the
	// cohort specs).
	Factory registry.Factory
	// Registry knobs.
	OfflineAfter clock.Duration
	MaxSilence   clock.Duration
	EvictAfter   clock.Duration
	// StateDir enables persistence when non-empty.
	StateDir string
	// GossipPeers are the other monitors' UDP addresses; non-empty
	// starts a gossiper on the shared socket.
	GossipPeers []string
	// GossipQuorum for Global* verdicts (default 2).
	GossipQuorum int
	// ID names the monitor in gossip digests.
	ID string
	// RxQueues / RxBatch tune the ingest transport (defaults 1 / 32).
	RxQueues, RxBatch int
	// Transport adopts a pre-bound ingest socket (multi-monitor runs
	// bind all sockets first so each gossiper knows its peers' real
	// addresses); nil binds a fresh loopback socket.
	Transport *transport.UDP
}

// MonitorNode is a full in-process monitor: UDP ingest, sharded
// registry, optional gossiper, and an HTTP surface on a loopback
// ephemeral port (the /watch endpoint the taps consume — the harness
// observes the monitor exactly the way an operator's tooling would,
// over the wire, not through test hooks).
type MonitorNode struct {
	UDP *transport.UDP
	Reg *registry.Registry

	recv *heartbeat.Receiver
	gsp  *gossip.Gossiper
	srv  *http.Server
	ln   net.Listener
	sub  *registry.Subscription

	httpDone chan struct{}
	evtDone  chan struct{}
}

// StartMonitor boots a monitor node bound to loopback ephemeral ports.
func StartMonitor(o NodeOptions) (*MonitorNode, error) {
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	if o.Factory == nil {
		return nil, fmt.Errorf("load: monitor needs a detector factory")
	}
	if o.RxBatch <= 0 {
		o.RxBatch = 32
	}
	if o.RxQueues <= 0 {
		o.RxQueues = 1
	}
	udp := o.Transport
	if udp == nil {
		var err error
		udp, err = transport.ListenUDPOpts("127.0.0.1:0", transport.MonitorIngest(transport.UDPOptions{
			Queues: o.RxQueues, Batch: o.RxBatch,
		}))
		if err != nil {
			return nil, fmt.Errorf("load: monitor udp: %w", err)
		}
	}
	m := &MonitorNode{UDP: udp, httpDone: make(chan struct{}), evtDone: make(chan struct{})}

	m.Reg = registry.New(o.Clock, o.Factory, registry.Options{
		OfflineAfter: o.OfflineAfter,
		MaxSilence:   o.MaxSilence,
		EvictAfter:   o.EvictAfter,
		StateDir:     o.StateDir,
		// Per-stream metrics sampling over tens of thousands of streams
		// would make each scrape a fleet walk; aggregates only.
		MetricsMaxStreams: -1,
	})
	m.Reg.Start()

	m.recv = heartbeat.NewReceiver(udp, o.Clock, m.Reg.Observe)
	if len(o.GossipPeers) > 0 {
		m.gsp = gossip.New(udp, o.Clock, m.Reg, o.GossipPeers, gossip.Options{
			ID:     o.ID,
			Quorum: o.GossipQuorum,
		})
		m.recv.SetForeign(func(in transport.Inbound) { m.gsp.HandleDatagram(in.Payload) })
		m.gsp.Start()
	}
	m.recv.Start()

	udp.InstrumentMetrics(m.Reg.Metrics())
	m.recv.InstrumentMetrics(m.Reg.Metrics())
	if m.gsp != nil {
		m.gsp.InstrumentMetrics(m.Reg.Metrics())
	}

	// Evictions clear the receiver's stale filter, same as sfdmon.
	m.sub = m.Reg.Subscribe(1024)
	go func() {
		defer close(m.evtDone)
		for ev := range m.sub.C() {
			if ev.Type == registry.EventEvicted {
				m.recv.Forget(ev.Peer)
			}
		}
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.teardown()
		return nil, fmt.Errorf("load: monitor http: %w", err)
	}
	m.ln = ln
	mux := http.NewServeMux()
	mux.Handle("/", m.Reg.Handler())
	m.srv = &http.Server{Handler: mux}
	go func() {
		defer close(m.httpDone)
		_ = m.srv.Serve(ln)
	}()
	return m, nil
}

// UDPAddr is the heartbeat target address.
func (m *MonitorNode) UDPAddr() string { return m.UDP.Addr() }

// BaseURL is the HTTP surface root, e.g. "http://127.0.0.1:41234".
func (m *MonitorNode) BaseURL() string {
	return "http://" + strings.Replace(m.ln.Addr().String(), "0.0.0.0", "127.0.0.1", 1)
}

// Stop tears the node down: HTTP first (severs watch streams), then
// gossip, receiver, registry, socket.
func (m *MonitorNode) Stop() {
	if m.srv != nil {
		_ = m.srv.Close()
		<-m.httpDone
	}
	m.teardown()
}

func (m *MonitorNode) teardown() {
	if m.gsp != nil {
		m.gsp.Stop()
	}
	// The receiver exits when its endpoint closes.
	_ = m.UDP.Close()
	if m.recv != nil {
		m.recv.Wait()
	}
	if m.sub != nil {
		m.sub.Close()
		<-m.evtDone
	}
	if m.Reg != nil {
		m.Reg.Stop()
	}
}

// cohortFactory builds the per-stream detector factory: stream names are
// "<cohort>/s-<i>", so the cohort prefix picks that cohort's detector
// configuration; unknown prefixes get the first cohort's.
func cohortFactory(cohorts []CohortSpec) registry.Factory {
	type cfgEntry struct {
		prefix string
		cfg    core.Config
	}
	entries := make([]cfgEntry, 0, len(cohorts))
	for _, c := range cohorts {
		cfg := core.DefaultConfig()
		cfg.Targets = c.Targets
		cfg.Interval = c.Pacer.Interval
		cfg.InitialMargin = c.Margin
		cfg.WindowSize = c.WindowSize
		cfg.SlotHeartbeats = c.SlotHeartbeats
		entries = append(entries, cfgEntry{prefix: c.Name + "/", cfg: cfg})
	}
	return func(peer string) detector.Detector {
		for _, e := range entries {
			if strings.HasPrefix(peer, e.prefix) {
				return core.New(e.cfg)
			}
		}
		return core.New(entries[0].cfg)
	}
}
