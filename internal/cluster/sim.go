// Package cluster provides the cloud-monitoring layer of the paper's
// model (Fig. 1): a deterministic multi-cloud simulation in which
// monitors watch many servers with one failure detector each ("one
// monitors multiple"), a quorum combining several monitors' views
// ("multiple monitor multiple", §VII), Ω leader election over any
// status source, and the graduated-reaction pattern of §I. Every
// simulated monitor is a registry.Registry on the simulation's clock,
// so the simulation and the live daemon share one monitor core and one
// status model (active, busy/slow, suspected, offline).
package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/clock"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/registry"
)

// SimCluster is a deterministic multi-node monitoring deployment over the
// network simulator: heartbeat senders and monitors wired through
// simulated WAN links, driven by a simulated clock. It is the testbed for
// the Fig. 1 consortium scenario, the crash-injection benchmarks, and the
// "one monitors multiple" claims.
type SimCluster struct {
	Clk *clock.Sim
	Net *netsim.Network

	rng      *rand.Rand
	senders  map[string]*SimSender
	monitors map[string]*SimMonitor
}

// NewSimCluster creates an empty deployment with the given default link.
func NewSimCluster(def netsim.LinkParams, seed int64) *SimCluster {
	clk := clock.NewSim(0)
	return &SimCluster{
		Clk:      clk,
		Net:      netsim.New(clk, def, seed),
		rng:      rand.New(rand.NewSource(seed + 1)),
		senders:  make(map[string]*SimSender),
		monitors: make(map[string]*SimMonitor),
	}
}

// SimSender is a simulated heartbeat-emitting server process.
type SimSender struct {
	name     string
	node     *netsim.Node
	clk      *clock.Sim
	rng      *rand.Rand
	interval clock.Duration
	jitter   clock.Duration // extra uniform delay per beat (OS scheduling noise)
	targets  []string

	seq     uint64
	crashed bool
	busy    clock.Duration // extra per-beat sluggishness while "heavy loaded"
	crashAt clock.Time
}

// AddSender registers a server that heartbeats every interval (±jitter)
// to the listed monitor addresses.
func (c *SimCluster) AddSender(name string, interval, jitter clock.Duration, targets ...string) *SimSender {
	if _, dup := c.senders[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate sender %q", name))
	}
	s := &SimSender{
		name: name, node: c.Net.AddNode(name, 64), clk: c.Clk,
		rng:      rand.New(rand.NewSource(c.rng.Int63())),
		interval: interval, jitter: jitter, targets: append([]string(nil), targets...),
	}
	c.senders[name] = s
	s.scheduleNext(0)
	return s
}

func (s *SimSender) scheduleNext(d clock.Duration) {
	s.clk.AfterFunc(d, func(now clock.Time) {
		if s.crashed {
			return
		}
		msg := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: s.seq, Time: now}
		s.seq++
		payload := msg.Marshal()
		for _, t := range s.targets {
			_ = s.node.Send(t, payload)
		}
		next := s.interval + s.busy
		if s.jitter > 0 {
			next += clock.Duration(s.rng.Int63n(int64(s.jitter)))
		}
		s.scheduleNext(next)
	})
}

// Crash stops the server's heartbeats permanently, recording the instant.
func (s *SimSender) Crash() {
	if !s.crashed {
		s.crashed = true
		s.crashAt = s.clk.Now()
	}
}

// Crashed reports whether the server has crashed, and when.
func (s *SimSender) Crashed() (bool, clock.Time) { return s.crashed, s.crashAt }

// SetBusy adds per-beat sluggishness, modelling a heavy-loaded server
// whose heartbeats stretch out without stopping.
func (s *SimSender) SetBusy(extra clock.Duration) {
	if extra < 0 {
		extra = 0
	}
	s.busy = extra
}

// Sent returns the number of heartbeats emitted.
func (s *SimSender) Sent() uint64 { return s.seq }

// SimMonitor couples a network node with a monitoring registry, decoding
// heartbeat datagrams from the node's inbox.
type SimMonitor struct {
	name string
	node *netsim.Node
	Mon  *registry.Registry
}

// AddMonitor registers a monitoring process using the given detector
// factory and options. Its registry runs on the simulation's clock, so
// suspect/offline/evict transitions fire as RunFor advances time.
func (c *SimCluster) AddMonitor(name string, factory registry.Factory, opts registry.Options) *SimMonitor {
	if _, dup := c.monitors[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate monitor %q", name))
	}
	m := &SimMonitor{
		name: name,
		node: c.Net.AddNode(name, 4096),
		Mon:  registry.New(c.Clk, factory, opts),
	}
	m.Mon.Start()
	c.monitors[name] = m
	return m
}

// pump drains the monitor's inbox into its detectors.
func (m *SimMonitor) pump() {
	for {
		in, ok := m.node.TryRecv()
		if !ok {
			return
		}
		msg, err := heartbeat.Unmarshal(in.Payload)
		if err != nil || msg.Kind != heartbeat.KindHeartbeat {
			continue
		}
		m.Mon.Observe(heartbeat.Arrival{From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: in.At})
	}
}

// Monitor returns a registered monitor by name (nil if absent).
func (c *SimCluster) Monitor(name string) *SimMonitor { return c.monitors[name] }

// Sender returns a registered sender by name (nil if absent).
func (c *SimCluster) Sender(name string) *SimSender { return c.senders[name] }

// MonitorNames returns the registered monitors, sorted.
func (c *SimCluster) MonitorNames() []string {
	out := make([]string, 0, len(c.monitors))
	for n := range c.monitors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RunFor advances simulated time by total in steps of step (default
// 10 ms), pumping every monitor between steps so arrivals are observed
// promptly.
func (c *SimCluster) RunFor(total, step clock.Duration) {
	if step <= 0 {
		step = 10 * clock.Millisecond
	}
	for elapsed := clock.Duration(0); elapsed < total; elapsed += step {
		c.Clk.Advance(step)
		for _, m := range c.monitors {
			m.pump()
		}
	}
}

// DetectCrash advances simulated time until the named monitor classifies
// the peer at or above registry.StatusSuspected, or maxWait elapses. It
// returns the detection latency measured from the peer's crash instant;
// ok is false on timeout or if the peer never crashed.
func (c *SimCluster) DetectCrash(monitor, peer string, maxWait clock.Duration) (clock.Duration, bool) {
	m := c.monitors[monitor]
	s := c.senders[peer]
	if m == nil || s == nil {
		return 0, false
	}
	crashed, at := s.Crashed()
	if !crashed {
		return 0, false
	}
	const step = 5 * clock.Millisecond
	deadline := c.Clk.Now().Add(maxWait)
	for c.Clk.Now().Before(deadline) {
		c.Clk.Advance(step)
		m.pump()
		if st, ok := m.Mon.StatusOf(peer, c.Clk.Now()); ok && st >= registry.StatusSuspected {
			return c.Clk.Now().Sub(at), true
		}
	}
	return 0, false
}

// Cloud is one member cloud of the consortium: a manager process that
// monitors the cloud's servers and is itself monitored by the other
// clouds' managers (the paper's footnote 6: "process q is like a manager,
// and process p is like an education cloud").
type Cloud struct {
	Name    string
	Manager *SimMonitor
	Servers []*SimSender
}

// Consortium is the Fig. 1 scenario: several education clouds whose
// managers cross-monitor each other, built on WAN-grade links.
type Consortium struct {
	*SimCluster
	Clouds map[string]*Cloud
}

// ConsortiumConfig parameterizes BuildConsortium.
type ConsortiumConfig struct {
	CloudNames      []string // default: the five states of Fig. 1
	ServersPerCloud int      // default 3
	Interval        clock.Duration
	Jitter          clock.Duration
	IntraCloud      netsim.LinkParams // manager ↔ own servers
	InterCloud      netsim.LinkParams // manager ↔ manager (WAN)
	Factory         registry.Factory
	Options         registry.Options
	Seed            int64
}

// BuildConsortium constructs the education-cloud consortium: each cloud
// gets a manager monitoring its servers over LAN-grade links, and every
// manager heartbeats to — and monitors — every other manager over
// WAN-grade links.
func BuildConsortium(cfg ConsortiumConfig) *Consortium {
	if len(cfg.CloudNames) == 0 {
		cfg.CloudNames = []string{"GA", "SC", "NC", "VA", "MD"}
	}
	if cfg.ServersPerCloud <= 0 {
		cfg.ServersPerCloud = 3
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * clock.Millisecond
	}
	if cfg.IntraCloud == (netsim.LinkParams{}) {
		cfg.IntraCloud = netsim.LinkParams{
			DelayBase: clock.Millisecond, JitterMean: clock.Millisecond,
			JitterStd: clock.Millisecond,
		}
	}
	if cfg.InterCloud == (netsim.LinkParams{}) {
		cfg.InterCloud = netsim.LinkParams{
			DelayBase: 40 * clock.Millisecond, JitterMean: 5 * clock.Millisecond,
			JitterStd: 8 * clock.Millisecond, TailProb: 0.002,
			TailScale: 60 * clock.Millisecond, LossRate: 0.01, MeanBurst: 3,
		}
	}
	sc := NewSimCluster(cfg.IntraCloud, cfg.Seed)
	con := &Consortium{SimCluster: sc, Clouds: make(map[string]*Cloud)}

	managerAddr := func(cloud string) string { return cloud + "/manager" }

	// Managers first, so servers can target them.
	for _, name := range cfg.CloudNames {
		mon := sc.AddMonitor(managerAddr(name), cfg.Factory, cfg.Options)
		con.Clouds[name] = &Cloud{Name: name, Manager: mon}
	}
	watch := func(m *SimMonitor, peer string) {
		if err := m.Mon.Register(peer); err != nil {
			panic(fmt.Sprintf("cluster: %v", err))
		}
	}
	// Servers heartbeat to their own manager.
	for _, name := range cfg.CloudNames {
		cl := con.Clouds[name]
		for i := 0; i < cfg.ServersPerCloud; i++ {
			srvName := fmt.Sprintf("%s/server-%d", name, i)
			s := sc.AddSender(srvName, cfg.Interval, cfg.Jitter, managerAddr(name))
			watch(cl.Manager, srvName)
			cl.Servers = append(cl.Servers, s)
		}
	}
	// Cross-cloud: each manager heartbeats to every other manager over
	// WAN links (managers are both senders and monitors; the sender half
	// is a separate sim node since netsim addresses are unique).
	for _, a := range cfg.CloudNames {
		beaconName := a + "/beacon"
		var targets []string
		for _, b := range cfg.CloudNames {
			if a == b {
				continue
			}
			targets = append(targets, managerAddr(b))
		}
		sc.AddSender(beaconName, cfg.Interval, cfg.Jitter, targets...)
		for _, b := range cfg.CloudNames {
			if a == b {
				continue
			}
			sc.Net.SetLink(beaconName, managerAddr(b), cfg.InterCloud)
			watch(con.Clouds[b].Manager, beaconName)
		}
	}
	return con
}

// CrossCloudQuorum returns a Quorum over every cloud manager except the
// named cloud's own (a cloud cannot vote on itself).
func (c *Consortium) CrossCloudQuorum(excludeCloud string) Quorum {
	var mons []StatusSource
	names := make([]string, 0, len(c.Clouds))
	for n := range c.Clouds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if n == excludeCloud {
			continue
		}
		mons = append(mons, c.Clouds[n].Manager.Mon)
	}
	return Quorum{Monitors: mons}
}
