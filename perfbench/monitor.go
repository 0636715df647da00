package main

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/federate"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

// The monitor socket's receive path is sized the way
// internal/load.StartMonitor sizes it, not with sfdmon's defaults: an
// 8 MiB SO_RCVBUF request (the kernel caps it at net.core.rmem_max) and
// a receive-buffer pool that covers the whole ingest queue. With
// sfdmon's SO_RCVBUF a 40k hb/s fleet sheds datagrams at the socket;
// with its 512-buffer pool a backlog past the pool allocates 64 KiB per
// datagram, and half the runs measured collapsed. README.md has the
// figures.
const (
	monitorReadBuffer  = 8 << 20
	monitorPoolBuffers = 4096 + 128 // transport's default queue length, plus slack
)

// monitorOpts builds one monitor the way `sfdmon -mode monitor` does with
// its default flags. The hooks let the traced run wrap the calls into
// each layer without changing what is called.
type monitorOpts struct {
	clk     clock.Clock
	factory registry.Factory

	// wrap wraps the handler handed to heartbeat.NewReceiver (nil: the
	// registry's Observe as is).
	wrap func(heartbeat.Handler) heartbeat.Handler
	// tick drives one wheel tick (nil: Registry.Tick).
	tick func(*registry.Registry, clock.Time)
	// fed, when set, attaches a federation leaf whose roll-ups the
	// monitor drives every fed.interval.
	fed *leafOpts
}

type leafOpts struct {
	agg      string
	cohorts  []string
	interval time.Duration
	// rollup runs one round (nil: Leaf.Rollup).
	rollup func(*federate.Leaf, clock.Time)
	// sentBytes counts the digest bytes the leaf puts on the wire.
	sentBytes *atomic.Uint64
}

// monitor is the system under test: UDP ingest, heartbeat receiver,
// sharded registry with the paper's detector, /watch over HTTP, and
// optionally a federation leaf.
type monitor struct {
	udp  *transport.UDP
	recv *heartbeat.Receiver
	reg  *registry.Registry
	leaf *federate.Leaf
	srv  *http.Server
	base string

	sub      *registry.Subscription
	subDone  chan struct{}
	httpDone chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup
}

// countingSender is the leaf's endpoint: the monitor's socket, with the
// digest bytes counted on their way out.
type countingSender struct {
	ep    *transport.UDP
	bytes *atomic.Uint64
}

func (c countingSender) Send(to string, p []byte) error {
	c.bytes.Add(uint64(len(p)))
	return c.ep.Send(to, p)
}

func (c countingSender) Addr() string { return c.ep.Addr() }

// startMonitor constructs a monitor and starts serving. It registers no
// stream: admission is a separate step so set-up can time it.
func startMonitor(o monitorOpts) (*monitor, error) {
	udp, err := transport.ListenUDPOpts("127.0.0.1:0", transport.UDPOptions{ReadBuffer: monitorReadBuffer, PoolBuffers: monitorPoolBuffers})
	if err != nil {
		return nil, fmt.Errorf("monitor udp: %w", err)
	}
	m := &monitor{udp: udp, subDone: make(chan struct{}), httpDone: make(chan struct{}), stop: make(chan struct{})}
	// sfdmon's registry options: defaults plus a one-minute eviction.
	m.reg = registry.New(o.clk, o.factory, registry.Options{EvictAfter: time.Minute})
	var h heartbeat.Handler = m.reg.Observe
	if o.wrap != nil {
		h = o.wrap(h)
	}
	m.recv = heartbeat.NewReceiver(udp, o.clk, h)
	if o.fed != nil {
		m.leaf, err = federate.NewLeaf(countingSender{udp, o.fed.sentBytes}, o.clk, m.reg, o.fed.agg, federate.LeafOptions{
			ID:       "leaf-0",
			Region:   "bench",
			Cohorts:  o.fed.cohorts,
			Interval: o.fed.interval,
		})
		if err != nil {
			_ = udp.Close()
			return nil, fmt.Errorf("monitor leaf: %w", err)
		}
		leaf := m.leaf
		m.recv.SetForeign(func(in transport.Inbound) {
			if federate.IsFederation(in.Payload) {
				leaf.HandleDatagramFrom(in.From, in.Payload)
			}
		})
	}
	m.recv.Start()
	udp.InstrumentMetrics(m.reg.Metrics())
	m.recv.InstrumentMetrics(m.reg.Metrics())

	// Evictions clear the receiver's stale filter, as in sfdmon.
	m.sub = m.reg.Subscribe(1024)
	go func() {
		defer close(m.subDone)
		for ev := range m.sub.C() {
			if ev.Type == registry.EventEvicted {
				m.recv.Forget(ev.Peer)
			}
		}
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.close()
		return nil, fmt.Errorf("monitor http: %w", err)
	}
	m.base = "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	mux.Handle("/", m.reg.Handler())
	m.srv = &http.Server{Handler: mux}
	go func() {
		defer close(m.httpDone)
		_ = m.srv.Serve(ln)
	}()

	// The wheel driver Registry.Start would run, driven here so the
	// traced run can time each tick.
	tick := o.tick
	if tick == nil {
		tick = (*registry.Registry).Tick
	}
	m.every(o.clk, m.reg.Options().WheelTick, func(now clock.Time) { tick(m.reg, now) })
	if o.fed != nil {
		rollup := o.fed.rollup
		if rollup == nil {
			rollup = (*federate.Leaf).Rollup
		}
		m.every(o.clk, o.fed.interval, func(now clock.Time) { rollup(m.leaf, now) })
	}
	return m, nil
}

// every runs fn each period on the monitor's clock until close.
func (m *monitor) every(clk clock.Clock, period time.Duration, fn func(clock.Time)) {
	m.loops.Add(1)
	go func() {
		defer m.loops.Done()
		for {
			select {
			case <-m.stop:
				return
			case now := <-clk.After(period):
				fn(now)
			}
		}
	}()
}

// admit pre-registers every stream. Names are copied, as if read off the
// wire, so the registry does not share the generator's strings and the
// heap delta charges the monitor for its keys.
func (m *monitor) admit(names []string) error {
	for _, n := range names {
		if err := m.reg.Register(strings.Clone(n)); err != nil {
			return err
		}
	}
	return nil
}

// stopDrivers halts the wheel and roll-up drivers: no transition fires
// after it returns.
func (m *monitor) stopDrivers() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.loops.Wait()
}

// close tears the monitor down: HTTP first (severs /watch), then the
// drivers, the socket (the receiver exits when it closes), the bus.
func (m *monitor) close() {
	if m.srv != nil {
		_ = m.srv.Close()
		<-m.httpDone
	}
	m.stopDrivers()
	if m.leaf != nil {
		m.leaf.Stop()
	}
	_ = m.udp.Close()
	m.recv.Wait()
	m.sub.Close()
	<-m.subDone
	m.reg.Stop()
}
