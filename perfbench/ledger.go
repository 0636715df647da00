package main

import "fmt"

// ledger is the heartbeat accounting of one run, read after the
// generator has stopped and the monitor has drained its socket and
// ingest queue. Every heartbeat that reached the wire must end in
// exactly one bucket on the monitor side.
type ledger struct {
	Sent      uint64 // Fleet.Sent: heartbeats handed to the sender sockets
	ChaosLost uint64 // of those, dropped by injected loss before the wire
	ChaosDup  uint64 // extra copies injected on the wire

	Accepted    uint64 // registry Counters.Heartbeats
	RegStale    uint64 // registry (inc, seq) check
	Invalid     uint64 // registry name validation
	RecvStale   uint64 // receiver stale filter
	KernelDrops uint64 // /proc/net/snmp Udp RcvbufErrors delta
	QueueDrops  uint64 // transport ingest-queue drops
	InFlight    uint64 // still queued at the cut
}

// onWire is how many heartbeat datagrams the senders put on loopback.
func (l ledger) onWire() uint64 { return l.Sent - l.ChaosLost + l.ChaosDup }

// accounted is how many the monitor side can account for.
func (l ledger) accounted() uint64 {
	return l.Accepted + l.RegStale + l.Invalid + l.RecvStale + l.KernelDrops + l.QueueDrops + l.InFlight
}

// lost is the heartbeats the monitor dropped (not the injected loss,
// and not stale copies it filtered on purpose).
func (l ledger) lost() uint64 { return l.KernelDrops + l.QueueDrops }

// lossRatio is lost ÷ on the wire.
func (l ledger) lossRatio() float64 {
	if l.onWire() == 0 {
		return 0
	}
	return float64(l.lost()) / float64(l.onWire())
}

// check reports a conservation failure: any heartbeat unaccounted for,
// or any accounted for twice.
func (l ledger) check() error {
	if l.ChaosLost > l.Sent {
		return fmt.Errorf("conservation: %d injected losses exceed %d sent", l.ChaosLost, l.Sent)
	}
	if w, a := l.onWire(), l.accounted(); w != a {
		return fmt.Errorf("conservation: on wire %d (sent %d - injected loss %d + injected dup %d) != accounted %d "+
			"(accepted %d + registry stale %d + invalid %d + receiver stale %d + kernel drops %d + queue drops %d + in flight %d), diff %d",
			w, l.Sent, l.ChaosLost, l.ChaosDup, a,
			l.Accepted, l.RegStale, l.Invalid, l.RecvStale, l.KernelDrops, l.QueueDrops, l.InFlight, int64(a)-int64(w))
	}
	return nil
}
