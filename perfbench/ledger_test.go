package main

import (
	"strings"
	"testing"
)

func balanced() ledger {
	// 1000 handed to the sockets, 10 lost to injected loss, 5 injected
	// duplicates: 995 on the wire.
	return ledger{
		Sent: 1000, ChaosLost: 10, ChaosDup: 5,
		Accepted: 970, RegStale: 1, RecvStale: 14, KernelDrops: 6, QueueDrops: 3, InFlight: 1,
	}
}

func TestLedgerBalances(t *testing.T) {
	l := balanced()
	if l.onWire() != 995 || l.accounted() != 995 {
		t.Fatalf("on wire %d, accounted %d", l.onWire(), l.accounted())
	}
	if err := l.check(); err != nil {
		t.Fatal(err)
	}
	if l.lost() != 9 {
		t.Fatalf("lost %d, want kernel+queue drops 9", l.lost())
	}
	if got, want := l.lossRatio(), 9.0/995; got != want {
		t.Fatalf("loss ratio %v, want %v", got, want)
	}
}

func TestLedgerCatchesMissingAndDoubleCounted(t *testing.T) {
	missing := balanced()
	missing.Accepted--
	if err := missing.check(); err == nil || !strings.Contains(err.Error(), "diff -1") {
		t.Fatalf("a lost heartbeat must fail: %v", err)
	}
	double := balanced()
	double.RecvStale++
	if err := double.check(); err == nil || !strings.Contains(err.Error(), "diff 1") {
		t.Fatalf("a double-counted heartbeat must fail: %v", err)
	}
	impossible := ledger{Sent: 1, ChaosLost: 2}
	if err := impossible.check(); err == nil {
		t.Fatal("more injected losses than sends must fail")
	}
}

func TestLedgerEmpty(t *testing.T) {
	var l ledger
	if err := l.check(); err != nil {
		t.Fatal(err)
	}
	if l.lossRatio() != 0 {
		t.Fatal("empty ledger loses nothing")
	}
}
