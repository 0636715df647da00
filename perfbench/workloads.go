package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/registry"
)

// cohortSpec is one homogeneous slice of a workload's fleet, driven by
// one load.Fleet scheduler.
type cohortSpec struct {
	name     string
	count    int
	interval time.Duration
	// jitter is load.Pacer's: each gap is drawn from interval·[1−j, 1+j],
	// so a sender's beats drift like a free-running clock. Clean cohorts
	// beat exactly on period, which lets their kills land at a known phase
	// (runner.midCycle).
	jitter float64
	// cfg is the cohort's detector configuration.
	cfg core.Config
	// chaos impairments armed on the cohort's sender sockets.
	chaos []chaos.Impairment
	// kills: victims of the kill schedule come from this cohort.
	kills bool
	// rebindFrac of the cohort rebinds (NAT rebind, incarnation bump)
	// every rebindEvery.
	rebindFrac float64
}

// workload is one traffic mix.
type workload struct {
	name    string
	cohorts []cohortSpec
	// warm is how long the fleet heartbeats before the measured window.
	warm time.Duration
	// Kill schedule. A wave kills waveFrac of the kill cohort once, over
	// the middle of the window, and restarts every other victim; a
	// trickle spreads kills evenly over the window and restarts each one.
	wave         bool
	waveFrac     float64
	kills        int
	restartAfter time.Duration
	// cooldown keeps a restarted stream out of the victim pool until its
	// fresh detector has a freshness point again.
	cooldown    time.Duration
	rebindEvery time.Duration
	// grace after the window lets the last kills' suspect lines land.
	grace time.Duration
	// filteredTap, when set, opens a second /watch on this filter.
	filteredTap string
	federate    bool
	// mistakesAllowed: false fails the run on any suspicion of a live,
	// heartbeating stream.
	mistakesAllowed bool
}

// sfdmonSFD is the detector `sfdmon -mode monitor` builds with its
// default flags (cluster.DefaultFactory: the paper-default SFD, WS=1000,
// α=100 ms, β=0.5, 500-heartbeat slots, with -maxtd 2s -maxmr 0.5
// -minqap 0.99) except for its initial margin SM₁: 500 ms where the
// paper sets SM₁=α=100 ms. On a 2-vCPU guest the host takes a virtual
// CPU away for up to ~100 ms many times a minute; when that lands on
// the receiving thread on top of a few tens of ms of ingest backlog, a
// 100 ms margin suspects live streams, and the zero-mistake gate would
// be testing the host (README.md has the measurements).
func sfdmonSFD() core.Config {
	cfg := core.DefaultConfig()
	cfg.Targets = core.Targets{MaxTD: 2 * time.Second, MaxMR: 0.5, MinQAP: 0.99}
	cfg.InitialMargin = 500 * time.Millisecond
	return cfg
}

var workloads = map[string]workload{
	// 40k streams × 1 s: detector state (~19 KB each with WS=1000) far
	// exceeds cache, so registry/core state and GC dominate.
	"fleet": {
		name: "fleet",
		cohorts: []cohortSpec{{
			name: "fleet", count: 40000, interval: time.Second, kills: true, cfg: sfdmonSFD(),
		}},
		warm:         3 * time.Second,
		wave:         true,
		waveFrac:     0.026,
		restartAfter: 4 * time.Second,
		grace:        3 * time.Second,
	},
	// 1,000 streams × 20 ms: state fits in cache, so per-datagram
	// transport/heartbeat cost dominates; duplicates and reordering
	// exercise both stale checks.
	"hot-ingest": {
		name: "hot-ingest",
		cohorts: []cohortSpec{{
			name: "hot", count: 1000, interval: 20 * time.Millisecond, kills: true, cfg: sfdmonSFD(),
			chaos: []chaos.Impairment{
				{Kind: chaos.KindDuplicate, Rate: 0.01, Delay: chaos.Span(time.Millisecond)},
				{Kind: chaos.KindReorder, Rate: 0.01, Delay: chaos.Span(50 * time.Millisecond)},
			},
		}},
		warm:         3 * time.Second,
		kills:        1100,
		restartAfter: time.Second,
		cooldown:     time.Second,
		grace:        time.Second,
	},
	// mixed-fleet's two cohorts: transitions, detector re-creation,
	// fan-out and the federation roll-up sweep dominate.
	"churn": {
		name: "churn",
		cohorts: []cohortSpec{
			{
				name: "dc", count: 7000, interval: time.Second, jitter: 0.02, kills: true, rebindFrac: 0.01,
				cfg: core.Config{
					Interval: time.Second, InitialMargin: 2500 * time.Millisecond,
					WindowSize: 64, SlotHeartbeats: 20,
					Targets: core.Targets{MaxTD: 4 * time.Second, MaxMR: 0.5, MinQAP: 0.98},
				},
			},
			{
				name: "edge", count: 3000, interval: 2 * time.Second, jitter: 0.2, rebindFrac: 0.01,
				cfg: core.Config{
					Interval: 2 * time.Second, InitialMargin: 6 * time.Second,
					WindowSize: 48, SlotHeartbeats: 16,
					Targets: core.Targets{MaxTD: 12 * time.Second, MaxMR: 2, MinQAP: 0.9},
				},
				chaos: []chaos.Impairment{
					{Kind: chaos.KindLoss, Rate: 0.04, Burst: 5},
					{Kind: chaos.KindDelay, Delay: chaos.Span(40 * time.Millisecond), Jitter: chaos.Span(40 * time.Millisecond)},
				},
			},
		},
		warm:            4 * time.Second,
		kills:           1100,
		restartAfter:    6 * time.Second,
		cooldown:        2 * time.Second,
		rebindEvery:     2 * time.Second,
		grace:           5 * time.Second,
		filteredTap:     "edge/#",
		federate:        true,
		mistakesAllowed: true,
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// streams is the workload's total stream count.
func (w *workload) streams() int {
	n := 0
	for _, c := range w.cohorts {
		n += c.count
	}
	return n
}

// factory builds each stream's detector from its cohort's
// configuration, picked by the stream name's first segment.
func (w *workload) factory() registry.Factory {
	cfgs := make(map[string]core.Config, len(w.cohorts))
	for _, c := range w.cohorts {
		cfgs[c.name] = c.cfg
	}
	return func(peer string) detector.Detector {
		prefix, _, _ := strings.Cut(peer, "/")
		return core.New(cfgs[prefix])
	}
}

type opKind uint8

const (
	opKill opKind = iota
	opRestart
	opRebind
)

// op is one scheduled fault, at an offset from the window's start.
type op struct {
	at     time.Duration
	kind   opKind
	cohort int
	idx    int
}

// killCount is how many kills the window gets. The detection p99 needs
// at least 1,000 of them, to leave ten samples beyond it.
func (w *workload) killCount() int {
	if w.wave {
		n := 0
		for _, c := range w.cohorts {
			if c.kills {
				n += int(float64(c.count)*w.waveFrac + 0.5)
			}
		}
		return n
	}
	return w.kills
}

// schedule builds the fault timeline from the seed: the same seed gives
// the same victims at the same offsets.
func (w *workload) schedule(window time.Duration, rng *rand.Rand) ([]op, error) {
	kc := -1
	for i, c := range w.cohorts {
		if c.kills {
			kc = i
		}
	}
	if kc < 0 {
		return nil, fmt.Errorf("workload %s: no kill cohort", w.name)
	}
	count := w.cohorts[kc].count
	n := w.killCount()
	var ops []op
	if w.wave {
		if n > count {
			return nil, fmt.Errorf("workload %s: wave of %d exceeds %d streams", w.name, n, count)
		}
		start, span := window/10, window/2
		for i, v := range rng.Perm(count)[:n] {
			at := start + span*time.Duration(i)/time.Duration(n)
			ops = append(ops, op{at: at, kind: opKill, cohort: kc, idx: v})
			if i%2 == 0 {
				ops = append(ops, op{at: at + w.restartAfter, kind: opRestart, cohort: kc, idx: v})
			}
		}
	} else {
		lead := 250 * time.Millisecond
		// busyUntil[i] is when stream i may next be a victim.
		busyUntil := make([]time.Duration, count)
		for i := 0; i < n; i++ {
			at := lead + (window-2*lead)*time.Duration(i)/time.Duration(n)
			v := -1
			for tries := 0; tries < 64*count; tries++ {
				if c := rng.Intn(count); busyUntil[c] <= at {
					v = c
					break
				}
			}
			if v < 0 {
				return nil, fmt.Errorf("workload %s: no idle victim at %v", w.name, at)
			}
			busyUntil[v] = at + w.restartAfter + w.cooldown
			ops = append(ops,
				op{at: at, kind: opKill, cohort: kc, idx: v},
				op{at: at + w.restartAfter, kind: opRestart, cohort: kc, idx: v})
		}
	}
	if w.rebindEvery > 0 {
		for at := w.rebindEvery / 2; at < window; at += w.rebindEvery {
			for ci, c := range w.cohorts {
				m := int(float64(c.count)*c.rebindFrac + 0.5)
				// A dead victim may be drawn too; its rebind only bumps
				// the incarnation its restart bumps again.
				for _, v := range rng.Perm(c.count)[:m] {
					ops = append(ops, op{at: at, kind: opRebind, cohort: ci, idx: v})
				}
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops, nil
}
