// Planetlab: the paper's motivating scenario at scale — "PlanetLab ...
// currently consists of 1076 nodes at 494 sites. While lots of nodes are
// inactive at any time, yet we do not know the exact status (active,
// slow, offline, or dead). Therefore, it is impractical to login one by
// one without any guidance." (§I)
//
// One monitor watches 200 simulated nodes in mixed condition — healthy,
// heavily loaded, behind lossy links, crashed — and prints the guidance
// board the paper asks for: a status summary computed from SFD suspicion
// levels, without logging into anything.
package main

import (
	"fmt"
	"time"

	sfd "repro"
)

func main() {
	const (
		nNodes   = 200
		nCrashed = 18 // dead
		nBusy    = 12 // heavily loaded (stretched heartbeats)
		nLossy   = 25 // behind bursty-loss links
	)

	targets := sfd.Targets{MaxTD: 2 * time.Second, MaxMR: 0.5, MinQAP: 0.99}
	sc := sfd.NewSimCluster(sfd.LinkParams{
		DelayBase:  20 * time.Millisecond,
		JitterMean: 4 * time.Millisecond,
		JitterStd:  6 * time.Millisecond,
	}, 494)

	mon := sc.AddMonitor("observatory", sfd.SFDFactory(targets), sfd.RegistryOptions{
		OfflineAfter: 8 * time.Second,
	})

	names := make([]string, nNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%03d", i)
		s := sc.AddSender(names[i], 200*time.Millisecond, 10*time.Millisecond, "observatory")
		if err := mon.Mon.Register(names[i]); err != nil {
			panic(err)
		}
		switch {
		case i < nBusy:
			s.SetBusy(300 * time.Millisecond) // heavy loaded → slow
		case i < nBusy+nLossy:
			sc.Net.SetLink(names[i], "observatory", sfd.LinkParams{
				DelayBase: 20 * time.Millisecond, JitterMean: 10 * time.Millisecond,
				JitterStd: 15 * time.Millisecond, LossRate: 0.08, MeanBurst: 5,
			})
		}
	}

	fmt.Printf("monitoring %d nodes from one observatory (SFD per node)...\n", nNodes)
	sc.RunFor(30*time.Second, 20*time.Millisecond)

	// Crash a block of nodes mid-run.
	for i := nNodes - nCrashed; i < nNodes; i++ {
		sc.Sender(names[i]).Crash()
	}
	fmt.Printf("crashed %d nodes; letting detection settle...\n", nCrashed)
	sc.RunFor(20*time.Second, 20*time.Millisecond)

	// The guidance board.
	now := sc.Clk.Now()
	counts := map[sfd.PeerStatus]int{}
	var suspects []string
	for _, r := range mon.Mon.Snapshot(now) {
		counts[r.Status]++
		if r.Status >= sfd.PeerSuspected {
			suspects = append(suspects, r.Peer)
		}
	}
	fmt.Println("\nstatus summary (the 'guidance' the paper asks for):")
	for _, st := range []sfd.PeerStatus{sfd.PeerActive, sfd.PeerBusy, sfd.PeerSuspected, sfd.PeerOffline, sfd.PeerUnknown} {
		if counts[st] > 0 {
			fmt.Printf("  %-10s %4d nodes\n", st, counts[st])
		}
	}
	fmt.Printf("\nnodes to investigate (%d):\n", len(suspects))
	for i, s := range suspects {
		sep := "  "
		if (i+1)%6 == 0 {
			sep = "\n"
		}
		fmt.Printf("%s%s", s, sep)
	}
	fmt.Println()

	dead := 0
	for i := nNodes - nCrashed; i < nNodes; i++ {
		if st, _ := mon.Mon.StatusOf(names[i], now); st >= sfd.PeerSuspected {
			dead++
		}
	}
	fmt.Printf("\ndetection check: %d/%d crashed nodes flagged\n", dead, nCrashed)
}
