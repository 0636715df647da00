package main

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// Kills in a cohort without jitter land halfway between two of the
// victim's beats; jittered cohorts and other ops keep their instants.
func TestMidCycleAlignsKills(t *testing.T) {
	r := &runner{w: workload{cohorts: []cohortSpec{
		{name: "a", count: 4, interval: time.Second},
		{name: "b", count: 4, interval: time.Second, jitter: 0.1},
	}}}
	t0 := clock.Time(10 * time.Second)
	ops := []op{
		{at: 2100 * time.Millisecond, kind: opKill, cohort: 0, idx: 1},    // beats at 0.25 s + k s
		{at: 2100 * time.Millisecond, kind: opRestart, cohort: 0, idx: 2}, // not a kill
		{at: 2200 * time.Millisecond, kind: opKill, cohort: 1, idx: 1},    // jittered cohort
		{at: 2300 * time.Millisecond, kind: opKill, cohort: 0, idx: 0},    // beats at k s: next mid-cycle 12.5 s
	}
	got := r.midCycle(ops, t0)
	want := []op{
		{at: 2100 * time.Millisecond, kind: opRestart, cohort: 0, idx: 2},
		{at: 2200 * time.Millisecond, kind: opKill, cohort: 1, idx: 1},
		{at: 2500 * time.Millisecond, kind: opKill, cohort: 0, idx: 0},
		{at: 2750 * time.Millisecond, kind: opKill, cohort: 0, idx: 1},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if ops[0].at != 2100*time.Millisecond {
		t.Error("midCycle changed its input")
	}
}
