package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

const testWindow = 20 * time.Second

func TestScheduleIsSeeded(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, err := w.schedule(testWindow, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(name, err)
		}
		b, _ := w.schedule(testWindow, rand.New(rand.NewSource(7)))
		c, _ := w.schedule(testWindow, rand.New(rand.NewSource(8)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different schedule", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same schedule", name)
		}
	}
}

// Every workload kills often enough in one window for its detection p99
// to have ten samples beyond it.
func TestEnoughKillsForP99(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		if n := w.killCount(); n < minSamples(0.99) {
			t.Errorf("%s: %d kills, p99 needs %d", name, n, minSamples(0.99))
		}
	}
}

// A victim is never killed while dead or before its fresh detector has
// had its cooldown, restarts follow kills by restartAfter, and every op
// lands inside the window plus the restart delay.
func TestScheduleVictimsAreIdle(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		ops, err := w.schedule(testWindow, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(name, err)
		}
		type key struct{ c, i int }
		dead := map[key]time.Duration{}
		free := map[key]time.Duration{}
		kills := 0
		for _, o := range ops {
			k := key{o.cohort, o.idx}
			switch o.kind {
			case opKill:
				kills++
				if !w.cohorts[o.cohort].kills {
					t.Fatalf("%s: kill in cohort %s", name, w.cohorts[o.cohort].name)
				}
				if _, ok := dead[k]; ok || o.at < free[k] {
					t.Fatalf("%s: stream %v killed at %v while busy", name, k, o.at)
				}
				if o.at < 0 || o.at >= testWindow {
					t.Fatalf("%s: kill at %v outside the window", name, o.at)
				}
				dead[k] = o.at
			case opRestart:
				at, ok := dead[k]
				if !ok || o.at-at != w.restartAfter {
					t.Fatalf("%s: restart of %v at %v does not follow its kill", name, k, o.at)
				}
				delete(dead, k)
				free[k] = o.at + w.cooldown
			}
		}
		if kills != w.killCount() {
			t.Errorf("%s: %d kills scheduled, want %d", name, kills, w.killCount())
		}
	}
}

func TestFactoryPicksCohortConfig(t *testing.T) {
	w := workloads["churn"]
	f := w.factory()
	for _, c := range w.cohorts {
		d := f(c.name + "/s-00001")
		got := d.(interface{ Margin() time.Duration }).Margin()
		if got != c.cfg.InitialMargin {
			t.Errorf("%s: margin %v, want %v", c.name, got, c.cfg.InitialMargin)
		}
	}
}
