package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root declares what the benchmark
// prints; it must name exactly the workloads and metrics the code has.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) || !equal(got, want) {
		t.Errorf("workloads %v, code has %v", got, want)
	}
	check := func(kind string, decl []struct{ Name, Unit string }, specs []metricSpec) {
		if len(decl) != len(specs) {
			t.Errorf("%s: %d declared, code has %d", kind, len(decl), len(specs))
			return
		}
		for i, s := range specs {
			if decl[i].Name != s.name || decl[i].Unit != s.unit {
				t.Errorf("%s[%d]: declared %s %s, code has %s %s", kind, i, decl[i].Name, decl[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func equal(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPickOrdersAndRefusesGaps(t *testing.T) {
	f := figures{}
	f.put("b", 2, "n=%d", 7)
	f.put("a", 1, "")
	got, err := f.pick([]metricSpec{{"a", "s"}, {"b", "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].name != "a" || got[0].unit != "s" || got[1].value != 2 || got[1].note != "n=7" {
		t.Fatalf("picked %+v", got)
	}
	if _, err := f.pick([]metricSpec{{"c", "s"}}); err == nil {
		t.Fatal("an unmeasured metric must be an error")
	}
}

func TestHistP99(t *testing.T) {
	edges := []float64{0, 1, 2, 3, math.Inf(1)}
	before := []uint64{5, 0, 0, 0}
	after := []uint64{5 + 90, 9, 1, 0}
	if got := histP99(before, after, edges); got != 2 {
		t.Fatalf("p99 %v, want the upper edge of the second bucket, 2", got)
	}
	after = []uint64{5, 0, 0, 100}
	if got := histP99(before, after, edges); got != 3 {
		t.Fatalf("open bucket: %v, want its lower edge 3", got)
	}
	if got := histP99(before, before, edges); got != 0 {
		t.Fatalf("no samples: %v", got)
	}
}
