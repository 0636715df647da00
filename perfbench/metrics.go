package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/registry"
)

// metricSpec names one reported metric and its unit. The two lists are
// the benchmark's contract: BENCHMARK.json lists the same names and
// units (metrics_test.go checks), --trace 0 prints exactly endToEnd and
// --trace 1 exactly perLayer.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"detect_p50_ms", "ms"},
	{"detect_p99_ms", "ms"},
	{"bytes_per_stream", "B"},
}

var perLayer = []metricSpec{
	// End-to-end figures that do not hold steady from run to run, or are
	// zero by design on two workloads.
	{"hb_per_cpu_s", "hb/cpu-s"},
	{"ingest_p50_us", "us"},
	{"ingest_p99_us", "us"},
	{"mistakes_per_stream_h", "1/h"},
	{"hb_loss_ratio", "ratio"},

	{"transport.wait_us_p50", "us"},
	{"transport.wait_us_p99", "us"},
	{"transport.kernel_drops", "count"},
	{"transport.queue_drops", "count"},
	{"transport.queue_depth_max", "count"},
	{"transport.pool_miss_ratio", "ratio"},
	{"heartbeat.dispatch_ns_mean", "ns"},
	{"heartbeat.self_ns_mean", "ns"},
	{"heartbeat.stale_ratio", "ratio"},
	{"registry.observe_ns_p50", "ns"},
	{"registry.observe_ns_p99", "ns"},
	{"registry.observe_self_ns_mean", "ns"},
	{"registry.stale", "count"},
	{"registry.wheel_rearms", "count"},
	{"registry.tick_us_p50", "us"},
	{"registry.tick_us_p99", "us"},
	{"registry.tick_fired", "count"},
	{"core.observe_ns_p50", "ns"},
	{"core.observe_ns_p99", "ns"},
	{"core.freshness_ns_mean", "ns"},
	{"core.new_us_mean", "us"},
	{"core.new_calls", "count"},
	{"bus.deliver_us_p50", "us"},
	{"bus.deliver_us_p99", "us"},
	{"fanout.matches", "count"},
	{"fanout.drops", "count"},
	{"watch.lag_us_p50", "us"},
	{"watch.lag_us_p99", "us"},
	{"watch.dropped", "count"},
	{"watch.reconnects", "count"},
	{"federate.rollup_ms_p50", "ms"},
	{"federate.rollup_ms_p99", "ms"},
	{"federate.digest_bytes", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.heap_inuse_mb", "MB"},
	{"gen.behind_ratio", "ratio"},
	{"trace.overhead", "ratio"},
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	// note is shown beside the value in the readable table (sample
	// count, the base of a ratio).
	note string
}

// figures collects measured values by name before they are put in the
// contract's order.
type figures map[string]metric

func (f figures) put(name string, value float64, note string, args ...any) {
	f[name] = metric{name: name, value: value, note: fmt.Sprintf(note, args...)}
}

// pick returns the specs' metrics in order, with their units; a spec
// with no measured value is an error in the benchmark itself.
func (f figures) pick(specs []metricSpec) ([]metric, error) {
	out := make([]metric, 0, len(specs))
	for _, s := range specs {
		m, ok := f[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		m.unit = s.unit
		out = append(out, m)
	}
	return out, nil
}

// ratio is num/den, 0 when there is no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrape reads the registry's /metrics page (the instruments an operator
// scrapes, the socket's and the receiver's included) into a map.
func scrape(reg *registry.Registry) map[string]float64 {
	var b bytes.Buffer
	_ = reg.Metrics().WritePrometheus(&b) // writes to a bytes.Buffer do not fail
	return parseProm(b.String())
}

// parseProm reads Prometheus text exposition: series name (labels
// included) → value.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// histP99 is the 99th percentile of the difference of two cumulative
// bucket-count snapshots, as the upper edge of the bucket holding it
// (the lower edge for the open top bucket). edges has one more entry
// than the counts.
func histP99(before, after []uint64, edges []float64) float64 {
	var total uint64
	d := make([]uint64, len(after))
	for i := range after {
		d[i] = after[i] - before[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(rank(0.99, int(total)))
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= want {
			if hi := edges[i+1]; hi <= 1e300 {
				return hi
			}
			return edges[i]
		}
	}
	return 0
}
