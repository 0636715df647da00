// Command perfbench is the repository's benchmark of the live heartbeat
// path: sender → UDP → recvmmsg batch → ingest queue → decode and stale
// filter → Registry.Observe with the paper's SFD detector → timer wheel
// → bus → /watch (and, on churn, the federation roll-up). It builds the
// monitor from the public constructors `sfdmon -mode monitor` uses,
// drives it with load.Fleet senders over loopback, checks the run's
// correctness gates and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 a separate traced run reports the
// per-layer ones and writes its spans under -out. A failed gate prints
// the result with "correct": false and exits 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for the fault schedule, jitter and impairments")
		seconds = flag.Int("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the traced run's span dump")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seconds ≥1 --trace {0,1}\n", strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := newRunner(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	res, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(report(os.Stdout, w.name, res))
}

// report prints the environment, the metric table, the self-time table
// of a traced run and, last, the result JSON. It returns the exit code.
func report(f *os.File, workload string, res *result) int {
	env, _ := json.Marshal(res.env)
	fmt.Fprintf(f, "env %s\n", env)
	fmt.Fprintf(f, "workload %s: monitor SO_RCVBUF requested %d, granted %d; kernel drops are still counted\n",
		workload, res.env.RcvbufRequest, res.env.RcvbufGranted)
	for _, m := range res.metrics {
		fmt.Fprintf(f, "  %-30s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	if len(res.rows) > 0 {
		fmt.Fprintf(f, "self time per layer (sampled spans, %s):\n", res.dumpPath)
		for _, row := range res.rows {
			fmt.Fprintf(f, "  %-18s n=%-7d mean %10.2f us  self %10.2f us  %s\n", row.Name, row.Count, row.MeanUS, row.SelfUS, row.ShareOf)
		}
	}
	fmt.Fprintf(f, "diag %s\n", res.diag)
	for _, msg := range res.failures {
		fmt.Fprintf(f, "GATE FAILED: %s\n", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.failures) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(f, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}
