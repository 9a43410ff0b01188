// Command bench is the end-to-end serving benchmark: it serves a seeded
// request stream through the real stack — hydrolysis.Compile(CovidSource) →
// Instantiate → serve.New → transducer tick → datalog.Incremental →
// optional durable.Store or shard.Sink + Deployment — checks the outputs
// against independent oracles and prints every metric by name and unit.
// See README.md for the workloads, the metrics and how to compare commits.
//
//	bash bench/run.sh --workload covid-grow --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one named, unit-carrying number of the report.
type metric struct {
	name  string
	value float64
	unit  string
}

// A run sets up repeatedly and reports the median set-up time: at least
// three times, then until setupBudget is spent or maxSetups are done.
const (
	setupBudget = 500 * time.Millisecond
	maxSetups   = 25
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of the request stream (its only input)")
		seconds = flag.Float64("seconds", 10, "run length: fixes the request counts of both phases")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from an extra traced pass")
		spans   = flag.String("spans", "", "with --trace 1: write the span trace to this file (JSON lines)")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of %s) and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *spans, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// result is the last line of the report.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp is the first line of every report: where and what was measured.
func stamp(w *workload, seed int64, seconds float64, paced, sat int) string {
	host, _ := os.Hostname()
	commit := "unknown" // a checkout without .git carries no revision
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("bench: workload=%s seed=%d seconds=%g paced=%d@%g/s saturate=%d window=%d reps=1 host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		w.name, seed, seconds, paced, w.pacedRate, sat, window, host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}
