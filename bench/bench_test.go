package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestStreamIsAFunctionOfTheSeed: the seed is the request stream's only
// input — same seed, same stream; another seed, another stream.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(7, w.pids, w.mix, 500), stream(7, w.pids, w.mix, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if c := stream(8, w.pids, w.mix, 500); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if !reflect.DeepEqual(w.preloadStream(7), w.preloadStream(7)) {
			t.Errorf("%s: seed 7 gave two different preloads", w.name)
		}
		total := 0
		for _, s := range w.mix {
			total += s.pct
		}
		if total != 100 {
			t.Errorf("%s: mix sums to %d", w.name, total)
		}
	}
}

// TestPreloadIsOneComponent: whatever the seed, the preload's contacts join
// exactly the prePids most popular ids.
func TestPreloadIsOneComponent(t *testing.T) {
	w := findWorkload("covid-read")
	for seed := int64(1); seed <= 5; seed++ {
		comps := newContactGraph(w.preloadStream(seed)).uf.components()
		if len(comps) != 1 {
			t.Fatalf("seed %d: %d components", seed, len(comps))
		}
		for _, c := range comps {
			if len(c) != w.prePids {
				t.Fatalf("seed %d: component of %d, want %d", seed, len(c), w.prePids)
			}
		}
	}
}

// TestHighestTail: the helper quotes the highest percentile with at least
// ten samples beyond it, and prints the sample count.
func TestHighestTail(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n     int
		level float64
		value float64
	}{
		{50, 0.5, 25}, // too few even for p90: the median
		{100, 0.90, 90},
		{199, 0.90, 179},
		{200, 0.95, 190},
		{1000, 0.99, 990},
		{9999, 0.99, 9899},
		{10000, 0.999, 9990},
		{100000, 0.9999, 99990},
	} {
		got := highestTail(sample(tc.n))
		if got.level != tc.level || got.value != tc.value || got.n != tc.n {
			t.Errorf("n=%d: got p%g=%g (n=%d), want p%g=%g", tc.n, got.level*100, got.value, got.n, tc.level*100, tc.value)
		}
		if want := fmt.Sprintf("(n=%d)", tc.n); !strings.Contains(got.String(), want) {
			t.Errorf("n=%d: %q does not print the sample count", tc.n, got.String())
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestSelfTimes: a span's self time is its duration minus what its children
// cover, children clipped to the parent and overlaps counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 30},      // 20 covered
		{Name: "b", Parent: 0, StartNs: 20, EndNs: 50},      // overlaps a: 20 more
		{Name: "c", Parent: 0, StartNs: 90, EndNs: 130},     // clipped to 10
		{Name: "a.1", Parent: 1, StartNs: 12, EndNs: 17},    // child of a
		{Name: "late", Parent: 0, StartNs: 150, EndNs: 160}, // outside: covers nothing
		{Name: "other", Parent: -1, StartNs: 200, EndNs: 260},
	}
	want := []int64{50, 15, 30, 40, 5, 10, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	byName := selfByName(spans, 0, 100)
	if byName["root"] != 50 || byName["a"] != 15 || byName["other"] != 0 {
		t.Fatalf("selfByName in [0,100): %v", byName)
	}
}

// TestOraclesCatchDivergence: each oracle rejects a state or a reply that
// is wrong.
func TestOraclesCatchDivergence(t *testing.T) {
	w := findWorkload("covid-grow")
	in, sys, _, err := prepare(w, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	p := runPass(sys, in)
	if len(p.problems) > 0 || p.rep.failed() > 0 {
		t.Fatalf("clean run: problems %v, %d failed", p.problems, p.rep.failed())
	}
	graph := newContactGraph(in.reqs)
	if err := graph.checkState(sys.rt); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	// One contact the program never saw.
	more := stream(99, w.pids, []share{{"add_contact", 100}}, 1)
	more[0].Payload[0], more[0].Payload[1] = int64(w.pids+1), int64(w.pids+2)
	if err := newContactGraph(in.reqs, more).checkState(sys.rt); err == nil {
		t.Fatal("state oracle accepted a runtime that lacks a submitted contact")
	}
	if replyIs(nil, "OK") || !replyIs(nil, nil) {
		t.Fatal("reply oracle confuses a missing reply with an expected one")
	}
	// vaccinate: stock+1 succeed, the rest get no reply.
	vacc := stream(1, w.pids, []share{{"vaccinate", 100}}, vaccineStock+5)
	want := expectedReplies(vacc)
	if want[vaccineStock] != "OK" || want[vaccineStock+1] != nil {
		t.Fatalf("vaccinate replies around the stock: %v", want[vaccineStock-1:])
	}
}

// TestQuickAllWorkloads drives the whole harness at toy sizes: every
// workload, oracles on, an untraced and a traced pass, spans written.
func TestQuickAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			spansPath := filepath.Join(dir, w.name+".jsonl")
			res, err := run(&w, 1, 0.25, true, spansPath, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, name := range []string{"transducer.apply_us_per_req", "datalog.closure_rows", "budget.accounted_ratio", "trace.spans", "trace.overhead_ratio"} {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			own := map[string]bool{"durable.append_us_p50": w.durable, "shard.settle_ms_p99": w.sharded, "consensus.decide_us": w.sharded}
			for name, mine := range own {
				if got := res.Metrics[name].Value > 0; got != mine {
					t.Errorf("%s = %g on %s", name, res.Metrics[name].Value, w.name)
				}
			}
			if fi, err := os.Stat(spansPath); err != nil || fi.Size() == 0 {
				t.Errorf("span trace not written: %v", err)
			}
			if !strings.Contains(out.String(), "GOMAXPROCS=") || !strings.Contains(out.String(), "generator:") {
				t.Errorf("report lacks the run stamp or the generator-health line:\n%s", out.String())
			}
		})
	}
}

// TestEndToEndReport: an untraced invocation reports every end-to-end
// metric, non-zero and with its unit.
func TestEndToEndReport(t *testing.T) {
	var out bytes.Buffer
	res, err := run(findWorkload("covid-durable"), 2, 0.25, false, "", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
	}
	names := []string{"setup_s", "throughput_rps", "latency_p50_ms", "within_limit_ratio", "cpu_ms_per_req", "alloc_kb_per_req", "heap_live_mb"}
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(names))
	}
	for _, name := range names {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("end-to-end metric %s = %+v", name, m)
		}
	}
}
