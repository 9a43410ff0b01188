// Benchmarks regenerating every experiment in DESIGN.md §4. Each benchmark
// wraps the corresponding experiments.RunE* table generator; custom metrics
// expose the headline number of each table so `go test -bench` output reads
// as the paper-shape summary. Full tables: `go run ./cmd/benchtab`.
package hydro

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/experiments"
	"hydro/internal/transducer"
)

// BenchmarkE1CovidEquivalence: the compiled Fig-3 application's end-to-end
// operation throughput on one transducer.
func BenchmarkE1CovidEquivalence(b *testing.B) {
	c := MustCompile(CovidSource, Options{
		UDFs: map[string]UDF{
			"covid_predict": func(args []any) any { return 0.5 },
		},
	})
	rt, err := c.Instantiate("bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch r.Intn(3) {
		case 0:
			rt.Inject("add_person", Tuple{int64(r.Intn(64)), "us"})
		case 1:
			rt.Inject("add_contact", Tuple{int64(r.Intn(64)), int64(r.Intn(64))})
		case 2:
			rt.Inject("vaccinate", Tuple{int64(r.Intn(64))})
		}
		rt.Tick()
	}
}

// BenchmarkE2CalmScaling reports the price of a delete on the sharded COVID
// deployment: messages per committed tick of the non-monotone mix over the
// monotone one, at 3 shards.
func BenchmarkE2CalmScaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunE2(20)
		ratio = parseFloat(t.Rows[1][3]) / parseFloat(t.Rows[0][3])
	}
	b.ReportMetric(ratio, "nonmono/mono-msgs")
}

// BenchmarkE4Availability reports availability with 2 of 3 AZs failed
// under the f=2 spec (expected 100).
func BenchmarkE4Availability(b *testing.B) {
	var avail float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunE4(10)
		avail = parsePercent(t.Rows[2][3])
	}
	b.ReportMetric(avail, "%avail@2failed")
}

// BenchmarkE5ConsistencySpectrum reports the per-op virtual latency of the
// serializable tier relative to eventual (one hosted compiled runtime acks).
func BenchmarkE5ConsistencySpectrum(b *testing.B) {
	var serializable, eventual float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunE5(5)
		eventual = parseFloat(t.Row("eventual")[2])
		serializable = parseFloat(t.Row("serializable")[2])
	}
	b.ReportMetric(serializable/eventual, "serializable/eventual")
}

// BenchmarkE7MPICollectives reports tree-vs-naive bcast completion at n=64.
func BenchmarkE7MPICollectives(b *testing.B) {
	var naive, tree float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunE7([]int{64})
		for _, row := range t.Rows {
			if row[0] == "bcast" && row[2] == "naive" {
				naive = parseFloat(strings.TrimSuffix(row[4], "µs"))
			}
			if row[0] == "bcast" && row[2] == "tree" {
				tree = parseFloat(strings.TrimSuffix(row[4], "µs"))
			}
		}
	}
	b.ReportMetric(naive/tree, "naive/tree")
}

// BenchmarkE8Differential reports the semi-naive speedup over naive
// re-derivation for transitive closure.
func BenchmarkE8Differential(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunE8([]int{96})
		speedup = parseRatio(t.Rows[0][4])
	}
	b.ReportMetric(speedup, "seminaive×")
}

// BenchmarkE9AnnaScaling reports how the sharded COVID deployment scales
// out at a fixed load per shard: base rows committed per virtual second at 5
// shards relative to 1.
func BenchmarkE9AnnaScaling(b *testing.B) {
	var scale float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunE9([]int{1, 5}, 20)
		scale = parseRatio(t.Rows[1][6])
	}
	b.ReportMetric(scale, "rows/vsec-5-vs-1-shard×")
}

// BenchmarkE10CartSealing reports consensus messages avoided per checkout
// by client-side sealing.
func BenchmarkE10CartSealing(b *testing.B) {
	var msgs float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunE10(5)
		msgs = parseFloat(t.Rows[1][2]) / 5
	}
	b.ReportMetric(msgs, "consensus-msgs-avoided/checkout")
}

// BenchmarkE11Typecheck measures the analyzer over the COVID program.
func BenchmarkE11Typecheck(b *testing.B) {
	p, err := Parse(CovidSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(p)
	}
}

// BenchmarkE12ActorsAndFutures measures the compiled actor and futures
// programs on the transducer.
func BenchmarkE12ActorsAndFutures(b *testing.B) {
	t := experiments.RunE12(500)
	_ = t
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunE12(200)
	}
}

// BenchmarkCompile measures the full Hydrolysis pipeline on the COVID
// program (parse → check → analyze → facet compilation).
func BenchmarkCompile(b *testing.B) {
	opts := Options{UDFs: map[string]UDF{"covid_predict": func(args []any) any { return 0.0 }}}
	for i := 0; i < b.N; i++ {
		if _, err := Compile(CovidSource, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatalogTC measures raw semi-naive transitive closure.
func BenchmarkDatalogTC(b *testing.B) {
	rules := []datalog.Rule{
		{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}},
			Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
		},
		{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("z")}},
			Body: []datalog.Literal{
				{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
				{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("y"), datalog.V("z")}}},
			},
		},
	}
	prog, err := datalog.NewProgram(rules...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := datalog.NewDatabase()
		e := db.Ensure("edge", 2)
		for j := 0; j < 64; j++ {
			e.Insert(datalog.Tuple{int64(j), int64(j + 1)})
		}
		if _, err := prog.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}

// tickBenchRuntime builds a transducer with a transitive-closure query
// over an edge table, prebuilt with 8 disjoint 64-node chains — the
// small-delta/large-DB tick workload of E13.
func tickBenchRuntime(b *testing.B) *transducer.Runtime {
	b.Helper()
	rt := transducer.New("bench", 1)
	rt.SetDelay(func(r *rand.Rand) int { return 1 })
	rt.RegisterTable(transducer.TableSchema{Name: "edge", Arity: 2})
	prog, err := datalog.NewProgram(
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}},
			Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
		},
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("z")}},
			Body: []datalog.Literal{
				{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
				{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("y"), datalog.V("z")}}},
			},
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.RegisterQueriesIncremental(prog); err != nil {
		b.Fatal(err)
	}
	rt.RegisterHandler("add_edge", func(tx *transducer.Tx, msg transducer.Message) { tx.MergeTuple("edge", msg.Payload) })
	var sink int
	rt.RegisterHandler("probe", func(tx *transducer.Tx, msg transducer.Message) {
		sink += len(tx.QueryWhere("path", []int{0}, []any{msg.Payload[0]}))
	})
	for c := 0; c < 8; c++ {
		for i := int64(0); i < 64; i++ {
			rt.Inject("add_edge", datalog.Tuple{int64(c*1000) + i, int64(c*1000) + i + 1})
		}
	}
	rt.Tick()
	return rt
}

// BenchmarkTickSmallDeltaIncremental measures the amortized cost of one
// tick that merges one fresh edge and reads the path query: O(delta) under
// cross-tick maintenance (internal/datalog's BenchmarkFullEvalSmallDeltaTC /
// BenchmarkIncrementalSmallDeltaTC pair holds the ratio to re-evaluation).
func BenchmarkTickSmallDeltaIncremental(b *testing.B) {
	rt := tickBenchRuntime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int64(1_000_000 + 2*i)
		rt.Inject("add_edge", datalog.Tuple{u, u + 1})
		rt.Inject("probe", datalog.Tuple{u})
		rt.Tick()
	}
}

// BenchmarkE13IncrementalTicks reports the amortized full/incremental tick
// cost ratio from the E13 experiment table.
func BenchmarkE13IncrementalTicks(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunE13(6, 200)
		speedup = parseRatio(t.Rows[1][4])
	}
	b.ReportMetric(speedup, "incremental×")
}

func parseFloat(s string) float64 {
	f, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f
}

func parseRatio(s string) float64 {
	return parseFloat(strings.TrimSuffix(s, "×"))
}

func parsePercent(s string) float64 {
	return parseFloat(strings.TrimSuffix(s, "%"))
}
