// Benchmarks that time the system directly: the compiled COVID program's
// ticks, the analyzer, the compiler pipeline, semi-naive transitive closure
// and a small-delta incremental tick. Experiment tables (DESIGN.md §4) hold
// only numbers the code determines and are pinned by
// internal/experiments' TestQuickTablesGolden; print them with
// `go run ./cmd/benchtab`.
package hydro

import (
	"math/rand"
	"testing"

	"hydro/internal/datalog"
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
// small-delta/large-DB tick workload.
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
