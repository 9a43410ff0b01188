package datalog

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the storage and plan layers. The end-to-end numbers
// live in the repository root (BenchmarkDatalogTC et al.); these isolate
// the pieces this package optimizes: flat-slab insert/probe, incremental
// index maintenance under deletes, compiled plans vs interpretive walks.

func tcProgram(tb testing.TB) *Program {
	tb.Helper()
	p, err := NewProgram(
		Rule{
			Head: Atom{Pred: "path", Args: []Term{V("x"), V("y")}},
			Body: []Literal{{Atom: Atom{Pred: "edge", Args: []Term{V("x"), V("y")}}}},
		},
		Rule{
			Head: Atom{Pred: "path", Args: []Term{V("x"), V("z")}},
			Body: []Literal{
				{Atom: Atom{Pred: "path", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "edge", Args: []Term{V("y"), V("z")}}},
			},
		},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func chainDB(n int) *Database {
	db := NewDatabase()
	e := db.Ensure("edge", 2)
	for i := 0; i < n; i++ {
		e.Insert(Tuple{int64(i), int64(i + 1)})
	}
	return db
}

func BenchmarkRelationInsert(b *testing.B) {
	b.ReportAllocs()
	rel := NewRelation("t", 3)
	for i := 0; i < b.N; i++ {
		rel.Insert(Tuple{int64(i), "payload", int64(i % 64)})
	}
}

func BenchmarkRelationContains(b *testing.B) {
	rel := NewRelation("t", 2)
	for i := 0; i < 1024; i++ {
		rel.Insert(Tuple{int64(i), "v"})
	}
	probe := Tuple{int64(512), "v"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rel.Contains(probe) {
			b.Fatal("missing")
		}
	}
}

func BenchmarkRelationLookupIndexed(b *testing.B) {
	rel := NewRelation("t", 2)
	for i := 0; i < 4096; i++ {
		rel.Insert(Tuple{int64(i % 64), int64(i)})
	}
	pos := []int{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := rel.Lookup(pos, []any{int64(i % 64)}); len(got) != 64 {
			b.Fatalf("lookup = %d rows", len(got))
		}
	}
}

// BenchmarkRelationUpsert is the transducer's applyInsert pattern: indexed
// lookup, delete, re-insert. Under the old storage every delete rebuilt all
// indexes from scratch.
func BenchmarkRelationUpsert(b *testing.B) {
	rel := NewRelation("people", 3)
	for i := 0; i < 512; i++ {
		rel.Insert(Tuple{int64(i), "us", false})
	}
	pos := []int{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := int64(i % 512)
		rows := rel.Lookup(pos, []any{key})
		for _, row := range rows {
			rel.Delete(row)
			updated := Tuple{row[0], row[1], i%2 == 0}
			rel.Insert(updated)
		}
	}
}

func BenchmarkEvalTCChain(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := tcProgram(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := chainDB(n)
				if _, err := NewIncremental(p, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvalNaiveTCChain(b *testing.B) {
	p := tcProgram(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := chainDB(64)
		if _, err := p.EvalNaive(db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateGrouping(b *testing.B) {
	p, err := NewProgram(Rule{
		Head:   Atom{Pred: "fanout", Args: []Term{V("x"), V("y")}},
		Body:   []Literal{{Atom: Atom{Pred: "edge", Args: []Term{V("x"), V("y")}}}},
		Agg:    AggCount,
		AggVar: "y",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := NewDatabase()
		e := db.Ensure("edge", 2)
		for j := 0; j < 1024; j++ {
			e.Insert(Tuple{int64(j % 32), int64(j)})
		}
		if _, err := NewIncremental(p, db); err != nil {
			b.Fatal(err)
		}
	}
}

// multiChainDB builds chains disjoint 64-node chains: a large database
// whose transitive closure has chains*64*65/2 path tuples.
func multiChainDB(chains int) *Database {
	db := NewDatabase()
	e := db.Ensure("edge", 2)
	for c := 0; c < chains; c++ {
		base := int64(c * 1000)
		for i := int64(0); i < 64; i++ {
			e.Insert(Tuple{base + i, base + i + 1})
		}
	}
	return db
}

// BenchmarkFullEvalSmallDeltaTC is the per-tick cost of the pre-PR
// strategy on a small-delta/large-DB workload: every tick clones the
// database (the transducer snapshot) and re-derives the full fixpoint,
// regardless of how little changed.
func BenchmarkFullEvalSmallDeltaTC(b *testing.B) {
	p := tcProgram(b)
	db := multiChainDB(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := db.Clone()
		if _, err := NewIncremental(p, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalSmallDeltaTC is the same workload under cross-tick
// maintenance: each tick one new edge arrives and only its consequences
// are derived. The ratio against BenchmarkFullEvalSmallDeltaTC is the
// headline O(delta)-vs-O(database) number.
func BenchmarkIncrementalSmallDeltaTC(b *testing.B) {
	p := tcProgram(b)
	inc, err := NewIncremental(p, multiChainDB(8))
	if err != nil {
		b.Fatal(err)
	}
	edge := inc.DB().Get("edge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := int64(1_000_000+2*i), int64(1_000_001+2*i)
		tup := Tuple{u, v}
		edge.Insert(tup)
		d := NewDelta()
		d.Insert("edge", tup)
		if _, err := inc.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalCountingJoin is a non-recursive component's tick:
// the filtered join view(x,z) :- r(x,y), s(y,z), x != z over 20 k rows a
// side (2 k join keys, so every row meets ten or more partners), maintained
// by semi-naive insert rounds and DRed while each tick inserts four rows
// into either side and retracts one. Both sides grow slowly, so compare
// runs at a fixed -benchtime Nx. No count is kept per view row; the name
// only keeps earlier runs comparable.
func BenchmarkIncrementalCountingJoin(b *testing.B) {
	p, err := NewProgram(Rule{
		Head: Atom{Pred: "view", Args: []Term{V("x"), V("z")}},
		Body: []Literal{
			{Atom: Atom{Pred: "r", Args: []Term{V("x"), V("y")}}},
			{Atom: Atom{Pred: "s", Args: []Term{V("y"), V("z")}}},
		},
		Filters: []Filter{{Op: OpNe, L: V("x"), R: V("z")}},
	})
	if err != nil {
		b.Fatal(err)
	}
	const rows, keys = 20000, 2000
	db := NewDatabase()
	r, s := db.Ensure("r", 2), db.Ensure("s", 2)
	for i := int64(0); i < rows; i++ {
		r.Insert(Tuple{i, i % keys})
		s.Insert(Tuple{i % keys, i})
	}
	inc, err := NewIncremental(p, db)
	if err != nil {
		b.Fatal(err)
	}
	retract := Tuple{int64(0), int64(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDelta()
		r.Delete(retract)
		d.Delete("r", retract)
		for k := int64(0); k < 4; k++ {
			n := rows + int64(i)*4 + k
			rt, st := Tuple{n, n % keys}, Tuple{n % keys, n}
			r.Insert(rt)
			d.Insert("r", rt)
			s.Insert(st)
			d.Insert("s", st)
			if k == 0 {
				retract = rt // next tick's retraction
			}
		}
		if _, err := inc.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}

// tickDeleteHeavy is the delete-heavy tick workload on a large graph: each
// tick retracts one mid-chain edge of the prebuilt closure and the next
// re-inserts it — steady state, all cost in deletion maintenance. force
// selects the PR 2 recompute-and-diff fallback; the DRed/Recompute pair is
// the acceptance ratio for delete-and-rederive (≥10×).
func tickDeleteHeavy(b *testing.B, force bool) {
	p := tcProgram(b)
	inc, err := NewIncremental(p, multiChainDB(16))
	if err != nil {
		b.Fatal(err)
	}
	inc.forceRecompute = force
	edge := inc.DB().Get("edge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, k := int64((i*7)%16), int64(11+(i*13)%40)
		tup := Tuple{chain*1000 + k, chain*1000 + k + 1}
		edge.Delete(tup)
		d := NewDelta()
		d.Delete("edge", tup)
		if _, err := inc.Apply(d); err != nil {
			b.Fatal(err)
		}
		edge.Insert(tup)
		d = NewDelta()
		d.Insert("edge", tup)
		if _, err := inc.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTickDeleteHeavyDRed(b *testing.B)      { tickDeleteHeavy(b, false) }
func BenchmarkTickDeleteHeavyRecompute(b *testing.B) { tickDeleteHeavy(b, true) }

// tickDeleteCascade is the large-cascade DRed workload: one chain of n
// nodes, whose closure holds n(n+1)/2 path tuples. Each tick retracts the
// mid-chain edge, over-deleting the ~n²/4 paths that cross it (none
// re-derivable), and the next tick restores it, re-deriving them — one
// deletion cascade and one insertion cascade of D ≈ n²/4 tuples per
// iteration. Cost should be near-linear in D. The pre-PR path was
// superlinear through two terms this sizing makes visible (Large is 36×
// Small's cascade but was far more than 36× its time): join probes
// scanned the augmentation overlay linearly, and — dominant on long
// chains — every phase-2 support query enumerated the churning head
// relation (O(n) live path(x,·) tuples per candidate, ~n³/16 total)
// instead of probing the stable input literal in O(1).
func tickDeleteCascade(b *testing.B, n int) {
	p := tcProgram(b)
	inc, err := NewIncremental(p, chainDB(n))
	if err != nil {
		b.Fatal(err)
	}
	edge := inc.DB().Get("edge")
	mid := Tuple{int64(n / 2), int64(n/2 + 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edge.Delete(mid)
		d := NewDelta()
		d.Delete("edge", mid)
		if _, err := inc.Apply(d); err != nil {
			b.Fatal(err)
		}
		edge.Insert(mid)
		d = NewDelta()
		d.Insert("edge", mid)
		if _, err := inc.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTickDeleteCascadeSmall(b *testing.B) { tickDeleteCascade(b, 64) }
func BenchmarkTickDeleteCascadeLarge(b *testing.B) { tickDeleteCascade(b, 384) }

// TestDeleteCascadeMatchesEval checks what tickDeleteCascade only times:
// after the mid-chain retract, and again after the restore, the maintained
// database equals a from-scratch seed (NewIncremental) and the realized change count is the
// closure difference — the (n/2+1)·(n-n/2) paths that cross the edge.
func TestDeleteCascadeMatchesEval(t *testing.T) {
	const n = 64
	p := tcProgram(t)
	mid := Tuple{int64(n / 2), int64(n/2 + 1)}
	full, cut := chainDB(n), chainDB(n)
	cut.Get("edge").Delete(mid)
	for _, db := range []*Database{full, cut} {
		if _, err := NewIncremental(p, db); err != nil {
			t.Fatal(err)
		}
	}
	crossing := full.Get("path").Len() - cut.Get("path").Len()
	if want := (n/2 + 1) * (n - n/2); crossing != want {
		t.Fatalf("closure difference = %d, want %d", crossing, want)
	}
	inc, err := NewIncremental(p, chainDB(n))
	if err != nil {
		t.Fatal(err)
	}
	edge := inc.DB().Get("edge")
	for _, step := range []struct {
		label string
		want  *Database
	}{{"retract", cut}, {"restore", full}} {
		d := NewDelta()
		if step.want == cut {
			edge.Delete(mid)
			d.Delete("edge", mid)
		} else {
			edge.Insert(mid)
			d.Insert("edge", mid)
		}
		got, err := inc.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != crossing {
			t.Fatalf("%s realized %d changes, want %d", step.label, got, crossing)
		}
		if err := diffDatabases(step.label+": incremental vs eval", inc.DB(), step.want); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkDeriveAdHoc vs BenchmarkDerivePrepared: the cost of per-call
// rule compilation against the pre-compiled path handlers use.
func BenchmarkDeriveAdHoc(b *testing.B) {
	db := chainDB(64)
	p := tcProgram(b)
	if _, err := NewIncremental(p, db); err != nil {
		b.Fatal(err)
	}
	rule := Rule{
		Head: Atom{Pred: "__send", Args: []Term{V("y")}},
		Body: []Literal{{Atom: Atom{Pred: "path", Args: []Term{C(int64(0)), V("y")}}}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Derive(db, rule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerivePrepared derives path(0, y) off a chain of n edges: n rows
// a call. rows=256 is covid-read's shape, whose handlers derive about 258
// sends a request.
func BenchmarkDerivePrepared(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			db := chainDB(n)
			p := tcProgram(b)
			if _, err := NewIncremental(p, db); err != nil {
				b.Fatal(err)
			}
			pr, err := PrepareRule(Rule{
				Head: Atom{Pred: "__send", Args: []Term{V("y")}},
				Body: []Literal{{Atom: Atom{Pred: "path", Args: []Term{V("pid"), V("y")}}}},
			}, "pid")
			if err != nil {
				b.Fatal(err)
			}
			bound := map[string]any{"pid": int64(0)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pr.Derive(db, bound); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClosureGrow replays the stream the flat tuple storage was sized
// on — covid-grow's contacts: 1000 ids, 9 200 symmetric contacts drawn by
// zipf with every id named once along the way, 7 contacts a tick — through
// Incremental.Apply until the all-pairs closure holds 1 000 000 rows. A
// layer number (run with -benchtime 1x -benchmem), not a claim.
func BenchmarkClosureGrow(b *testing.B) {
	const ids, contacts, perTick = 1000, 9200, 7
	p, err := NewProgram(
		Rule{
			Head: Atom{Pred: "transitive", Args: []Term{V("x"), V("y")}},
			Body: []Literal{{Atom: Atom{Pred: "contacts", Args: []Term{V("x"), V("y")}}}},
		},
		Rule{
			Head: Atom{Pred: "transitive", Args: []Term{V("x"), V("z")}},
			Body: []Literal{
				{Atom: Atom{Pred: "transitive", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "contacts", Args: []Term{V("y"), V("z")}}},
			},
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := NewDatabase()
		rel := db.Ensure("contacts", 2)
		inc, err := NewIncremental(p, db)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.2, 1.0, ids-1)
		for c := 0; c < contacts; {
			d := NewDelta()
			for k := 0; k < perTick && c < contacts; k, c = k+1, c+1 {
				a, bb := int64(zipf.Uint64()), int64(zipf.Uint64())
				if c%(contacts/ids) == 0 && c/(contacts/ids) < ids {
					a = int64(c / (contacts / ids))
				}
				for _, t := range []Tuple{{a, bb}, {bb, a}} {
					if rel.Insert(t) {
						d.Insert("contacts", t)
					}
				}
			}
			if _, err := inc.Apply(d); err != nil {
				b.Fatal(err)
			}
		}
		if got := db.Get("transitive").Len(); got != ids*ids {
			b.Fatalf("closure has %d rows, want %d", got, ids*ids)
		}
	}
}
