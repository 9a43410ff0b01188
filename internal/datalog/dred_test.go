package datalog

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tcRules() []Rule {
	return []Rule{
		{
			Head: Atom{Pred: "path", Args: []Term{V("x"), V("y")}},
			Body: []Literal{{Atom: Atom{Pred: "edge", Args: []Term{V("x"), V("y")}}}},
		},
		{
			Head: Atom{Pred: "path", Args: []Term{V("x"), V("z")}},
			Body: []Literal{
				{Atom: Atom{Pred: "path", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "edge", Args: []Term{V("y"), V("z")}}},
			},
		},
	}
}

// applyBase mutates both the reference EDB and the incremental database and
// feeds the realized changes through Apply.
func applyBase(t *testing.T, inc *Incremental, edb *Database, ins, del []Tuple) {
	t.Helper()
	d := NewDelta()
	for _, tup := range del {
		edb.Get("edge").Delete(tup)
		inc.DB().Get("edge").Delete(tup)
		d.Delete("edge", tup)
	}
	for _, tup := range ins {
		edb.Get("edge").Insert(tup)
		inc.DB().Get("edge").Insert(tup)
		d.Insert("edge", tup)
	}
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	ref := edb.Clone()
	p, err := NewProgram(tcRules()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIncremental(p, ref); err != nil {
		t.Fatal(err)
	}
	if err := diffDatabases("dred vs eval", inc.DB(), ref); err != nil {
		t.Fatal(err)
	}
}

// TestDRedCycleDeletion is the classic DRed trap: in a cycle every path
// tuple transitively supports itself, so a counting-style decrement would
// leave the closure intact after the cycle is cut. Over-delete must take
// the whole cyclic closure down and re-derivation must reinstate exactly
// what the remaining chain still supports.
func TestDRedCycleDeletion(t *testing.T) {
	p, err := NewProgram(tcRules()...)
	if err != nil {
		t.Fatal(err)
	}
	edb := NewDatabase()
	e := edb.Ensure("edge", 2)
	for i := int64(0); i < 5; i++ {
		e.Insert(Tuple{i, (i + 1) % 5}) // 0→1→2→3→4→0
	}
	inc, err := NewIncremental(p, edb.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if got := inc.DB().Get("path").Len(); got != 25 {
		t.Fatalf("cyclic closure = %d tuples, want 25", got)
	}
	// Cut the cycle: the closure collapses to the 0→1→2→3→4 chain.
	applyBase(t, inc, edb, nil, []Tuple{{int64(4), int64(0)}})
	if got := inc.DB().Get("path").Len(); got != 10 {
		t.Fatalf("chain closure = %d tuples, want 10", got)
	}
	// Close it again, then delete a middle edge: two disjoint chains.
	applyBase(t, inc, edb, []Tuple{{int64(4), int64(0)}}, nil)
	applyBase(t, inc, edb, nil, []Tuple{{int64(2), int64(3)}})
}

// TestDRedRederivesFromAlternativeSupport: a tuple whose derivation through
// the deleted edge dies must survive when a parallel edge still supports it.
func TestDRedRederivesFromAlternativeSupport(t *testing.T) {
	p, err := NewProgram(tcRules()...)
	if err != nil {
		t.Fatal(err)
	}
	edb := NewDatabase()
	e := edb.Ensure("edge", 2)
	// Diamond: a→b→d and a→c→d, then d→e. Deleting b→d must keep path(a,d)
	// and path(a,e) alive through c.
	for _, tup := range []Tuple{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}, {"d", "e"}} {
		e.Insert(tup)
	}
	inc, err := NewIncremental(p, edb.Clone())
	if err != nil {
		t.Fatal(err)
	}
	applyBase(t, inc, edb, nil, []Tuple{{"b", "d"}})
	for _, want := range []Tuple{{"a", "d"}, {"a", "e"}, {"c", "e"}} {
		if !inc.DB().Get("path").Contains(want) {
			t.Fatalf("path%v lost despite alternative support; path = %v", want, inc.DB().Get("path").Tuples())
		}
	}
	if inc.DB().Get("path").Contains(Tuple{"b", "d"}) {
		t.Fatalf("path(b,d) survived with no support")
	}
}

// TestDRedDeltaExactness: the delta a DRed component emits must be exact —
// a downstream non-recursive component consuming it stays correct even
// when the same batch deletes and re-inserts support (net-zero churn).
func TestDRedDeltaExactness(t *testing.T) {
	rules := append(tcRules(), Rule{
		Head: Atom{Pred: "reach2", Args: []Term{V("x"), V("v")}},
		Body: []Literal{
			{Atom: Atom{Pred: "path", Args: []Term{V("x"), V("y")}}},
			{Atom: Atom{Pred: "attr", Args: []Term{V("y"), V("v")}}},
		},
	})
	p, err := NewProgram(rules...)
	if err != nil {
		t.Fatal(err)
	}
	edb := NewDatabase()
	e := edb.Ensure("edge", 2)
	for i := int64(0); i < 6; i++ {
		e.Insert(Tuple{i, i + 1})
	}
	a := edb.Ensure("attr", 2)
	a.Insert(Tuple{int64(3), int64(30)})
	a.Insert(Tuple{int64(6), int64(60)})
	inc, err := NewIncremental(p, edb.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// One batch: delete edge 2→3 and add a bypass 2→3 via a fresh node
	// (delete 2→3, add 2→9 and 9→3): reach2 results must track exactly.
	d := NewDelta()
	for _, tup := range []Tuple{{int64(2), int64(3)}} {
		edb.Get("edge").Delete(tup)
		inc.DB().Get("edge").Delete(tup)
		d.Delete("edge", tup)
	}
	for _, tup := range []Tuple{{int64(2), int64(9)}, {int64(9), int64(3)}} {
		edb.Get("edge").Insert(tup)
		inc.DB().Get("edge").Insert(tup)
		d.Insert("edge", tup)
	}
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	ref := edb.Clone()
	if _, err := NewIncremental(p, ref); err != nil {
		t.Fatal(err)
	}
	if err := diffDatabases("dred vs eval", inc.DB(), ref); err != nil {
		t.Fatal(err)
	}
}

// TestDRedDependencyOrderedRederivation: phase 2 walks candidates in
// discovery order, which is support-dependency order — a candidate whose
// only surviving support runs through another candidate reinstated earlier
// in the queue must be reinstated in the same ordered pass (no restart, no
// reliance on extra fixpoint rounds for the chain of direct supports).
func TestDRedDependencyOrderedRederivation(t *testing.T) {
	p, err := NewProgram(tcRules()...)
	if err != nil {
		t.Fatal(err)
	}
	edb := NewDatabase()
	e := edb.Ensure("edge", 2)
	// a→b→c→d plus the shortcut a→c. Deleting a→b over-deletes, in
	// discovery order, path(a,b), then path(a,c), then path(a,d).
	// path(a,c) re-derives directly from edge(a,c); path(a,d) only from
	// path(a,c)+edge(c,d) — i.e. through the candidate reinstated just
	// before it in the queue.
	for _, tup := range []Tuple{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}} {
		e.Insert(tup)
	}
	inc, err := NewIncremental(p, edb.Clone())
	if err != nil {
		t.Fatal(err)
	}
	applyBase(t, inc, edb, nil, []Tuple{{"a", "b"}})
	for _, want := range []Tuple{{"a", "c"}, {"a", "d"}} {
		if !inc.DB().Get("path").Contains(want) {
			t.Fatalf("path%v lost despite support through an earlier reinstatement; path = %v", want, inc.DB().Get("path").Tuples())
		}
	}
	for _, gone := range []Tuple{{"a", "b"}} {
		if inc.DB().Get("path").Contains(gone) {
			t.Fatalf("path%v survived with no support", gone)
		}
	}
}

// TestDRedMatchesRecomputeFallback runs randomized delete-heavy tick
// sequences through both the DRed path and the forced recompute-and-diff
// fallback and requires identical fixpoints at every tick — the same
// property the two paths' shared acceptance benchmark depends on.
func TestDRedMatchesRecomputeFallback(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := randRules(r)
		pd, err := NewProgram(rules...)
		if err != nil {
			return false
		}
		pr, err := NewProgram(rules...)
		if err != nil {
			return false
		}
		edb := randEDB(r)
		dred, err := NewIncremental(pd, edb.Clone())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		reco, err := NewIncremental(pr, edb.Clone())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		reco.forceRecompute = true
		for tick := 0; tick < 5; tick++ {
			d1, d2 := NewDelta(), NewDelta()
			// Delete-heavy: two deletes per insert on average.
			for op := 0; op < 2+r.Intn(4); op++ {
				pred := edbPreds[r.Intn(len(edbPreds))]
				if r.Intn(3) == 0 {
					tup := randEDBTuple(r, pred)
					if edb.Get(pred).Insert(tup) {
						dred.DB().Get(pred).Insert(tup)
						reco.DB().Get(pred).Insert(tup)
						d1.Insert(pred, tup)
						d2.Insert(pred, tup)
					}
				} else if existing := edb.Get(pred).Tuples(); len(existing) > 0 {
					tup := existing[r.Intn(len(existing))]
					edb.Get(pred).Delete(tup)
					dred.DB().Get(pred).Delete(tup)
					reco.DB().Get(pred).Delete(tup)
					d1.Delete(pred, tup)
					d2.Delete(pred, tup)
				}
			}
			n1, err := dred.Apply(d1)
			if err != nil {
				t.Logf("seed %d: dred: %v", seed, err)
				return false
			}
			n2, err := reco.Apply(d2)
			if err != nil {
				t.Logf("seed %d: recompute: %v", seed, err)
				return false
			}
			if n1 != n2 {
				t.Logf("seed %d tick %d: realized changes diverge: dred=%d recompute=%d", seed, tick, n1, n2)
				return false
			}
			if err := diffDatabases("dred vs recompute", dred.DB(), reco.DB()); err != nil {
				t.Logf("seed %d tick %d: %v", seed, tick, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// dredDeleteOne builds an incremental fixpoint of rules over base, deletes
// one row of pred, and checks the result against a from-scratch fixpoint
// of what is left.
func dredDeleteOne(t *testing.T, rules []Rule, base map[string][]Tuple, pred string, gone Tuple) *Incremental {
	t.Helper()
	edb := NewDatabase()
	for name, rows := range base {
		rel := edb.Ensure(name, len(rows[0]))
		for _, r := range rows {
			rel.Insert(r)
		}
	}
	inc, err := NewIncremental(mustProgram(t, rules...), edb.Clone())
	if err != nil {
		t.Fatal(err)
	}
	edb.Get(pred).Delete(gone)
	inc.DB().Get(pred).Delete(gone)
	d := NewDelta()
	d.Delete(pred, gone)
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	if _, err := NewIncremental(mustProgram(t, rules...), edb); err != nil {
		t.Fatal(err)
	}
	if err := diffDatabases("dred vs eval", inc.DB(), edb); err != nil {
		t.Fatal(err)
	}
	return inc
}

// TestDRedSupportMatchesHeadConstants: an over-deleted p(a, 1) may survive
// only through a rule whose head constant is 1. p(x, 2) :- r(x) binds x
// to a and finds r(a), but it derives p(a, 2), not p(a, 1).
func TestDRedSupportMatchesHeadConstants(t *testing.T) {
	rules := []Rule{
		{Head: Atom{Pred: "p", Args: []Term{V("x"), C(int64(1))}}, Body: []Literal{{Atom: Atom{Pred: "q", Args: []Term{V("x")}}}}},
		{Head: Atom{Pred: "p", Args: []Term{V("x"), C(int64(2))}}, Body: []Literal{{Atom: Atom{Pred: "r", Args: []Term{V("x")}}}}},
	}
	inc := dredDeleteOne(t, rules, map[string][]Tuple{"q": {{"a"}}, "r": {{"a"}}}, "q", Tuple{"a"})
	if p := inc.DB().Get("p"); p.Contains(Tuple{"a", int64(1)}) || !p.Contains(Tuple{"a", int64(2)}) {
		t.Fatalf("p = %v, want [(a, 2)]", p.Tuples())
	}
}

// TestDRedSupportMatchesRepeatedHeadVariables: an over-deleted p(a, b) may
// survive only through a rule whose head can take it. p(x, x) :- q(x)
// binds x to a and finds q(a), but it derives p(a, a), not p(a, b).
func TestDRedSupportMatchesRepeatedHeadVariables(t *testing.T) {
	rules := []Rule{
		{Head: Atom{Pred: "p", Args: []Term{V("x"), V("x")}}, Body: []Literal{{Atom: Atom{Pred: "q", Args: []Term{V("x")}}}}},
		{Head: Atom{Pred: "p", Args: []Term{V("x"), V("y")}}, Body: []Literal{{Atom: Atom{Pred: "r", Args: []Term{V("x"), V("y")}}}}},
	}
	inc := dredDeleteOne(t, rules, map[string][]Tuple{"q": {{"a"}}, "r": {{"a", "b"}}}, "r", Tuple{"a", "b"})
	if p := inc.DB().Get("p"); p.Contains(Tuple{"a", "b"}) || !p.Contains(Tuple{"a", "a"}) {
		t.Fatalf("p = %v, want [(a, a)]", p.Tuples())
	}
}
