package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustProgram(t testing.TB, rules ...Rule) *Program {
	t.Helper()
	p, err := NewProgram(rules...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func edgeDB(edges ...[2]string) *Database {
	db := NewDatabase()
	e := db.Ensure("edge", 2)
	for _, pair := range edges {
		e.Insert(Tuple{pair[0], pair[1]})
	}
	return db
}

// tc returns the standard transitive-closure program — the paper's `trace`
// query (Fig 3, lines 16-18).
func tc() []Rule {
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

func TestTransitiveClosure(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	p := mustProgram(t, tc()...)
	if _, err := p.Eval(db); err != nil {
		t.Fatal(err)
	}
	path := db.Get("path")
	if path.Len() != 6 {
		t.Fatalf("path has %d tuples, want 6: %v", path.Len(), path.Tuples())
	}
	if !path.Contains(Tuple{"a", "d"}) {
		t.Fatal("missing transitive fact a->d")
	}
	if path.Contains(Tuple{"d", "a"}) {
		t.Fatal("derived a non-fact")
	}
}

func TestCyclicClosureTerminates(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "a"})
	p := mustProgram(t, tc()...)
	if _, err := p.Eval(db); err != nil {
		t.Fatal(err)
	}
	if db.Get("path").Len() != 4 {
		t.Fatalf("cyclic closure = %v", db.Get("path").Tuples())
	}
}

func TestSemiNaiveMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nodes := []string{"a", "b", "c", "d", "e"}
		var edges [][2]string
		for i := 0; i < 8; i++ {
			edges = append(edges, [2]string{nodes[r.Intn(5)], nodes[r.Intn(5)]})
		}
		db1, db2 := edgeDB(edges...), edgeDB(edges...)
		p := mustProgram(t, tc()...)
		if _, err := p.Eval(db1); err != nil {
			return false
		}
		if _, err := p.EvalNaive(db2); err != nil {
			return false
		}
		t1, t2 := db1.Get("path").Tuples(), db2.Get("path").Tuples()
		if len(t1) != len(t2) {
			return false
		}
		for i := range t1 {
			if !t1[i].Equal(t2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedNegation(t *testing.T) {
	// unreached(x) :- node(x), !path("a", x).
	rules := append(tc(),
		Rule{
			Head: Atom{Pred: "unreached", Args: []Term{V("x")}},
			Body: []Literal{
				{Atom: Atom{Pred: "node", Args: []Term{V("x")}}},
				{Atom: Atom{Pred: "path", Args: []Term{C("a"), V("x")}}, Negated: true},
			},
		})
	db := edgeDB([2]string{"a", "b"}, [2]string{"c", "d"})
	n := db.Ensure("node", 1)
	for _, x := range []string{"a", "b", "c", "d"} {
		n.Insert(Tuple{x})
	}
	p := mustProgram(t, rules...)
	if _, err := p.Eval(db); err != nil {
		t.Fatal(err)
	}
	un := db.Get("unreached")
	for _, want := range []string{"a", "c", "d"} {
		if !un.Contains(Tuple{want}) {
			t.Fatalf("unreached should contain %s: %v", want, un.Tuples())
		}
	}
	if un.Contains(Tuple{"b"}) {
		t.Fatal("b is reachable from a, must not be derived")
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	// p :- !q. q :- !p.  — classic non-stratifiable program.
	rules := []Rule{
		{
			Head: Atom{Pred: "p", Args: []Term{V("x")}},
			Body: []Literal{
				{Atom: Atom{Pred: "base", Args: []Term{V("x")}}},
				{Atom: Atom{Pred: "q", Args: []Term{V("x")}}, Negated: true},
			},
		},
		{
			Head: Atom{Pred: "q", Args: []Term{V("x")}},
			Body: []Literal{
				{Atom: Atom{Pred: "base", Args: []Term{V("x")}}},
				{Atom: Atom{Pred: "p", Args: []Term{V("x")}}, Negated: true},
			},
		},
	}
	if _, err := NewProgram(rules...); err == nil {
		t.Fatal("unstratifiable program accepted")
	}
}

// dbString prints every relation of db, name order, with its arity and its
// tuples in Tuples order.
func dbString(db *Database) string {
	var b strings.Builder
	for _, name := range db.Names() {
		fmt.Fprintf(&b, "%s/%d %v\n", name, db.Get(name).Arity, db.Get(name).Tuples())
	}
	return b.String()
}

// TestPredicateAtTwoAritiesRejected pins that a predicate has one arity.
// Rules that use one at two are refused at NewProgram; a database relation
// stored at another arity than the rules read it at is refused by every
// evaluator before it changes anything.
func TestPredicateAtTwoAritiesRejected(t *testing.T) {
	atom := func(pred string, vars ...string) Atom {
		a := Atom{Pred: pred}
		for _, v := range vars {
			a.Args = append(a.Args, V(v))
		}
		return a
	}
	rule := func(head Atom, body ...Atom) Rule {
		r := Rule{Head: head}
		for _, b := range body {
			r.Body = append(r.Body, Literal{Atom: b})
		}
		return r
	}
	// stored holds e/2 = {(1,2), (3,4)}.
	stored := func() *Database {
		db := NewDatabase()
		e := db.Ensure("e", 2)
		e.Insert(Tuple{int64(1), int64(2)})
		e.Insert(Tuple{int64(3), int64(4)})
		return db
	}
	cases := []struct {
		name  string
		rules []Rule
	}{
		{"head at two arities", []Rule{
			rule(atom("p", "x"), atom("e", "x", "y")),
			rule(atom("p", "x", "y"), atom("e", "x", "y")),
		}},
		{"body literal below the stored arity", []Rule{
			rule(atom("p", "x"), atom("e", "x")),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewProgram(c.rules...)
			if err != nil {
				if !strings.Contains(err.Error(), "arity") {
					t.Fatalf("NewProgram: %v, want an arity error", err)
				}
				return
			}
			// The program reads e/1: a state captured over e/1 is what
			// RestoreIncremental is handed.
			db1 := NewDatabase()
			db1.Ensure("e", 1).Insert(Tuple{int64(1)})
			inc, err := NewIncremental(p, db1)
			if err != nil {
				t.Fatal(err)
			}
			st := inc.State()
			evaluators := map[string]func(*Database) error{
				"Eval":               func(db *Database) error { _, err := p.Eval(db); return err },
				"EvalNaive":          func(db *Database) error { _, err := p.EvalNaive(db); return err },
				"NewIncremental":     func(db *Database) error { _, err := NewIncremental(p, db); return err },
				"RestoreIncremental": func(db *Database) error { _, err := RestoreIncremental(p, db, st); return err },
			}
			for name, run := range evaluators {
				db := stored()
				before := dbString(db)
				if err := run(db); err == nil || !strings.Contains(err.Error(), "arity") {
					t.Errorf("%s: %v, want an arity error", name, err)
				}
				if after := dbString(db); after != before {
					t.Errorf("%s changed the database:\n%s\nwant\n%s", name, after, before)
				}
			}
		})
	}
}

func TestValidateRangeRestriction(t *testing.T) {
	bad := Rule{
		Head: Atom{Pred: "h", Args: []Term{V("x"), V("y")}},
		Body: []Literal{{Atom: Atom{Pred: "b", Args: []Term{V("x")}}}},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("unbound head variable accepted")
	}
	badNeg := Rule{
		Head: Atom{Pred: "h", Args: []Term{V("x")}},
		Body: []Literal{
			{Atom: Atom{Pred: "b", Args: []Term{V("x")}}},
			{Atom: Atom{Pred: "c", Args: []Term{V("z")}}, Negated: true},
		},
	}
	if err := badNeg.Validate(); err == nil {
		t.Fatal("negation-only variable accepted")
	}
}

func TestFilters(t *testing.T) {
	db := NewDatabase()
	n := db.Ensure("num", 1)
	for i := 0; i < 10; i++ {
		n.Insert(Tuple{int64(i)})
	}
	p := mustProgram(t, Rule{
		Head:    Atom{Pred: "small", Args: []Term{V("x")}},
		Body:    []Literal{{Atom: Atom{Pred: "num", Args: []Term{V("x")}}}},
		Filters: []Filter{{Op: OpLt, L: V("x"), R: C(int64(3))}},
	})
	if _, err := p.Eval(db); err != nil {
		t.Fatal(err)
	}
	if db.Get("small").Len() != 3 {
		t.Fatalf("small = %v", db.Get("small").Tuples())
	}
}

func TestJoinWithConstants(t *testing.T) {
	db := NewDatabase()
	likes := db.Ensure("likes", 2)
	likes.Insert(Tuple{"ann", "go"})
	likes.Insert(Tuple{"bob", "go"})
	likes.Insert(Tuple{"ann", "rust"})
	p := mustProgram(t, Rule{
		Head: Atom{Pred: "go_fans", Args: []Term{V("p")}},
		Body: []Literal{{Atom: Atom{Pred: "likes", Args: []Term{V("p"), C("go")}}}},
	})
	if _, err := p.Eval(db); err != nil {
		t.Fatal(err)
	}
	if db.Get("go_fans").Len() != 2 {
		t.Fatalf("go_fans = %v", db.Get("go_fans").Tuples())
	}
}

func TestAggregates(t *testing.T) {
	db := NewDatabase()
	sales := db.Ensure("sale", 3) // (region, item, amount)
	rows := []Tuple{
		{"west", "a", int64(10)},
		{"west", "b", int64(5)},
		{"east", "a", int64(7)},
	}
	for _, r := range rows {
		sales.Insert(r)
	}
	body := []Literal{{Atom: Atom{Pred: "sale", Args: []Term{V("r"), V("i"), V("amt")}}}}
	p := mustProgram(t,
		Rule{Head: Atom{Pred: "total", Args: []Term{V("r"), V("amt")}}, Body: body, Agg: AggSum, AggVar: "amt"},
		Rule{Head: Atom{Pred: "n_items", Args: []Term{V("r"), V("i")}}, Body: body, Agg: AggCount, AggVar: "i"},
		Rule{Head: Atom{Pred: "biggest", Args: []Term{V("r"), V("amt")}}, Body: body, Agg: AggMax, AggVar: "amt"},
		Rule{Head: Atom{Pred: "smallest", Args: []Term{V("r"), V("amt")}}, Body: body, Agg: AggMin, AggVar: "amt"},
	)
	if _, err := p.Eval(db); err != nil {
		t.Fatal(err)
	}
	if !db.Get("total").Contains(Tuple{"west", int64(15)}) {
		t.Fatalf("total = %v", db.Get("total").Tuples())
	}
	if !db.Get("n_items").Contains(Tuple{"west", int64(2)}) || !db.Get("n_items").Contains(Tuple{"east", int64(1)}) {
		t.Fatalf("n_items = %v", db.Get("n_items").Tuples())
	}
	if !db.Get("biggest").Contains(Tuple{"west", int64(10)}) {
		t.Fatalf("biggest = %v", db.Get("biggest").Tuples())
	}
	if !db.Get("smallest").Contains(Tuple{"west", int64(5)}) {
		t.Fatalf("smallest = %v", db.Get("smallest").Tuples())
	}
}

func TestAggregateOverRecursion(t *testing.T) {
	// reach_count(n) :- count of nodes reachable from "a": aggregation must
	// be stratified above the recursive path computation.
	rules := append(tc(), Rule{
		Head:   Atom{Pred: "reach_count", Args: []Term{V("c")}},
		Body:   []Literal{{Atom: Atom{Pred: "path", Args: []Term{C("a"), V("y")}}}},
		Agg:    AggCount,
		AggVar: "y",
	})
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"})
	p := mustProgram(t, rules...)
	if _, err := p.Eval(db); err != nil {
		t.Fatal(err)
	}
	if !db.Get("reach_count").Contains(Tuple{int64(2)}) {
		t.Fatalf("reach_count = %v", db.Get("reach_count").Tuples())
	}
}

func TestRelationOps(t *testing.T) {
	r := NewRelation("t", 2)
	if !r.Insert(Tuple{"a", int64(1)}) || r.Insert(Tuple{"a", int64(1)}) {
		t.Fatal("insert dedup broken")
	}
	if r.Len() != 1 || !r.Contains(Tuple{"a", int64(1)}) {
		t.Fatal("contains broken")
	}
	// Type-prefixed keys: int 1 and string "1" must not collide.
	r.Insert(Tuple{"a", "1"})
	if r.Len() != 2 {
		t.Fatal("key encoding conflated int and string")
	}
	if !r.Delete(Tuple{"a", "1"}) || r.Delete(Tuple{"a", "1"}) {
		t.Fatal("delete semantics broken")
	}
	c := r.Clone()
	c.Insert(Tuple{"b", int64(2)})
	if r.Len() != 1 {
		t.Fatal("clone shares state")
	}
}

func TestLookupIndex(t *testing.T) {
	r := NewRelation("t", 3)
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{fmt.Sprintf("k%d", i%10), int64(i), "x"})
	}
	got := r.Lookup([]int{0}, []any{"k3"})
	if len(got) != 10 {
		t.Fatalf("indexed lookup returned %d rows, want 10", len(got))
	}
	// Index must track later inserts.
	r.Insert(Tuple{"k3", int64(1000), "x"})
	if len(r.Lookup([]int{0}, []any{"k3"})) != 11 {
		t.Fatal("index went stale after insert")
	}
	// Multi-column lookup.
	got = r.Lookup([]int{0, 1}, []any{"k3", int64(3)})
	if len(got) != 1 {
		t.Fatalf("multi-column lookup = %d rows", len(got))
	}
}

// Clone deep-copies the database. Nothing on the tick path copies state, so
// it lives here, with the oracles that evaluate from scratch over a copy.
func (db *Database) Clone() *Database {
	c := &Database{rels: make(map[string]*Relation, len(db.rels)), dict: db.dict}
	for n, r := range db.rels {
		c.rels[n] = r.Clone()
	}
	return c
}

func TestDatabaseCloneIsolated(t *testing.T) {
	db := edgeDB([2]string{"a", "b"})
	snap := db.Clone()
	db.Get("edge").Insert(Tuple{"x", "y"})
	if snap.Get("edge").Len() != 1 {
		t.Fatal("snapshot saw later mutation")
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	NewRelation("r", 2).Insert(Tuple{"only-one"})
}

func TestRuleString(t *testing.T) {
	r := tc()[1]
	want := "path(?x, ?z) :- path(?x, ?y), edge(?y, ?z)."
	if r.String() != want {
		t.Fatalf("String = %q, want %q", r.String(), want)
	}
}

// Monotonicity property: adding base facts can only grow the derived
// relations of a positive program (the CALM intuition, checked empirically).
func TestPositiveProgramMonotoneQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nodes := []string{"a", "b", "c", "d"}
		var base, extra [][2]string
		for i := 0; i < 5; i++ {
			base = append(base, [2]string{nodes[r.Intn(4)], nodes[r.Intn(4)]})
		}
		for i := 0; i < 3; i++ {
			extra = append(extra, [2]string{nodes[r.Intn(4)], nodes[r.Intn(4)]})
		}
		p := mustProgram(t, tc()...)
		small := edgeDB(base...)
		big := edgeDB(append(append([][2]string{}, base...), extra...)...)
		if _, err := p.Eval(small); err != nil {
			return false
		}
		if _, err := p.Eval(big); err != nil {
			return false
		}
		for _, tup := range small.Get("path").Tuples() {
			if !big.Get("path").Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
