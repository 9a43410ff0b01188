package datalog

import (
	"fmt"
	"testing"
)

// These tests pin which last literals write head rows through an emit list
// (compileRule marks them, planExec.walk writes them) and what such a
// literal must still honour: each builds a rule whose last literal is
// probed by index, checks whether the plan marked it, and checks the rows.

// lastEmits reports, for each join order of p that has literals, whether
// its last literal carries an emit list.
func lastEmits(p *rulePlan) []bool {
	var out []bool
	for _, order := range p.orders {
		if len(order) > 0 {
			out = append(out, order[len(order)-1].emit != nil)
		}
	}
	return out
}

// derivePrepared prepares r with x bound and derives it over db at x = 1,
// checking whether the standard order's last literal writes through an
// emit list.
func derivePrepared(t *testing.T, r Rule, db *Database, emits bool) []Tuple {
	t.Helper()
	pr, err := PrepareRule(r, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got := lastEmits(pr.plan)[0]; got != emits {
		t.Fatalf("%s: last literal emits = %v, want %v", r, got, emits)
	}
	rows, err := pr.Derive(db, map[string]any{"x": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	return tuplesOf(rows)
}

func intDB(pred string, rows ...Tuple) *Database {
	db := NewDatabase()
	rel := db.Ensure(pred, len(rows[0]))
	for _, r := range rows {
		rel.Insert(r)
	}
	return db
}

// TestEmitRefusesRepeatedVariable: b(x, z, z) binds z at column 1 and must
// find it again at column 2, so it keeps the step path, which checks.
func TestEmitRefusesRepeatedVariable(t *testing.T) {
	r := Rule{
		Head: Atom{Pred: "out", Args: []Term{V("z")}},
		Body: []Literal{{Atom: Atom{Pred: "b", Args: []Term{V("x"), V("z"), V("z")}}}},
	}
	db := intDB("b", Tuple{int64(1), int64(2), int64(2)}, Tuple{int64(1), int64(3), int64(4)})
	if got := fmt.Sprint(derivePrepared(t, r, db, false)); got != "[(2)]" {
		t.Fatalf("out = %s, want [(2)]", got)
	}
}

// TestEmitRefusesFilterOnLastLiteral: y > 2 becomes evaluable only once
// b(x, y) binds y, so that literal keeps the step path, which filters.
func TestEmitRefusesFilterOnLastLiteral(t *testing.T) {
	r := Rule{
		Head:    Atom{Pred: "out", Args: []Term{V("y")}},
		Body:    []Literal{{Atom: Atom{Pred: "b", Args: []Term{V("x"), V("y")}}}},
		Filters: []Filter{{Op: OpGt, L: V("y"), R: C(int64(2))}},
	}
	db := intDB("b", Tuple{int64(1), int64(2)}, Tuple{int64(1), int64(3)})
	if got := fmt.Sprint(derivePrepared(t, r, db, false)); got != "[(3)]" {
		t.Fatalf("out = %s, want [(3)]", got)
	}
}

// TestEmitArityZeroHead: a head of no columns still writes one (empty) row
// per derivation.
func TestEmitArityZeroHead(t *testing.T) {
	r := Rule{
		Head: Atom{Pred: "out"},
		Body: []Literal{{Atom: Atom{Pred: "b", Args: []Term{V("x"), V("y")}}}},
	}
	db := intDB("b", Tuple{int64(1), int64(2)}, Tuple{int64(1), int64(3)}, Tuple{int64(2), int64(3)})
	if got := derivePrepared(t, r, db, true); len(got) != 2 {
		t.Fatalf("out() derived %d times, want 2", len(got))
	}
	inc, err := NewIncremental(mustProgram(t, Rule{
		Head: Atom{Pred: "out"},
		Body: []Literal{{Atom: Atom{Pred: "b", Args: []Term{C(int64(2)), V("y")}}}},
	}), db)
	if err != nil {
		t.Fatal(err)
	}
	if n := inc.DB().Get("out").Len(); n != 1 {
		t.Fatalf("out has %d rows, want 1", n)
	}
}

// TestEmitHeadFromPresetAndConstant: head columns that the last literal
// does not bind come from the environment: a preset parameter and a
// constant, around a column taken from the row.
func TestEmitHeadFromPresetAndConstant(t *testing.T) {
	r := Rule{
		Head: Atom{Pred: "out", Args: []Term{V("x"), C("k"), V("y"), V("x")}},
		Body: []Literal{{Atom: Atom{Pred: "b", Args: []Term{V("x"), V("y")}}}},
	}
	db := intDB("b", Tuple{int64(1), int64(2)}, Tuple{int64(2), int64(3)})
	if got := fmt.Sprint(derivePrepared(t, r, db, true)); got != "[(1, k, 2, 1)]" {
		t.Fatalf("out = %s, want [(1, k, 2, 1)]", got)
	}
}

// TestEmitAggregateVariableFromRow: an aggregate rule's rows are (group
// variables, aggregated variable), and here the last literal binds the
// aggregated one.
func TestEmitAggregateVariableFromRow(t *testing.T) {
	p := mustProgram(t, Rule{
		Head: Atom{Pred: "total", Args: []Term{V("x"), V("s")}},
		Body: []Literal{
			{Atom: Atom{Pred: "a", Args: []Term{V("x")}}},
			{Atom: Atom{Pred: "b", Args: []Term{V("x"), V("y")}}},
		},
		Agg:    AggSum,
		AggVar: "y",
	})
	if got := lastEmits(p.strata[0][0]); !got[0] {
		t.Fatalf("last literal emits = %v, want true in the standard order", got)
	}
	db := intDB("b", Tuple{int64(1), int64(10)}, Tuple{int64(1), int64(11)}, Tuple{int64(2), int64(10)})
	db.Ensure("a", 1).Insert(Tuple{int64(1)})
	db.Get("a").Insert(Tuple{int64(2)})
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(inc.DB().Get("total").Tuples()); got != "[(1, 21) (2, 10)]" {
		t.Fatalf("total = %s, want [(1, 21) (2, 10)]", got)
	}
}

// TestEmitSupportCheckStopsAtFirst: DRed's support plan for p(x) :- q(x, y)
// binds x and runs q(x, y) with no list, which must report the first row
// it finds: p(a) loses q(a, 1) but keeps q(a, 2).
func TestEmitSupportCheckStopsAtFirst(t *testing.T) {
	rules := []Rule{{
		Head: Atom{Pred: "p", Args: []Term{V("x")}},
		Body: []Literal{{Atom: Atom{Pred: "q", Args: []Term{V("x"), V("y")}}}},
	}}
	pl, err := compileProgramRule(rules[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := lastEmits(pl.support); !got[0] {
		t.Fatalf("support plan's last literal emits = %v, want true", got)
	}
	inc := dredDeleteOne(t, rules, map[string][]Tuple{"q": {{"a", int64(1)}, {"a", int64(2)}}}, "q", Tuple{"a", int64(1)})
	if p := inc.DB().Get("p"); !p.Contains(Tuple{"a"}) {
		t.Fatalf("p = %v, want [(a)]", p.Tuples())
	}
}

// TestEmitReadsOverDeletionOverlay: over-deletion drives each literal of
// p(x, z) :- q(x, y), r(y, z) by its removed rows and reads the other
// through db and then the overlay of removed rows. Deleting q(a, 1) and
// r(1, 5) in one batch takes p(a, 5) down only if each probe, having found
// a live row in db (r(1, 6), q(b, 1)), goes on to the overlay, which alone
// still holds the other removed row.
func TestEmitReadsOverDeletionOverlay(t *testing.T) {
	rule := Rule{
		Head: Atom{Pred: "p", Args: []Term{V("x"), V("z")}},
		Body: []Literal{
			{Atom: Atom{Pred: "q", Args: []Term{V("x"), V("y")}}},
			{Atom: Atom{Pred: "r", Args: []Term{V("y"), V("z")}}},
		},
	}
	prog := mustProgram(t, rule)
	if got := lastEmits(prog.strata[0][0]); len(got) != 3 || !got[1] || !got[2] {
		t.Fatalf("last literals emit = %v, want true in both delta-first orders", got)
	}
	db := NewDatabase()
	db.Ensure("q", 2).Insert(Tuple{"a", int64(1)})
	db.Get("q").Insert(Tuple{"b", int64(1)})
	db.Ensure("r", 2).Insert(Tuple{int64(1), int64(5)})
	db.Get("r").Insert(Tuple{int64(1), int64(6)})
	inc, err := NewIncremental(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.Delete("q", Tuple{"a", int64(1)})
	d.Delete("r", Tuple{int64(1), int64(5)})
	db.Get("q").Delete(Tuple{"a", int64(1)})
	db.Get("r").Delete(Tuple{int64(1), int64(5)})
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(inc.DB().Get("p").Tuples()); got != "[(b, 6)]" {
		t.Fatalf("p = %s, want [(b, 6)]", got)
	}
}
