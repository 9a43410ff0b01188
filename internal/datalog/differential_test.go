package datalog

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// This file is the differential property test guarding the compiled
// evaluator: random small programs (chains, cycles, multi-way joins,
// stratified negation, aggregates, filters) run through both the planned
// semi-naive seed of NewIncremental and the interpretive naive EvalNaive,
// and the fixpoints must be identical relation by relation. A planner or
// executor bug that changes semantics, not just speed, fails here.

// randFact returns a random constant from a small mixed-type domain.
func randConst(r *rand.Rand) any {
	if r.Intn(2) == 0 {
		return string(rune('a' + r.Intn(4)))
	}
	return int64(r.Intn(4))
}

// randEDB populates edge/2, attr/2 (entity, numeric value) and node/1.
func randEDB(r *rand.Rand) *Database {
	db := NewDatabase()
	edge := db.Ensure("edge", 2)
	for i := 0; i < 3+r.Intn(10); i++ {
		edge.Insert(Tuple{randConst(r), randConst(r)})
	}
	attr := db.Ensure("attr", 2)
	for i := 0; i < 2+r.Intn(6); i++ {
		attr.Insert(Tuple{randConst(r), int64(r.Intn(10))})
	}
	node := db.Ensure("node", 1)
	for i := 0; i < 2+r.Intn(5); i++ {
		node.Insert(Tuple{randConst(r)})
	}
	return db
}

// randRules builds a stratifiable random program in layers: a recursive
// positive layer over the EDB, an optional negation layer over it, an
// optional aggregate layer on top, and an optional rule over layer 1 with a
// constant in a positive literal.
func randRules(r *rand.Rand) []Rule {
	var rules []Rule

	// Layer 1: transitive closure with randomized recursion shape.
	rules = append(rules, Rule{
		Head: Atom{Pred: "p1", Args: []Term{V("x"), V("y")}},
		Body: []Literal{{Atom: Atom{Pred: "edge", Args: []Term{V("x"), V("y")}}}},
	})
	switch r.Intn(3) {
	case 0: // left-recursive
		rules = append(rules, Rule{
			Head: Atom{Pred: "p1", Args: []Term{V("x"), V("z")}},
			Body: []Literal{
				{Atom: Atom{Pred: "p1", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "edge", Args: []Term{V("y"), V("z")}}},
			},
		})
	case 1: // right-recursive
		rules = append(rules, Rule{
			Head: Atom{Pred: "p1", Args: []Term{V("x"), V("z")}},
			Body: []Literal{
				{Atom: Atom{Pred: "edge", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "p1", Args: []Term{V("y"), V("z")}}},
			},
		})
	default: // nonlinear (doubling)
		rules = append(rules, Rule{
			Head: Atom{Pred: "p1", Args: []Term{V("x"), V("z")}},
			Body: []Literal{
				{Atom: Atom{Pred: "p1", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "p1", Args: []Term{V("y"), V("z")}}},
			},
		})
	}
	// Symmetric-edge join: the second literal is fully bound when
	// scheduled — exercises the plan's existence-check (Contains) path.
	if r.Intn(2) == 0 {
		rules = append(rules, Rule{
			Head: Atom{Pred: "sym", Args: []Term{V("x"), V("y")}},
			Body: []Literal{
				{Atom: Atom{Pred: "edge", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "edge", Args: []Term{V("y"), V("x")}}},
			},
		})
	}
	// Self-loop: a variable repeated within one literal — exercises the
	// plan's within-literal equality checks.
	if r.Intn(2) == 0 {
		rules = append(rules, Rule{
			Head: Atom{Pred: "loop", Args: []Term{V("x")}},
			Body: []Literal{{Atom: Atom{Pred: "p1", Args: []Term{V("x"), V("x")}}}},
		})
	}
	// Random multi-way join with an attribute filter.
	if r.Intn(2) == 0 {
		rules = append(rules, Rule{
			Head: Atom{Pred: "p2", Args: []Term{V("x"), V("v")}},
			Body: []Literal{
				{Atom: Atom{Pred: "p1", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "attr", Args: []Term{V("y"), V("v")}}},
			},
			Filters: []Filter{{Op: OpGe, L: V("v"), R: C(int64(r.Intn(5)))}},
		})
	}
	// Layer 2: stratified negation over layer 1.
	if r.Intn(2) == 0 {
		rules = append(rules, Rule{
			Head: Atom{Pred: "q", Args: []Term{V("x")}},
			Body: []Literal{
				{Atom: Atom{Pred: "node", Args: []Term{V("x")}}},
				{Atom: Atom{Pred: "p1", Args: []Term{C(randConst(r)), V("x")}}, Negated: true},
			},
		})
	}
	// Layer 3: aggregates over the closure and attributes.
	switch r.Intn(4) {
	case 0:
		rules = append(rules, Rule{
			Head:   Atom{Pred: "fanout", Args: []Term{V("x"), V("y")}},
			Body:   []Literal{{Atom: Atom{Pred: "p1", Args: []Term{V("x"), V("y")}}}},
			Agg:    AggCount,
			AggVar: "y",
		})
	case 1:
		rules = append(rules, Rule{
			Head: Atom{Pred: "wsum", Args: []Term{V("x"), V("v")}},
			Body: []Literal{
				{Atom: Atom{Pred: "p1", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "attr", Args: []Term{V("y"), V("v")}}},
			},
			Agg:    AggSum,
			AggVar: "v",
		})
	case 2:
		rules = append(rules, Rule{
			Head:   Atom{Pred: "best", Args: []Term{V("x"), V("v")}},
			Body:   []Literal{{Atom: Atom{Pred: "attr", Args: []Term{V("x"), V("v")}}}},
			Agg:    AggMax,
			AggVar: "v",
		})
	}
	// A constant in a positive body literal: it goes into probe keys and
	// index lookups, and a delta row of that literal must match it.
	switch c := C(randConst(r)); r.Intn(3) {
	case 0:
		rules = append(rules, Rule{
			Head: Atom{Pred: "from", Args: []Term{V("y")}},
			Body: []Literal{{Atom: Atom{Pred: "p1", Args: []Term{c, V("y")}}}},
		})
	case 1:
		rules = append(rules, Rule{
			Head: Atom{Pred: "into", Args: []Term{V("x"), V("y")}},
			Body: []Literal{
				{Atom: Atom{Pred: "p1", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "edge", Args: []Term{V("y"), c}}},
			},
		})
	}
	return rules
}

// runBoth evaluates the same program over clones of the same EDB with the
// compiled plans (NewIncremental's seed) and the naive evaluator and
// reports any divergence.
func runBoth(rules []Rule, db *Database) error {
	p, err := NewProgram(rules...)
	if err != nil {
		return fmt.Errorf("program rejected: %w", err)
	}
	dbC, dbN := db.Clone(), db.Clone()
	if _, err := NewIncremental(p, dbC); err != nil {
		return fmt.Errorf("NewIncremental: %w", err)
	}
	// Heads start empty, so the derived relations' total size is the
	// number of rows the seed derived.
	nC, heads := 0, map[string]bool{}
	for _, r := range rules {
		if !heads[r.Head.Pred] {
			heads[r.Head.Pred] = true
			nC += dbC.Get(r.Head.Pred).Len()
		}
	}
	nN, err := p.EvalNaive(dbN)
	if err != nil {
		return fmt.Errorf("EvalNaive: %w", err)
	}
	if nC != nN {
		return fmt.Errorf("derived counts diverge: compiled=%d naive=%d", nC, nN)
	}
	names := map[string]bool{}
	for _, n := range dbC.Names() {
		names[n] = true
	}
	for _, n := range dbN.Names() {
		names[n] = true
	}
	for n := range names {
		rc, rn := dbC.Get(n), dbN.Get(n)
		if (rc == nil) != (rn == nil) {
			return fmt.Errorf("relation %s exists in one fixpoint only", n)
		}
		if rc == nil {
			continue
		}
		tc, tn := rc.Tuples(), rn.Tuples()
		if len(tc) != len(tn) {
			return fmt.Errorf("relation %s: %d vs %d tuples\ncompiled: %v\nnaive:    %v", n, len(tc), len(tn), tc, tn)
		}
		for i := range tc {
			if !tc[i].Equal(tn[i]) {
				return fmt.Errorf("relation %s diverges at %d: %v vs %v", n, i, tc[i], tn[i])
			}
		}
	}
	return nil
}

// TestDifferentialCompiledVsNaive is the headline property: for random
// programs and databases, compiled semi-naive evaluation computes exactly
// the interpretive naive fixpoint.
func TestDifferentialCompiledVsNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := randRules(r)
		db := randEDB(r)
		if err := runBoth(rules, db); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaLiteralConstants: a constant in the literal a round drives from
// its delta filters the delta's rows (randRules puts constants only under
// negation). lab spreads the label "a" along e. The seed's rounds drive the
// recursive lab(x, "a") from lab rows of either label, and Apply drives it
// from init and e changes; each must match EvalNaive on the same base data.
func TestDeltaLiteralConstants(t *testing.T) {
	p := mustProgram(t,
		Rule{Head: Atom{Pred: "lab", Args: []Term{V("x"), V("l")}}, Body: []Literal{{Atom: Atom{Pred: "init", Args: []Term{V("x"), V("l")}}}}},
		Rule{Head: Atom{Pred: "lab", Args: []Term{V("y"), C("a")}}, Body: []Literal{
			{Atom: Atom{Pred: "lab", Args: []Term{V("x"), C("a")}}},
			{Atom: Atom{Pred: "e", Args: []Term{V("x"), V("y")}}},
		}},
	)
	edb := NewDatabase()
	edb.Ensure("init", 2)
	edb.Ensure("e", 2)
	inc, err := NewIncremental(p, edb.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i, tick := range [][]DeltaOp{
		{{Pred: "init", T: Tuple{int64(1), "a"}}, {Pred: "init", T: Tuple{int64(5), "b"}},
			{Pred: "e", T: Tuple{int64(1), int64(2)}}, {Pred: "e", T: Tuple{int64(5), int64(6)}}},
		{{Pred: "e", T: Tuple{int64(2), int64(3)}}, {Pred: "e", T: Tuple{int64(6), int64(7)}}},
		{{Pred: "init", T: Tuple{int64(5), "b"}, Del: true}, {Pred: "init", T: Tuple{int64(1), "b"}}},
	} {
		for _, op := range tick {
			edb.realize(op)
			inc.DB().realize(op)
		}
		if _, err := inc.Apply(&Delta{ops: tick}); err != nil {
			t.Fatal(err)
		}
		seeded, naive := edb.Clone(), edb.Clone()
		if _, err := NewIncremental(p, seeded); err != nil {
			t.Fatal(err)
		}
		if _, err := p.EvalNaive(naive); err != nil {
			t.Fatal(err)
		}
		if err := diffDatabases("seed vs naive", seeded, naive); err != nil {
			t.Errorf("tick %d: %v", i, err)
		}
		if err := diffDatabases("Apply vs naive", inc.DB(), naive); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
}

// TestComponentOrderProperty checks the component order as a property.
// EvalNaive walks the same components as NewIncremental's seed, so the
// differential tests need not see an ordering bug; here, over random
// programs with their rules shuffled, every component reads only base
// relations, its own heads and earlier components' heads, a negated literal
// or an aggregate rule reads only earlier components, each component keeps
// program order, and the naive fixpoint is the same under every order. Three unstratifiable
// programs are refused at NewProgram.
func TestComponentOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		rules := randRules(r)
		edb := randEDB(r)
		want := ""
		for perm := 0; perm < 6; perm++ {
			shuffled := slices.Clone(rules)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			p, err := NewProgram(shuffled...)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			comps := p.Components()
			pos := map[string]int{}
			for i, rl := range shuffled {
				pos[rl.String()] = i
			}
			owner := map[string]int{} // head → its component
			for i, c := range comps {
				for _, h := range c.Heads {
					owner[h] = i
				}
			}
			nrules := 0
			for i, c := range comps {
				nrules += len(c.Rules)
				for k, rl := range c.Rules {
					if k > 0 && pos[rl.String()] < pos[c.Rules[k-1].String()] {
						t.Errorf("seed %d: component %d is out of program order: %v", seed, i, c.Rules)
					}
					for _, l := range rl.Body {
						o, derived := owner[l.Pred]
						switch {
						case !derived:
						case o > i:
							t.Errorf("seed %d: component %d rule %v reads %s of later component %d", seed, i, rl, l.Pred, o)
						case o == i && (l.Negated || rl.Agg != ""):
							t.Errorf("seed %d: component %d rule %v reads its own component under negation or aggregation", seed, i, rl)
						}
					}
				}
			}
			if nrules != len(shuffled) {
				t.Errorf("seed %d: components hold %d rules, program has %d", seed, nrules, len(shuffled))
			}
			db := edb.Clone()
			if _, err := p.EvalNaive(db); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got := dbString(db); perm == 0 {
				want = got
			} else if got != want {
				t.Fatalf("seed %d: fixpoint depends on rule order:\n%s\nwant\n%s", seed, got, want)
			}
		}
	}

	lit := func(pred string, neg bool) Literal {
		return Literal{Atom: Atom{Pred: pred, Args: []Term{V("x")}}, Negated: neg}
	}
	head := func(pred string) Atom { return Atom{Pred: pred, Args: []Term{V("x")}} }
	unstratifiable := []struct {
		name  string
		rules []Rule
	}{
		{"self-negation", []Rule{
			{Head: head("p"), Body: []Literal{lit("b", false), lit("p", true)}},
		}},
		{"aggregation through recursion", []Rule{
			{Head: Atom{Pred: "p", Args: []Term{V("x"), V("n")}}, Body: []Literal{{Atom: Atom{Pred: "e", Args: []Term{V("x"), V("n")}}}}},
			{Head: Atom{Pred: "p", Args: []Term{V("x"), V("n")}}, Body: []Literal{{Atom: Atom{Pred: "p", Args: []Term{V("x"), V("y")}}}}, Agg: AggCount, AggVar: "y"},
		}},
		{"3-cycle closed by one negated edge", []Rule{
			{Head: head("a"), Body: []Literal{lit("b", false)}},
			{Head: head("b"), Body: []Literal{lit("c", false)}},
			{Head: head("c"), Body: []Literal{lit("base", false), lit("a", true)}},
		}},
	}
	for _, c := range unstratifiable {
		if _, err := NewProgram(c.rules...); err == nil || !strings.Contains(err.Error(), "not stratifiable") {
			t.Errorf("%s: NewProgram: %v, want a stratification error", c.name, err)
		}
	}
}

// Derive compiles r on the spot, with its constants in place, and runs it
// once over db without fixpoint iteration: the dynamic reference the
// prepared (pre-bound parameter) plans are compared against.
func Derive(db *Database, r Rule) ([]Tuple, error) {
	if r.Agg != "" {
		return nil, fmt.Errorf("datalog: Derive does not support aggregates")
	}
	pl, err := compileRule(r, nil, false)
	if err != nil {
		return nil, err
	}
	rows := rowList{arity: len(pl.head)}
	pl.run(db, nil, &rows)
	var out []Tuple
	for i := range rows.len() {
		out = append(out, db.dict.tuple(rows.row(i)))
	}
	return out, nil
}

// tuplesOf lists a derived set's rows.
func tuplesOf(rows Rows) []Tuple {
	out := make([]Tuple, rows.Len())
	for i := range out {
		out[i] = rows.Row(i)
	}
	return out
}

// TestDifferentialPreparedDerive checks that the prepared (pre-bound
// parameter) derivation path agrees with per-call Derive on the same rule
// with constants substituted.
func TestDifferentialPreparedDerive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randEDB(r)
		p, err := NewProgram(randRules(r)...)
		if err != nil {
			return false
		}
		if _, err := NewIncremental(p, db); err != nil {
			return false
		}
		pivot := randConst(r)
		dynamic := Rule{
			Head: Atom{Pred: "__send", Args: []Term{V("y")}},
			Body: []Literal{{Atom: Atom{Pred: "p1", Args: []Term{C(pivot), V("y")}}}},
		}
		param := Rule{
			Head: Atom{Pred: "__send", Args: []Term{V("y")}},
			Body: []Literal{{Atom: Atom{Pred: "p1", Args: []Term{V("pid"), V("y")}}}},
		}
		want, err := Derive(db, dynamic)
		if err != nil {
			t.Logf("seed %d: Derive: %v", seed, err)
			return false
		}
		pr, err := PrepareRule(param, "pid")
		if err != nil {
			t.Logf("seed %d: PrepareRule: %v", seed, err)
			return false
		}
		rows, err := pr.Derive(db, map[string]any{"pid": pivot})
		if err != nil {
			t.Logf("seed %d: prepared Derive: %v", seed, err)
			return false
		}
		sortTuples(want)
		got := tuplesOf(rows)
		sortTuples(got)
		if len(want) != len(got) {
			t.Logf("seed %d: %v vs %v", seed, want, got)
			return false
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Logf("seed %d: %v vs %v", seed, want, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// diffDatabases reports the first relation on which two fixpoints diverge.
func diffDatabases(label string, a, b *Database) error {
	names := map[string]bool{}
	for _, n := range a.Names() {
		names[n] = true
	}
	for _, n := range b.Names() {
		names[n] = true
	}
	for n := range names {
		ra, rb := a.Get(n), b.Get(n)
		var ta, tb []Tuple
		if ra != nil {
			ta = ra.Tuples()
		}
		if rb != nil {
			tb = rb.Tuples()
		}
		if len(ta) != len(tb) {
			return fmt.Errorf("%s: relation %s: %d vs %d tuples\nleft:  %v\nright: %v", label, n, len(ta), len(tb), ta, tb)
		}
		for i := range ta {
			if !ta[i].Equal(tb[i]) {
				return fmt.Errorf("%s: relation %s diverges at %d: %v vs %v", label, n, i, ta[i], tb[i])
			}
		}
	}
	return nil
}

// edbPreds are the base relations the random tick sequences mutate.
var edbPreds = []string{"edge", "attr", "node"}

// randEDBTuple draws a tuple for one of the base relations.
func randEDBTuple(r *rand.Rand, pred string) Tuple {
	switch pred {
	case "edge":
		return Tuple{randConst(r), randConst(r)}
	case "attr":
		return Tuple{randConst(r), int64(r.Intn(10))}
	default:
		return Tuple{randConst(r)}
	}
}

// TestDifferentialThreeWayIncremental is this PR's headline property: across
// randomized tick sequences with interleaved inserts AND deletes, the
// cross-tick incremental evaluator maintains exactly the fixpoint that both
// the compiled semi-naive seed and the interpretive EvalNaive compute from
// scratch on the same base data. The failing seed is printed for
// reproduction.
func TestDifferentialThreeWayIncremental(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := randRules(r)
		p, err := NewProgram(rules...)
		if err != nil {
			t.Logf("seed %d: program rejected: %v", seed, err)
			return false
		}
		edb := randEDB(r) // pure base data, never touched by evaluation
		inc, err := NewIncremental(p, edb.Clone())
		if err != nil {
			t.Logf("seed %d: NewIncremental: %v", seed, err)
			return false
		}
		for tick := 0; tick < 6; tick++ {
			// Random base changes: inserts of fresh tuples and deletes of
			// existing ones, mirrored into the reference EDB and the
			// incremental database, with realized changes recorded.
			delta := NewDelta()
			for op := 0; op < 1+r.Intn(4); op++ {
				pred := edbPreds[r.Intn(len(edbPreds))]
				ref, live := edb.Get(pred), inc.DB().Get(pred)
				if r.Intn(2) == 0 {
					tup := randEDBTuple(r, pred)
					was := ref.Insert(tup)
					if live.Insert(tup) != was {
						t.Logf("seed %d tick %d: base insert diverged on %s%v", seed, tick, pred, tup)
						return false
					}
					if was {
						delta.Insert(pred, tup)
					}
				} else if existing := ref.Tuples(); len(existing) > 0 {
					tup := existing[r.Intn(len(existing))]
					ref.Delete(tup)
					if !live.Delete(tup) {
						t.Logf("seed %d tick %d: base delete diverged on %s%v", seed, tick, pred, tup)
						return false
					}
					delta.Delete(pred, tup)
				}
			}
			if _, err := inc.Apply(delta); err != nil {
				t.Logf("seed %d tick %d: Apply: %v", seed, tick, err)
				return false
			}
			refC := edb.Clone()
			if _, err := NewIncremental(p, refC); err != nil {
				t.Logf("seed %d tick %d: NewIncremental: %v", seed, tick, err)
				return false
			}
			if err := diffDatabases("incremental vs compiled", inc.DB(), refC); err != nil {
				t.Logf("seed %d tick %d: %v", seed, tick, err)
				return false
			}
			refN := edb.Clone()
			if _, err := p.EvalNaive(refN); err != nil {
				t.Logf("seed %d tick %d: EvalNaive: %v", seed, tick, err)
				return false
			}
			if err := diffDatabases("incremental vs naive", inc.DB(), refN); err != nil {
				t.Logf("seed %d tick %d: %v", seed, tick, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalRejectsDerivedMutation: feeding a batch that claims to
// have mutated a derived relation must error rather than corrupt the view —
// and, because the error is raised before anything is mutated, the prior
// fixpoint stays intact and the evaluator keeps serving good ticks
// (graceful degradation: a serving loop rejects the bad tick and moves on).
func TestIncrementalRejectsDerivedMutation(t *testing.T) {
	p, err := NewProgram(Rule{
		Head: Atom{Pred: "p1", Args: []Term{V("x"), V("y")}},
		Body: []Literal{{Atom: Atom{Pred: "edge", Args: []Term{V("x"), V("y")}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Ensure("edge", 2).Insert(Tuple{"a", "b"})
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.Insert("p1", Tuple{"x", "y"})
	if _, err := inc.Apply(d); !errors.Is(err, ErrInconsistentDelta) {
		t.Fatalf("mutating a derived relation as base must fail with ErrInconsistentDelta, got %v", err)
	}
	if !inc.DB().Get("p1").Contains(Tuple{"a", "b"}) {
		t.Fatal("prior fixpoint must stay intact after a rejected batch")
	}
	// The evaluator stays usable: a subsequent good tick applies normally.
	db.Get("edge").Insert(Tuple{"b", "c"})
	good := NewDelta()
	good.Insert("edge", Tuple{"b", "c"})
	if _, err := inc.Apply(good); err != nil {
		t.Fatalf("evaluator must keep serving after a rejected batch: %v", err)
	}
	if !inc.DB().Get("p1").Contains(Tuple{"b", "c"}) {
		t.Fatal("good tick after rejection must maintain the fixpoint")
	}
}

// TestIncrementalSeedFailureRollsBack: when a later component's seeding
// fails (here: a sum aggregate over a non-numeric column), the components
// seeded before it must not stay materialized in the caller's database —
// leftovers would be served as phantom base facts by whatever evaluator is
// installed next, and would make a retried NewIncremental reject the
// relation as "derived but already holds base tuples". Nor may the
// relations the evaluator registered stay behind, inputs included.
func TestIncrementalSeedFailureRollsBack(t *testing.T) {
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
		Rule{
			Head:   Atom{Pred: "total", Args: []Term{V("x"), V("v")}},
			Body:   []Literal{{Atom: Atom{Pred: "attr", Args: []Term{V("x"), V("v")}}}},
			Agg:    AggSum,
			AggVar: "v",
		},
		Rule{
			Head: Atom{Pred: "seen", Args: []Term{V("x")}},
			Body: []Literal{{Atom: Atom{Pred: "tag", Args: []Term{V("x")}}}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	e := db.Ensure("edge", 2)
	e.Insert(Tuple{"a", "b"})
	e.Insert(Tuple{"b", "c"})
	db.Ensure("attr", 2).Insert(Tuple{"a", "oops"}) // sum over a string fails
	if _, err := NewIncremental(p, db); err == nil {
		t.Fatal("seeding must fail on sum over non-numeric value")
	}
	if got := db.Names(); !slices.Equal(got, []string{"attr", "edge"}) {
		t.Fatalf("after a failed seed the database holds %v, want [attr edge]", got)
	}
	for _, pred := range []string{"path", "total", "seen", "tag"} {
		// The evaluator registered these relations itself, so rollback
		// must deregister them entirely — a lingering empty entry would
		// pin the arity for any retried program.
		if rel := db.Get(pred); rel != nil {
			t.Fatalf("seed failure left phantom relation %s (%d tuples)", pred, rel.Len())
		}
	}
	// The database is back to base-only state: fixing the data and retrying
	// must succeed.
	db.Get("attr").Delete(Tuple{"a", "oops"})
	db.Get("attr").Insert(Tuple{"a", int64(1)})
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if got := inc.DB().Get("path").Len(); got != 3 {
		t.Fatalf("retried fixpoint wrong: path = %v", inc.DB().Get("path").Tuples())
	}
}

// TestEnsureAtProgramArity: NewIncremental registers every relation the
// program reads at the program's arity, so a relation absent at
// construction cannot be created later at another arity — Ensure panics
// naming both arities, before Apply could index rows of the wrong width —
// and a delta op of the wrong length is an inconsistent delta.
func TestEnsureAtProgramArity(t *testing.T) {
	p, err := NewProgram(Rule{
		Head: Atom{Pred: "ab", Args: []Term{V("x")}},
		Body: []Literal{
			{Atom: Atom{Pred: "a", Args: []Term{V("x")}}},
			{Atom: Atom{Pred: "b", Args: []Term{V("x")}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Names(); !slices.Equal(got, []string{"a", "ab", "b"}) {
		t.Fatalf("registered relations = %v, want [a ab b]", got)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "relation a has arity 1, not 2") {
				t.Fatalf("Ensure at another arity: recovered %q, want the arity panic", msg)
			}
		}()
		db.Ensure("a", 2)
	}()
	d := NewDelta()
	d.Insert("a", Tuple{int64(1), int64(2)})
	if _, err := inc.Apply(d); !errors.Is(err, ErrInconsistentDelta) {
		t.Fatalf("a delta op of the wrong length: Apply = %v, want ErrInconsistentDelta", err)
	}
	db.Get("a").Insert(Tuple{int64(1)})
	db.Get("b").Insert(Tuple{int64(1)})
	d = NewDelta()
	d.Insert("a", Tuple{int64(1)})
	d.Insert("b", Tuple{int64(1)})
	if _, err := inc.Apply(d); err != nil || !db.Get("ab").Contains(Tuple{int64(1)}) {
		t.Fatalf("Apply = %v, ab = %v; want ab(1)", err, db.Get("ab").Tuples())
	}
}

// TestProgramNotMadeByNewProgramRefused: evaluators refuse a Program that
// NewProgram did not compile instead of compiling it on first use.
func TestProgramNotMadeByNewProgramRefused(t *testing.T) {
	p := &Program{Rules: []Rule{{
		Head: Atom{Pred: "q", Args: []Term{V("x")}},
		Body: []Literal{{Atom: Atom{Pred: "e", Args: []Term{V("x")}}}},
	}}}
	db := NewDatabase()
	if _, err := p.EvalNaive(db); err == nil {
		t.Error("EvalNaive accepted a Program NewProgram did not make")
	}
	if _, err := NewIncremental(p, db); err == nil {
		t.Error("NewIncremental accepted a Program NewProgram did not make")
	}
	if len(db.Names()) != 0 || p.Components() != nil {
		t.Errorf("a refused Program registered %v and has components %v", db.Names(), p.Components())
	}
}

// TestIncrementalCountsStayBounded: an upsert-churn workload (every tick
// deletes and re-inserts rows) through a non-recursive component must not
// accumulate dead slots — the view's slab tracks the live fixpoint, not
// every tuple ever derived.
func TestIncrementalCountsStayBounded(t *testing.T) {
	p, err := NewProgram(Rule{
		Head: Atom{Pred: "view", Args: []Term{V("x"), V("v")}},
		Body: []Literal{{Atom: Atom{Pred: "row", Args: []Term{V("x"), V("v")}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	rows := db.Ensure("row", 2)
	for i := int64(0); i < 16; i++ {
		rows.Insert(Tuple{i, int64(0)})
	}
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	current := map[int64]int64{} // key → live version
	for ver := int64(1); ver <= 500; ver++ {
		d := NewDelta()
		key := ver % 16
		old := Tuple{key, current[key]}
		rows.Delete(old)
		d.Delete("row", old)
		updated := Tuple{key, ver}
		rows.Insert(updated)
		d.Insert("row", updated)
		current[key] = ver
		if _, err := inc.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	view := inc.DB().Get("view")
	if view.slots() > 128 {
		t.Fatalf("view slab grew to %d slots after churn (tombstones not compacted)", view.slots())
	}
	if got := inc.DB().Get("view").Len(); got != 16 {
		t.Fatalf("view has %d rows, want 16", got)
	}
}

// TestDeleteKeepsIndexesConsistent hammers interleaved inserts, deletes and
// indexed lookups — the transducer's upsert pattern — and cross-checks the
// incremental index against a brute-force scan.
func TestDeleteKeepsIndexesConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := NewRelation("t", 2)
		var live []Tuple
		for step := 0; step < 200; step++ {
			if r.Intn(3) == 0 && len(live) > 0 {
				i := r.Intn(len(live))
				if !rel.Delete(live[i]) {
					t.Logf("seed %d: delete of live tuple failed", seed)
					return false
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				tup := Tuple{randConst(r), int64(r.Intn(4))}
				if rel.Insert(tup) {
					live = append(live, tup)
				}
			}
			// Indexed lookup vs brute force on a random probe.
			probe := randConst(r)
			got := rel.Lookup([]int{0}, []any{probe})
			want := 0
			for _, tu := range live {
				if tu[0] == probe {
					want++
				}
			}
			if len(got) != want {
				t.Logf("seed %d step %d: lookup=%d scan=%d", seed, step, len(got), want)
				return false
			}
			// A second index, built by its first probe mid-sequence (how
			// DRed's overlay relations get theirs), stays correct across the
			// later inserts and enumerates matches in insertion order.
			if step >= 100 {
				val := int64(r.Intn(4))
				var inOrder []Tuple
				for _, tu := range live {
					if tu[1] == val {
						inOrder = append(inOrder, tu)
					}
				}
				if got := rel.Lookup([]int{1}, []any{val}); fmt.Sprint(got) != fmt.Sprint(inOrder) {
					t.Logf("seed %d step %d: late index lookup=%v, insertion order=%v", seed, step, got, inOrder)
					return false
				}
			}
		}
		return rel.Len() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
