package datalog

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// persistProgram is a two-component program: a recursive closure feeding a
// non-recursive join, both maintained by semi-naive rounds and DRed.
func persistProgram(t testing.TB) *Program {
	t.Helper()
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
			Head: Atom{Pred: "reach_attr", Args: []Term{V("x"), V("v")}},
			Body: []Literal{
				{Atom: Atom{Pred: "path", Args: []Term{V("x"), V("y")}}},
				{Atom: Atom{Pred: "attr", Args: []Term{V("y"), V("v")}}},
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStateRoundTrip: capture → restore must reproduce the maintained state
// exactly, and the restored evaluator must maintain subsequent ticks
// identically to the original.
func TestStateRoundTrip(t *testing.T) {
	p := persistProgram(t)
	db := NewDatabase()
	edge := db.Ensure("edge", 2)
	attr := db.Ensure("attr", 2)
	for i := int64(0); i < 6; i++ {
		edge.Insert(Tuple{i, i + 1})
	}
	attr.Insert(Tuple{int64(3), int64(30)})
	attr.Insert(Tuple{int64(6), int64(60)})
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	// Churn a little so the slabs have seen drops and re-adds.
	d := NewDelta()
	edge.Delete(Tuple{int64(2), int64(3)})
	d.Delete("edge", Tuple{int64(2), int64(3)})
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	d = NewDelta()
	edge.Insert(Tuple{int64(2), int64(3)})
	d.Insert("edge", Tuple{int64(2), int64(3)})
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}

	st := inc.State()
	db2 := NewDatabase()
	inc2, err := RestoreIncremental(p, db2, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffDatabases("restored vs original", inc2.DB(), inc.DB()); err != nil {
		t.Fatal(err)
	}

	// Both evaluators must track the same future ticks, including deletes
	// that exercise DRed over the restored relations.
	mutate := func(e *Incremental, del bool, tup Tuple) {
		d := NewDelta()
		rel := e.DB().Get("edge")
		if del {
			if rel.Delete(tup) {
				d.Delete("edge", tup)
			}
		} else if rel.Insert(tup) {
			d.Insert("edge", tup)
		}
		if _, err := e.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		del bool
		tup Tuple
	}{
		{false, Tuple{int64(6), int64(0)}}, // close the cycle
		{true, Tuple{int64(3), int64(4)}},  // cut the chain
		{true, Tuple{int64(6), int64(0)}},
		{false, Tuple{int64(3), int64(4)}},
	}
	for _, s := range steps {
		mutate(inc, s.del, s.tup)
		mutate(inc2, s.del, s.tup)
		if err := diffDatabases("restored vs original after tick", inc2.DB(), inc.DB()); err != nil {
			t.Fatal(err)
		}
	}

	// And the re-captured states must be structurally identical (orders
	// included) — the byte-for-byte recovery guarantee rests on this.
	st1 := inc.State()
	st2 := inc2.State()
	if len(st1.Runs) != len(st2.Runs) || !reflect.DeepEqual(st1.Values, st2.Values) {
		t.Fatalf("state shapes diverge: %d/%d relations, values %v vs %v",
			len(st1.Runs), len(st2.Runs), st1.Values, st2.Values)
	}
	for i := range st1.Runs {
		a, b := st1.Runs[i], st2.Runs[i]
		if a.Name != b.Name || a.Arity != b.Arity || !slices.Equal(a.Rows, b.Rows) {
			t.Fatalf("relation state %s diverges", a.Name)
		}
	}
}

// TestStateRoundTripRandomized: the three-way differential harness's
// program shapes, with a capture/restore in the middle of a random tick
// sequence — the restored evaluator must stay equivalent to scratch Eval.
func TestStateRoundTripRandomized(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, err := NewProgram(randRules(r)...)
		if err != nil {
			t.Fatal(err)
		}
		edb := randEDB(r)
		inc, err := NewIncremental(p, edb.Clone())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for tick := 0; tick < 8; tick++ {
			d := NewDelta()
			for n := 0; n < 1+r.Intn(3); n++ {
				pred := edbPreds[r.Intn(len(edbPreds))]
				if r.Intn(3) > 0 {
					tup := randEDBTuple(r, pred)
					if edb.Get(pred).Insert(tup) {
						inc.DB().Get(pred).Insert(tup)
						d.Insert(pred, tup)
					}
				} else if existing := edb.Get(pred).Tuples(); len(existing) > 0 {
					tup := existing[r.Intn(len(existing))]
					edb.Get(pred).Delete(tup)
					inc.DB().Get(pred).Delete(tup)
					d.Delete(pred, tup)
				}
			}
			if _, err := inc.Apply(d); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if tick == 3 { // close/reopen mid-sequence
				st := inc.State()
				inc, err = RestoreIncremental(p, NewDatabase(), st)
				if err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
			}
			ref := edb.Clone()
			if _, err := p.Eval(ref); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := diffDatabases("restored incremental vs compiled", inc.DB(), ref); err != nil {
				t.Fatalf("seed %d tick %d: %v", seed, tick, err)
			}
		}
	}
}

// corruptStates are hand-corrupted variants of a good capture of
// persistProgram over edge(a,b), attr(b,1): each is a state no correct
// State() produces. Values is ["b", "a"] (first use: attr, then edge).
var corruptStates = map[string]func(st *Batch){
	"relations out of name order": func(st *Batch) {
		st.Runs[2], st.Runs[3] = st.Runs[3], st.Runs[2] // path, reach_attr
	},
	"arity mismatch": func(st *Batch) { stateRel(st, "edge").Arity = 1 },
	"a relation the program names missing": func(st *Batch) {
		st.Runs = st.Runs[:3] // drops reach_attr, whose values other rows use too
	},
	"row length not a multiple of the arity": func(st *Batch) {
		rs := stateRel(st, "edge")
		rs.Rows = rs.Rows[:1]
	},
	"temp word": func(st *Batch) { stateRel(st, "edge").Rows[1] = tagTemp },
	"dictionary id out of range": func(st *Batch) {
		stateRel(st, "edge").Rows[1] = 7<<tagBits | tagDict
	},
	"dictionary ids out of first-use order": func(st *Batch) {
		st.Values[0], st.Values[1] = st.Values[1], st.Values[0]
		for i := range st.Runs {
			for j, w := range st.Runs[i].Rows {
				if w&tagMask == tagDict {
					st.Runs[i].Rows[j] = w ^ 1<<tagBits
				}
			}
		}
	},
	"inline-typed value": func(st *Batch) { st.Values[0] = int64(5) },
	"duplicate value":    func(st *Batch) { st.Values[1] = st.Values[0] },
	"unreferenced value": func(st *Batch) { st.Values = append(st.Values, "zz") },
	"duplicate row":      func(st *Batch) { rs := stateRel(st, "edge"); rs.Rows = append(rs.Rows, rs.Rows...) },
}

// stateRel returns the named relation of st.
func stateRel(st *Batch, name string) *Run {
	for i := range st.Runs {
		if st.Runs[i].Name == name {
			return &st.Runs[i]
		}
	}
	panic("no relation " + name)
}

// TestRestoreRejectsCorruptState: hand-corrupted states must be refused,
// and a refused state changes no relation of the caller's database — a
// runtime that hands its own tables to a failed recovery can still build an
// evaluator over them.
func TestRestoreRejectsCorruptState(t *testing.T) {
	p := persistProgram(t)
	db := NewDatabase()
	db.Ensure("edge", 2).Insert(Tuple{"a", "b"})
	db.Ensure("attr", 2).Insert(Tuple{"b", int64(1)})
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	good := inc.State()
	if !reflect.DeepEqual(good.Values, []any{"b", "a"}) {
		t.Fatalf("Values = %v, want [b a]", good.Values)
	}
	for name, corrupt := range corruptStates {
		st := inc.State()
		corrupt(st)
		db := NewDatabase()
		db.Ensure("edge", 2)
		if _, err := RestoreIncremental(p, db, st); err == nil {
			t.Errorf("%s: restore must fail", name)
			continue
		}
		if got := db.Names(); !slices.Equal(got, []string{"edge"}) {
			t.Errorf("%s: failed restore left relations %v, want [edge]", name, got)
		}
		if n := db.Get("edge").Len(); n > 0 {
			t.Errorf("%s: failed restore left %d tuples in edge", name, n)
		}
		if _, err := NewIncremental(p, db); err != nil {
			t.Errorf("%s: NewIncremental after a failed restore: %v", name, err)
		}
	}
	// The untouched capture still restores.
	if _, err := RestoreIncremental(p, NewDatabase(), good); err != nil {
		t.Fatalf("good state must restore: %v", err)
	}
}

// TestApplyRejectsInconsistentDelta: batches contradicting retained state
// surface ErrInconsistentDelta pre-mutation — the prior fixpoint stays
// intact and the evaluator keeps serving (the graceful-degradation
// regression for the serving loop).
func TestApplyRejectsInconsistentDelta(t *testing.T) {
	setup := func() (*Incremental, *Database) {
		p := persistProgram(t)
		db := NewDatabase()
		db.Ensure("edge", 2).Insert(Tuple{"a", "b"})
		db.Ensure("attr", 2).Insert(Tuple{"b", int64(1)})
		inc, err := NewIncremental(p, db)
		if err != nil {
			t.Fatal(err)
		}
		return inc, db
	}

	t.Run("insert never applied", func(t *testing.T) {
		inc, _ := setup()
		d := NewDelta()
		d.Insert("edge", Tuple{"x", "y"}) // not actually in the relation
		if _, err := inc.Apply(d); !errors.Is(err, ErrInconsistentDelta) {
			t.Fatalf("want ErrInconsistentDelta, got %v", err)
		}
	})
	t.Run("delete never applied", func(t *testing.T) {
		inc, _ := setup()
		d := NewDelta()
		d.Delete("edge", Tuple{"a", "b"}) // still present
		if _, err := inc.Apply(d); !errors.Is(err, ErrInconsistentDelta) {
			t.Fatalf("want ErrInconsistentDelta, got %v", err)
		}
	})
	t.Run("phantom delete breaks counts", func(t *testing.T) {
		// A delete of a tuple that was never present passes the membership
		// check (it is absent now), and no derivation counts exist for it to
		// break: DRed over-deletes only the rows the tuple supported — none
		// here — so the fixpoint stays what Eval computes.
		inc, db := setup()
		d := NewDelta()
		d.Delete("attr", Tuple{"b", int64(7)}) // never existed; joins with path(a,b)
		if _, err := inc.Apply(d); err != nil {
			t.Fatalf("Apply must accept the phantom delete: %v", err)
		}
		ref := NewDatabase()
		ref.Ensure("edge", 2).Insert(Tuple{"a", "b"})
		ref.Ensure("attr", 2).Insert(Tuple{"b", int64(1)})
		if _, err := inc.prog.Eval(ref); err != nil {
			t.Fatal(err)
		}
		if err := diffDatabases("after the phantom delete", inc.DB(), ref); err != nil {
			t.Fatal(err)
		}
		// Still serving: a good tick lands.
		db.Get("edge").Insert(Tuple{"b", "c"})
		good := NewDelta()
		good.Insert("edge", Tuple{"b", "c"})
		if _, err := inc.Apply(good); err != nil {
			t.Fatalf("evaluator must keep serving: %v", err)
		}
		if !inc.DB().Get("path").Contains(Tuple{"a", "c"}) {
			t.Fatal("good tick after the phantom delete must maintain the fixpoint")
		}
	})
}

// TestInsertReportedTwice: a batch that reports one realized insert twice,
// followed by a batch that deletes the tuple, leaves the fixpoint Eval
// computes — no stale reach_attr row. No caller in this repository sends
// such a batch: the transducer, the shard replicas' routed ops and
// changelog replay record only realized changes. The test pins that the
// maintenance engine cannot be corrupted by one.
func TestInsertReportedTwice(t *testing.T) {
	p := persistProgram(t)
	db := NewDatabase()
	db.Ensure("edge", 2).Insert(Tuple{"a", "b"})
	attr := db.Ensure("attr", 2)
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	row := Tuple{"b", int64(2)}
	attr.Insert(row)
	d := NewDelta()
	d.Insert("attr", row)
	d.Insert("attr", row)
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	attr.Delete(row)
	d = NewDelta()
	d.Delete("attr", row)
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	ref := NewDatabase()
	ref.Ensure("edge", 2).Insert(Tuple{"a", "b"})
	ref.Ensure("attr", 2)
	if _, err := p.Eval(ref); err != nil {
		t.Fatal(err)
	}
	if err := diffDatabases("after the doubly reported insert and its delete", inc.DB(), ref); err != nil {
		t.Fatal(err)
	}
}
