package datalog

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// stepTick folds d into inc through the exported round API, as a lone
// shard replica does: every round's changes cross the exchange and arrive
// at the next barrier.
func stepTick(inc *Incremental, d *Delta) (*Tick, error) { return watchTick(inc, d, nil) }

// watchTick is stepTick handing watch, when non-nil, every change a round
// emits.
func watchTick(inc *Incremental, d *Delta, watch func(Change)) (*Tick, error) {
	tk, err := inc.Begin(d, Site{})
	for ci := 0; err == nil && ci < len(inc.comps); ci++ {
		add, del := tk.Touched(ci)
		if !add && !del {
			continue
		}
		tk.Start(ci, del)
		for quiet, last := false, false; err == nil && !(quiet && last); {
			var arrived []Change
			if last, err = tk.Round(quiet, func(c Change) {
				if watch != nil {
					watch(c)
				}
				arrived = append(arrived, c)
			}); err == nil {
				quiet = tk.Accept(arrived) == 0
			}
		}
	}
	return tk, err
}

// TestTickAbortRestoresFixpoint: on random programs (recursive,
// non-recursive and non-monotone components) and delete-heavy batches, an
// aborted Tick leaves the database — base rows and derived rows — as it
// found it, and the same batch stepped again and kept equals Eval.
func TestTickAbortRestoresFixpoint(t *testing.T) {
	check := func(seed int64) error {
		r := rand.New(rand.NewSource(seed))
		p, err := NewProgram(randRules(r)...)
		if err != nil {
			return err
		}
		edb := randEDB(r)
		inc, err := NewIncremental(p, edb.Clone())
		if err != nil {
			return err
		}
		for tick := 0; tick < 6; tick++ {
			var ops []DeltaOp
			for op := 0; op < 1+r.Intn(4); op++ {
				pred := edbPreds[r.Intn(len(edbPreds))]
				if existing := edb.Get(pred).Tuples(); r.Intn(2) == 0 && len(existing) > 0 {
					ops = append(ops, DeltaOp{Del: true, Pred: pred, T: existing[r.Intn(len(existing))]})
				} else {
					ops = append(ops, DeltaOp{Pred: pred, T: randEDBTuple(r, pred)})
				}
			}
			before := inc.DB().Clone()
			for _, keep := range []bool{false, true} {
				d := NewDelta()
				for _, op := range ops {
					if rel := inc.DB().Get(op.Pred); op.Del && rel.Delete(op.T) {
						d.Delete(op.Pred, op.T)
					} else if !op.Del && rel.Insert(op.T) {
						d.Insert(op.Pred, op.T)
					}
				}
				tk, err := stepTick(inc, d)
				if err != nil {
					return fmt.Errorf("tick %d: %w", tick, err)
				}
				if !keep {
					tk.Abort()
					if err := diffDatabases("aborted vs before", inc.DB(), before); err != nil {
						return fmt.Errorf("tick %d: %w", tick, err)
					}
				}
			}
			for _, op := range ops {
				if op.Del {
					edb.Get(op.Pred).Delete(op.T)
				} else {
					edb.Get(op.Pred).Insert(op.T)
				}
			}
			ref := edb.Clone()
			if _, err := p.Eval(ref); err != nil {
				return err
			}
			if err := diffDatabases("stepped vs compiled", inc.DB(), ref); err != nil {
				return fmt.Errorf("tick %d: %w", tick, err)
			}
		}
		return nil
	}
	f := func(seed int64) bool {
		err := check(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundShipsEachRowOnce: a row two rules derive in one round ships once
// with the round's sign — +1 when inserting, −1 when over-deleting — never
// with the number of its derivations.
func TestRoundShipsEachRowOnce(t *testing.T) {
	x := []Term{V("x")}
	p := mustProgram(t,
		Rule{Head: Atom{Pred: "h", Args: x}, Body: []Literal{{Atom: Atom{Pred: "a", Args: x}}}},
		Rule{Head: Atom{Pred: "h", Args: x}, Body: []Literal{{Atom: Atom{Pred: "b", Args: x}}}},
	)
	db := NewDatabase()
	db.Ensure("a", 1)
	db.Ensure("b", 1)
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	one := Tuple{int64(1)}
	for _, del := range []bool{false, true} {
		d := NewDelta()
		for _, pred := range []string{"a", "b"} {
			if del {
				db.Get(pred).Delete(one)
				d.Delete(pred, one)
			} else {
				db.Get(pred).Insert(one)
				d.Insert(pred, one)
			}
		}
		var shipped []string
		if _, err := watchTick(inc, d, func(c Change) { shipped = append(shipped, fmt.Sprint(c)) }); err != nil {
			t.Fatal(err)
		}
		want := []string{"{h (1) 1}"}
		if del {
			want = []string{"{h (1) -1}"}
		}
		if !slices.Equal(shipped, want) {
			t.Fatalf("delete=%v: rounds shipped %v, want %v", del, shipped, want)
		}
	}
	if h := inc.DB().Get("h"); h.Len() != 0 {
		t.Fatalf("h holds %v after both derivations went", h.Tuples())
	}
}

// TestDeltaNetsChurn: one batch churns tuples of edge in every realized
// pattern — insert→delete→insert, delete→insert→delete, insert→delete and
// delete→insert — beside attr, which only inserts. Netting leaves each
// tuple's change on one side, or none, and Apply and the stepped Tick
// each reach Eval's fixpoint.
func TestDeltaNetsChurn(t *testing.T) {
	rules := append(tc(), Rule{
		Head: Atom{Pred: "reach_attr", Args: []Term{V("x"), V("v")}},
		Body: []Literal{
			{Atom: Atom{Pred: "path", Args: []Term{V("x"), V("y")}}},
			{Atom: Atom{Pred: "attr", Args: []Term{V("y"), V("v")}}},
		},
	})
	p := mustProgram(t, rules...)
	edge := func(a, b int64) Tuple { return Tuple{a, b} }
	base := NewDatabase()
	for _, e := range []Tuple{edge(0, 1), edge(1, 2), edge(2, 3)} {
		base.Ensure("edge", 2).Insert(e)
	}
	base.Ensure("attr", 2).Insert(Tuple{int64(2), int64(20)})
	ops := []DeltaOp{
		{Pred: "edge", T: edge(3, 4)},            // insert→delete→insert: an insert
		{Del: true, Pred: "edge", T: edge(1, 2)}, // delete→insert→delete: a delete
		{Pred: "edge", T: edge(4, 5)},            // insert→delete: nothing
		{Pred: "attr", T: Tuple{int64(4), int64(40)}},
		{Del: true, Pred: "edge", T: edge(2, 3)}, // delete→insert: nothing
		{Del: true, Pred: "edge", T: edge(3, 4)},
		{Pred: "edge", T: edge(1, 2)},
		{Del: true, Pred: "edge", T: edge(4, 5)},
		{Pred: "attr", T: Tuple{int64(5), int64(50)}},
		{Pred: "edge", T: edge(3, 4)},
		{Pred: "edge", T: edge(2, 3)},
		{Del: true, Pred: "edge", T: edge(1, 2)},
	}
	// apply performs ops on db, each a realized change, and records them.
	apply := func(db *Database) *Delta {
		d := NewDelta()
		for _, op := range ops {
			rel := db.Ensure(op.Pred, 2)
			if op.Del && rel.Delete(op.T) {
				d.Delete(op.Pred, op.T)
			} else if !op.Del && rel.Insert(op.T) {
				d.Insert(op.Pred, op.T)
			} else {
				t.Fatalf("%v is not a realized change", op)
			}
		}
		return d
	}
	ref := base.Clone()
	apply(ref)
	if _, err := p.Eval(ref); err != nil {
		t.Fatal(err)
	}

	netted := base.Clone()
	d := apply(netted)
	if _, err := d.encode(netted); err != nil {
		t.Fatal(err)
	}
	sides := func(pred string) string {
		dict := netted.dict
		var add, del []Tuple
		for l, i := d.add[pred], 0; i < l.len(); i++ {
			add = append(add, dict.tuple(l.row(i)))
		}
		for l, i := d.del[pred], 0; i < l.len(); i++ {
			del = append(del, dict.tuple(l.row(i)))
		}
		return fmt.Sprint("add ", add, " del ", del)
	}
	for pred, want := range map[string]string{
		"edge": "add [(3, 4)] del [(1, 2)]",
		"attr": "add [(4, 40) (5, 50)] del []",
	} {
		if got := sides(pred); got != want {
			t.Errorf("%s netted to %s, want %s", pred, got, want)
		}
	}

	for _, stepped := range []bool{false, true} {
		db := base.Clone()
		inc, err := NewIncremental(p, db)
		if err != nil {
			t.Fatal(err)
		}
		d := apply(db)
		if stepped {
			_, err = stepTick(inc, d)
		} else {
			_, err = inc.Apply(d)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := diffDatabases(fmt.Sprintf("stepped=%v vs eval", stepped), inc.DB(), ref); err != nil {
			t.Fatal(err)
		}
	}
}
