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

// watchTick is stepTick handing watch, when non-nil, every row a round
// ships — a candidate with n = 0 — decoded from its batches, which must be
// captures Batch.Delta accepts.
func watchTick(inc *Incremental, d *Delta, watch func(pred string, t Tuple, n int)) (*Tick, error) {
	tk, err := inc.Begin(d, Site{})
	for ci, del := tk.Next(0); err == nil && ci < len(inc.comps); ci, del = tk.Next(ci + 1) {
		tk.Start(ci, del)
		for quiet, last := false, false; err == nil && !(quiet && last); {
			var rows [1]Batch
			var cands Batch
			if last, err = tk.Round(quiet, rows[:], &cands); err != nil {
				break
			}
			for sign, b := range []*Batch{&cands, &rows[0]} {
				shipped, derr := b.Delta()
				if derr != nil {
					return tk, derr
				}
				for _, op := range shipped.Ops() {
					n := sign
					if op.Del {
						n = -1
					}
					if watch != nil {
						watch(op.Pred, op.T, n)
					}
				}
			}
			quiet = tk.Accept(&cands, &rows[0]) == 0
		}
	}
	return tk, err
}

// TestTickAbortRestoresFixpoint: on random programs (recursive,
// non-recursive and non-monotone components) and delete-heavy batches, an
// aborted Tick leaves the database — base rows and derived rows — as it
// found it, and the same batch stepped again and kept equals a from-scratch
// seed.
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
			if _, err := NewIncremental(p, ref); err != nil {
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
		if _, err := watchTick(inc, d, func(pred string, t Tuple, n int) {
			shipped = append(shipped, fmt.Sprintf("{%s %v %d}", pred, t, n))
		}); err != nil {
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
// each reach the from-scratch seed's fixpoint.
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
	if _, err := NewIncremental(p, ref); err != nil {
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

// TestTickNextNamesWhatStartFinds: on random programs and delete-heavy
// batches, Next(0) before the first component and Next(c+1) at the end of
// each stepped component c name the component, and the delete flag, that
// the batch holds once Start (or, past the last component, close) has
// realized the component in progress: every component Next skips has no
// realized change on its inputs, the named one has some, and its flag is
// whether its inputs lost rows. Next itself changes nothing.
func TestTickNextNamesWhatStartFinds(t *testing.T) {
	check := func(seed int64) error {
		r := rand.New(rand.NewSource(seed))
		p, err := NewProgram(randRules(r)...)
		if err != nil {
			return err
		}
		inc, err := NewIncremental(p, randEDB(r))
		if err != nil {
			return err
		}
		for tick := 0; tick < 6; tick++ {
			d := NewDelta()
			for op := 0; op < 1+r.Intn(4); op++ {
				pred := edbPreds[r.Intn(len(edbPreds))]
				rel := inc.DB().Get(pred)
				if existing := rel.Tuples(); r.Intn(3) > 0 && len(existing) > 0 {
					if tu := existing[r.Intn(len(existing))]; rel.Delete(tu) {
						d.Delete(pred, tu)
					}
				} else if tu := randEDBTuple(r, pred); rel.Insert(tu) {
					d.Insert(pred, tu)
				}
			}
			tk, err := inc.Begin(d, Site{})
			if err != nil {
				return err
			}
			for from := 0; ; {
				changes := tk.changes
				ci, del := tk.Next(from)
				if ci2, del2 := tk.Next(from); ci2 != ci || del2 != del || tk.changes != changes {
					return fmt.Errorf("tick %d: Next(%d) is not read-only", tick, from)
				}
				if ci < len(inc.comps) {
					tk.Start(ci, del)
				} else {
					tk.close()
				}
				for c := from; c < len(inc.comps) && c <= ci; c++ {
					add, gone := false, false
					for _, in := range inc.comps[c].Inputs {
						add, gone = add || tk.d.add[in].len() > 0, gone || tk.d.del[in].len() > 0
					}
					if c < ci && (add || gone) {
						return fmt.Errorf("tick %d: Next(%d) skips component %d, whose inputs changed", tick, from, c)
					}
					if c == ci && (!add && !gone || gone != del) {
						return fmt.Errorf("tick %d: Next(%d) names component %d deleting %v; its inputs gained %v, lost %v", tick, from, c, del, add, gone)
					}
				}
				if ci == len(inc.comps) {
					break
				}
				for quiet, last := false, false; !(quiet && last); {
					var rows [1]Batch
					var cands Batch
					if last, err = tk.Round(quiet, rows[:], &cands); err != nil {
						return err
					}
					quiet = tk.Accept(&cands, &rows[0]) == 0
				}
				from = ci + 1
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

// TestApplyRecordsOnlyReadHeads: Apply appends a realized head row to the
// batch only when a component reads that head, and counts every one. In
// closure path plus a source set from(x) :- path(x, y) that nothing reads,
// an inserting and a deleting batch hold path's realized rows and none of
// from's, and Apply returns both heads' set changes.
func TestApplyRecordsOnlyReadHeads(t *testing.T) {
	p, err := NewProgram(append(tcRules(), Rule{
		Head: Atom{Pred: "from", Args: []Term{V("x")}},
		Body: []Literal{{Atom: Atom{Pred: "path", Args: []Term{V("x"), V("y")}}}},
	})...)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Ensure("edge", 2)
	inc, err := NewIncremental(p, db)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		op          DeltaOp
		path, count int // path's realized rows; Apply's count, from's rows included
	}{
		{DeltaOp{Pred: "edge", T: Tuple{"a", "b"}}, 1, 2},
		{DeltaOp{Pred: "edge", T: Tuple{"b", "c"}}, 2, 3},            // path (b,c) (a,c); from b
		{DeltaOp{Del: true, Pred: "edge", T: Tuple{"a", "b"}}, 2, 3}, // path (a,b) (a,c); from a
	} {
		d := NewDelta()
		if tc.op.Del {
			db.Get("edge").Delete(tc.op.T)
			d.Delete("edge", tc.op.T)
		} else {
			db.Get("edge").Insert(tc.op.T)
			d.Insert("edge", tc.op.T)
		}
		n, err := inc.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		lists := d.add
		if tc.op.Del {
			lists = d.del
		}
		if n != tc.count || lists["path"].len() != tc.path || lists["from"].len() != 0 {
			t.Fatalf("batch %d: Apply counted %d, the batch holds %d path and %d from rows; want %d, %d and 0",
				i, n, lists["path"].len(), lists["from"].len(), tc.count, tc.path)
		}
	}
}
