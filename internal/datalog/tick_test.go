package datalog

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// stepTick folds d into inc through the exported round API, as a lone
// shard replica does: every round's changes cross the exchange and arrive
// at the next barrier.
func stepTick(inc *Incremental, d *Delta) (*Tick, error) {
	tk, err := inc.Begin(d, Site{})
	for ci := 0; err == nil && ci < len(inc.comps); ci++ {
		add, del := tk.Touched(ci)
		if !add && !del {
			continue
		}
		tk.Start(ci, del)
		for quiet, last := false, false; err == nil && !(quiet && last); {
			var arrived []Change
			if last, err = tk.Round(quiet, func(c Change) { arrived = append(arrived, c) }); err == nil {
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
