package datalog

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// This file pins the maintenance engine's round — driveOnce, what every
// insert and over-delete round of a Tick runs, on one node or on a shard
// replica — against the interpretive reference: for every monotone
// component of a random program, at every state on the way to its
// fixpoint, one round whose frontier is every body literal's full extent
// derives exactly one naive immediate-consequence step (deriveRule per
// rule). With an overlay, part of the state is moved out of the database
// into the overlay and the same round must still equal the step over the
// whole state.

// sameTuples compares two relations' sorted contents.
func sameTuples(got, want *Relation) error {
	g, w := got.Tuples(), want.Tuples()
	if len(g) != len(w) {
		return fmt.Errorf("%d vs %d tuples\ngot:  %v\nwant: %v", len(g), len(w), g, w)
	}
	for i := range g {
		if !g[i].Equal(w[i]) {
			return fmt.Errorf("diverges at %d: %v vs %v", i, g[i], w[i])
		}
	}
	return nil
}

// headRel returns (creating on first use) the step result for r's head.
func headRel(out map[string]*Relation, r Rule) *Relation {
	head := out[r.Head.Pred]
	if head == nil {
		head = NewRelation(r.Head.Pred, len(r.Head.Args))
		out[r.Head.Pred] = head
	}
	return head
}

// driveStep runs one round of component ci, collected per head. db is
// what the non-driven literals read (plus ov); each literal's frontier is
// its full extent in whole, which shares db's dictionary.
func driveStep(p *Program, ci int, db, whole, ov *Database) map[string]*Relation {
	out := map[string]*Relation{}
	frontier := map[string]*rowList{}
	for _, pl := range p.strata[ci] {
		headRel(out, pl.r)
		for _, l := range pl.r.Body {
			if frontier[l.Pred] == nil {
				frontier[l.Pred] = &rowList{arity: len(l.Args)}
				whole.Get(l.Pred).scanRows(frontier[l.Pred].add)
			}
		}
	}
	var b roundBufs
	b.driveOnce(db, p.strata[ci], frontier, preBatch{over: ov}, 1, func(rel *Relation, w []uint64, _, _ int) {
		out[rel.Name].Insert(rel.dict.tuple(w))
	})
	return out
}

// naiveStep is the reference: one interpretive pass of every rule over db.
func naiveStep(c Component, db *Database) map[string]*Relation {
	out := map[string]*Relation{}
	for _, r := range c.Rules {
		head := headRel(out, r)
		for _, t := range deriveRule(db, r) {
			head.Insert(t)
		}
	}
	return out
}

// splitState moves a random part of every relation the component reads
// out of a clone of db and into an overlay in the clone's dictionary.
func splitState(r *rand.Rand, c Component, db *Database) (*Database, *Database) {
	cut := db.Clone()
	ov := cut.Scratch()
	for _, pred := range append(append([]string{}, c.Inputs...), c.Heads...) {
		for _, t := range db.Get(pred).Tuples() {
			if r.Intn(3) == 0 {
				cut.Get(pred).Delete(t)
				ov.Ensure(pred, len(t)).Insert(t)
			}
		}
	}
	return cut, ov
}

func checkDriveSteps(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	p, err := NewProgram(randRules(r)...)
	if err != nil {
		return fmt.Errorf("program rejected: %w", err)
	}
	db := randEDB(r)
	if _, err := p.register(db); err != nil {
		return err
	}
	for ci, c := range p.Components() {
		if c.NonMono {
			// Not driven (replicas recompute these); evaluate so later
			// components see their inputs.
			sub, err := NewProgram(c.Rules...)
			if err != nil {
				return err
			}
			if _, err := sub.EvalNaive(db); err != nil {
				return err
			}
			continue
		}
		for grew := true; grew; {
			want := naiveStep(c, db)
			cut, ov := splitState(r, c, db)
			for label, got := range map[string]map[string]*Relation{
				"plain":   driveStep(p, ci, db, db, nil),
				"overlay": driveStep(p, ci, cut, db, ov),
			} {
				for h := range want {
					if err := sameTuples(got[h], want[h]); err != nil {
						return fmt.Errorf("component %d, %s drive, head %s: %w", ci, label, h, err)
					}
				}
			}
			grew = false
			for h, rel := range want {
				for _, t := range rel.Tuples() {
					if db.Get(h).Insert(t) {
						grew = true
					}
				}
			}
		}
	}
	return nil
}

func TestDriveEqualsNaiveStep(t *testing.T) {
	f := func(seed int64) bool {
		if err := checkDriveSteps(seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
