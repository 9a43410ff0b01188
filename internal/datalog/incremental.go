package datalog

import (
	"errors"
	"fmt"
)

// ErrInconsistentDelta reports a change batch that contradicts the
// maintained state — e.g. an insert whose tuple is not actually present in
// the base relation, or a delete the caller never applied. Apply returns it
// (wrapped with detail) *before* mutating anything, so the prior fixpoint
// stays intact and a serving loop can reject the bad tick and keep running.
var ErrInconsistentDelta = errors.New("datalog: delta inconsistent with retained state")

// This file is the cross-tick incremental evaluator: instead of re-running
// the fixpoint from a fresh snapshot on every transducer tick (O(database)
// per tick), an Incremental retains the fixpoint in its database and folds
// in each tick's base-relation delta (O(delta) amortized on monotone
// workloads). The strategy is chosen per evaluation component (an
// SCC-refined stratum, see plan.go):
//
//   - Non-recursive monotone components maintain a derivation count per
//     head tuple (the classic counting algorithm), stored on the head
//     relation itself (Relation.addCount): an insert or delete on an input
//     enumerates exactly the derivations gained or lost, and a head tuple
//     appears or disappears when its count crosses zero. Exactness comes
//     from the positional old/new discipline — driving the delta through
//     body position i joins positions before i against the post-batch
//     state and positions after i against the pre-batch view (preBatch's
//     counting policy in plan.go).
//   - Recursive monotone components (e.g. transitive closure) propagate
//     insert-only deltas with the compiled semi-naive plans. Counting is
//     unsound under recursion (cyclic self-support), so a delta that
//     deletes one of their inputs falls back to recomputing the component
//     and diffing, which feeds precise deltas downstream.
//   - Components containing negation or aggregates recompute whenever any
//     input (including negated ones) changed, then diff.

// Delta is a batch of realized set-level changes to base relations: every
// recorded insert/delete must have actually changed membership, in the
// order it was applied. Apply encodes the batch, nets out insert/delete
// churn on the same tuple, and extends the encoded form with the
// derived-relation changes it realizes, so downstream components see the
// full cascade.
type Delta struct {
	added   map[string][]Tuple
	removed map[string][]Tuple
	preds   []string // first-touch order, for deterministic iteration
	// ops, when recording is enabled, preserves every base change in exact
	// application order — the per-pred added/removed lists lose the
	// interleaving across predicates and across inserts vs deletes, which a
	// write-ahead changelog (and a rollback) needs to replay faithfully.
	ops    []DeltaOp
	record bool

	// add and del are Apply's working form, per predicate, in the maintained
	// database's dictionary: the normalized base changes, then each
	// component's realized head changes in realization order. Only later
	// components read them.
	add, del map[string]*rowList
}

// DeltaOp is one realized change in exact application order. Del selects
// delete over insert.
type DeltaOp struct {
	Del  bool
	Pred string
	T    Tuple
}

// Undo reverses realized changes in reverse application order: a rolled-back
// insert is deleted, a rolled-back delete re-inserted. Contents are restored
// exactly; a re-inserted row may land in a new slot, so scan order can differ
// from a history that never applied the ops.
func (db *Database) Undo(ops []DeltaOp) {
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		if rel := db.Ensure(op.Pred, len(op.T)); op.Del {
			rel.Insert(op.T)
		} else {
			rel.Delete(op.T)
		}
	}
}

// NewDelta returns an empty change batch.
func NewDelta() *Delta {
	return &Delta{added: map[string][]Tuple{}, removed: map[string][]Tuple{}}
}

// SetRecording toggles exact-order op capture (see Ops). The transducer
// enables it so ticks can be journaled to a durable changelog and rolled
// back when rejected; plain evaluator callers leave it off and pay nothing.
func (d *Delta) SetRecording(on bool) { d.record = on }

// Ops returns the recorded base changes in exact application order. The
// slice is owned by the Delta: callers must not mutate it. The derived
// cascade Apply realizes is not among them.
func (d *Delta) Ops() []DeltaOp { return d.ops }

func (d *Delta) touch(pred string) {
	if _, ok := d.added[pred]; ok {
		return
	}
	if _, ok := d.removed[pred]; ok {
		return
	}
	d.preds = append(d.preds, pred)
}

// Insert records that t was inserted into rel (and was not present before).
func (d *Delta) Insert(rel string, t Tuple) {
	d.touch(rel)
	d.added[rel] = append(d.added[rel], t)
	if d.record {
		d.ops = append(d.ops, DeltaOp{Pred: rel, T: t})
	}
}

// Delete records that t was deleted from rel (and was present before).
func (d *Delta) Delete(rel string, t Tuple) {
	d.touch(rel)
	d.removed[rel] = append(d.removed[rel], t)
	if d.record {
		d.ops = append(d.ops, DeltaOp{Del: true, Pred: rel, T: t})
	}
}

// Empty reports whether the batch contains no changes.
func (d *Delta) Empty() bool {
	for _, ts := range d.added {
		if len(ts) > 0 {
			return false
		}
	}
	for _, ts := range d.removed {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

// rowsOf returns (creating on first use) pred's list in m.
func rowsOf(m map[string]*rowList, pred string, arity int) *rowList {
	l := m[pred]
	if l == nil {
		l = &rowList{arity: arity}
		m[pred] = l
	}
	return l
}

// insertRow and deleteRow record one realized derived-relation change.
func (d *Delta) insertRow(pred string, w []uint64) { rowsOf(d.add, pred, len(w)).add(w) }
func (d *Delta) deleteRow(pred string, w []uint64) { rowsOf(d.del, pred, len(w)).add(w) }

// encode builds the working form from the reported base changes in db's
// dictionary, netting out same-tuple churn (insert→delete→insert within
// one batch) so that at most one signed change per tuple is left — the
// precondition for the counting algebra and for old-view reconstruction.
func (d *Delta) encode(db *Database) error {
	dict := db.dictionary()
	d.add, d.del = map[string]*rowList{}, map[string]*rowList{}
	for _, pred := range d.preds {
		add, rem := d.added[pred], d.removed[pred]
		first := add
		if len(first) == 0 {
			first = rem
		}
		arity := len(first[0])
		if rel := db.Get(pred); rel != nil {
			arity = rel.Arity
		}
		for _, ts := range [2][]Tuple{add, rem} {
			for _, t := range ts {
				if len(t) != arity {
					return fmt.Errorf("%w: %s%v does not have the relation's arity %d", ErrInconsistentDelta, pred, t, arity)
				}
			}
		}
		if len(add) == 0 || len(rem) == 0 {
			// Realized changes on one side cannot repeat a tuple.
			for _, t := range add {
				rowsOf(d.add, pred, arity).addTuple(dict, t)
			}
			for _, t := range rem {
				rowsOf(d.del, pred, arity).addTuple(dict, t)
			}
			continue
		}
		net := newRelation(dict, pred, arity)
		var buf [8]uint64
		for _, t := range add {
			net.addCount(dict.encodeRow(buf[:0], t), 1)
		}
		for _, t := range rem {
			net.addCount(dict.encodeRow(buf[:0], t), -1)
		}
		net.scanCountRows(func(w []uint64, n int) {
			switch {
			case n > 0:
				d.insertRow(pred, w)
			case n < 0:
				d.deleteRow(pred, w)
			}
		})
	}
	return nil
}

// incComponent is one evaluation component with its compiled plans.
type incComponent struct {
	Component
	plans []*rulePlan
}

// Incremental maintains a program's fixpoint across base-relation change
// batches. The database handed to NewIncremental becomes the maintained
// state: base relations are mutated by the caller (reporting realized
// changes through Apply), derived relations belong to the evaluator.
type Incremental struct {
	prog   *Program
	db     *Database
	comps  []incComponent
	idb    map[string]bool
	broken bool
	rounds roundBufs
	// forceRecompute disables the DRed path, restoring the historical
	// recompute-and-diff fallback for recursive deletions — kept as the
	// baseline the delete-heavy benchmarks and tests compare against.
	forceRecompute bool
}

// newIncrementalCore compiles p and classifies its evaluation components
// without touching db — the shared front half of NewIncremental (which then
// seeds the fixpoint) and RestoreIncremental (which adopts a persisted one).
func newIncrementalCore(p *Program, db *Database) (*Incremental, error) {
	if err := p.Prepare(); err != nil {
		return nil, err
	}
	inc := &Incremental{prog: p, db: db, idb: p.idbPreds()}
	for _, plans := range p.prep.strata {
		inc.comps = append(inc.comps, incComponent{Component: classify(plans), plans: plans})
	}
	return inc, nil
}

// NewIncremental compiles p, classifies its evaluation components, and
// seeds the fixpoint (with derivation counts where counting applies) into
// db. Derived relations must not contain base tuples.
func NewIncremental(p *Program, db *Database) (*Incremental, error) {
	inc, err := newIncrementalCore(p, db)
	if err != nil {
		return nil, err
	}
	for pred := range inc.idb {
		if r := db.Get(pred); r != nil && r.Len() > 0 {
			return nil, fmt.Errorf("datalog: incremental: relation %s is derived by rules but already holds base tuples", pred)
		}
	}
	preExisting := map[string]bool{}
	for pred := range inc.idb {
		if db.Get(pred) != nil {
			preExisting[pred] = true
		}
	}
	for i := range inc.comps {
		if err := inc.seed(&inc.comps[i]); err != nil {
			// Roll the partial materialization back: earlier components
			// already seeded their fixpoints into db, and leaving them
			// behind would serve the caller stale derived tuples as base
			// facts. Relations seeding itself registered are deregistered
			// (a retry may use a different arity); pre-existing ones were
			// verified empty above, so clearing restores the pre-call
			// state exactly.
			for pred := range inc.idb {
				if !preExisting[pred] {
					db.remove(pred)
				} else if rel := db.Get(pred); rel != nil {
					rel.Clear()
				}
			}
			return nil, err
		}
	}
	return inc, nil
}

// DB returns the maintained database: base relations plus the current
// fixpoint of every derived relation.
func (inc *Incremental) DB() *Database { return inc.db }

// Broken reports whether an earlier Apply failed past the validation phase,
// leaving the maintained fixpoint inconsistent. A rejected delta that was
// caught pre-mutation (ErrInconsistentDelta with zero realized changes) does
// NOT break the evaluator — callers distinguish a droppable bad tick from a
// poisoned evaluator with this.
func (inc *Incremental) Broken() bool { return inc.broken }

// seed computes a component's initial fixpoint. Counting components
// enumerate every derivation exactly once (the full join order emits one
// head per body binding); the rest run the normal component fixpoint.
func (inc *Incremental) seed(c *incComponent) error {
	ensureHeadsPlanned(inc.db, c.plans)
	if c.Recursive || c.NonMono {
		_, err := evalStratumSemiNaive(inc.db, c.plans, &inc.rounds)
		return err
	}
	for _, pl := range c.plans {
		rel := inc.db.Get(pl.r.Head.Pred)
		pl.run(inc.db, nil, func(w []uint64) { rel.addCount(w, 1) })
	}
	return nil
}

// Apply folds one batch of base-relation changes — already applied to the
// database by the caller — into the maintained fixpoint. It returns the
// number of derived-relation set changes realized. On error the evaluator
// is marked broken (its state may be inconsistent) and refuses further use.
//
// Touched components are processed in strata order (topological: a
// component only reads heads of earlier ones); each reads its input changes
// from the batch and appends its realized head changes to it, so later
// components see the cascade.
func (inc *Incremental) Apply(d *Delta) (int, error) {
	if inc.broken {
		return 0, fmt.Errorf("datalog: incremental evaluator unusable after earlier error")
	}
	if err := d.encode(inc.db); err != nil {
		return 0, err // pre-mutation, like every rejection below
	}
	for _, pred := range d.preds {
		if inc.idb[pred] && (d.add[pred].len() > 0 || d.del[pred].len() > 0) {
			// Nothing has been mutated yet: the prior fixpoint is intact, so
			// the evaluator stays usable and the caller can drop the tick.
			return 0, fmt.Errorf("%w: derived relation %s was mutated as a base relation", ErrInconsistentDelta, pred)
		}
	}
	if err := inc.validateDelta(d); err != nil {
		return 0, err // pre-mutation: prior fixpoint intact, evaluator usable
	}
	changes := 0
	for i := range inc.comps {
		c := &inc.comps[i]
		add, del := c.touchedBy(d)
		if !add && !del {
			continue
		}
		n, err := inc.applyComponent(c, d, del)
		if err != nil {
			// A consistency error raised before any component realized
			// a change is pre-mutation by construction (each strategy
			// validates before committing): the fixpoint is intact and
			// the evaluator stays usable. Past that point the batch is
			// half-applied and the evaluator must refuse further use.
			if errors.Is(err, ErrInconsistentDelta) && changes == 0 {
				return 0, err
			}
			inc.broken = true
			return changes, err
		}
		changes += n
	}
	return changes, nil
}

// validateDelta cross-checks a normalized batch against the database the
// caller claims to have applied it to: every recorded insert must be
// present and every recorded delete absent. It catches the realistic
// corruption classes — a caller that recorded changes without applying
// them, or applied them twice — before any maintenance state is touched.
// (A caller that re-reports an unchanged tuple as "realized" is
// undetectable here; the counting components catch that class when the
// derivation counts would cross below zero, also before mutating.)
func (inc *Incremental) validateDelta(d *Delta) error {
	for _, pred := range d.preds {
		rel := inc.db.Get(pred)
		for l, i := d.add[pred], 0; i < l.len(); i++ {
			if rel == nil || rel.findRow(l.row(i)) < 0 {
				return fmt.Errorf("%w: recorded insert %s%v is not present in the base relation", ErrInconsistentDelta, pred, inc.db.dictionary().tuple(l.row(i)))
			}
		}
		for l, i := d.del[pred], 0; i < l.len(); i++ {
			if rel != nil && rel.findRow(l.row(i)) >= 0 {
				return fmt.Errorf("%w: recorded delete %s%v is still present in the base relation", ErrInconsistentDelta, pred, inc.db.dictionary().tuple(l.row(i)))
			}
		}
	}
	return nil
}

// touchedBy reports whether the batch changes any of the component's inputs.
func (c *incComponent) touchedBy(d *Delta) (hasAdd, hasDel bool) {
	for _, in := range c.Inputs {
		if d.add[in].len() > 0 {
			hasAdd = true
		}
		if d.del[in].len() > 0 {
			hasDel = true
		}
	}
	return hasAdd, hasDel
}

// dredReady reports whether every rule in the component carries a compiled
// support plan (always true for recursive monotone components; defensive).
func (c *incComponent) dredReady() bool {
	for _, pl := range c.plans {
		if pl.support == nil {
			return false
		}
	}
	return true
}

// applyComponent folds the batch into one component with the maintenance
// strategy its class calls for, reading input changes from d and recording
// realized head changes into it. hasDel says whether d deletes from any of
// the component's inputs.
func (inc *Incremental) applyComponent(c *incComponent, d *Delta, hasDel bool) (int, error) {
	switch {
	case c.NonMono:
		return inc.recompute(c, d)
	case !c.Recursive:
		return inc.applyCounting(c, d)
	case hasDel:
		if inc.forceRecompute || !c.dredReady() {
			return inc.recompute(c, d)
		}
		return inc.applyDRed(c, d), nil
	default:
		return inc.propagateInserts(c, d, d.insertRow), nil
	}
}

// applyCounting maintains a non-recursive monotone component exactly: each
// (rule, body position) drives the batch's additions (+1) and removals (−1)
// on that literal through the delta-first plan under the counting view, the
// signed derivation counts accumulate per head tuple, and zero crossings
// realize set-level changes (which extend the delta for downstream
// components). The commit is two-phase: the accumulated deltas are
// validated against the maintained counts first (a crossing below zero means
// the batch contradicts retained state), so an inconsistent tick surfaces as
// ErrInconsistentDelta before the component mutates anything.
func (inc *Incremental) applyCounting(c *incComponent, d *Delta) (int, error) {
	view := preBatch{
		over:       inc.deltaRelations(c.Inputs, d.del),
		hide:       inc.deltaRelations(c.Inputs, d.add),
		positional: true,
	}
	acc := inc.db.Scratch() // per head, the batch's signed count changes in first-derived order
	for _, pl := range c.plans {
		a := acc.Ensure(pl.r.Head.Pred, len(pl.r.Head.Args))
		gained := func(w []uint64) { a.addCount(w, 1) }
		lost := func(w []uint64) { a.addCount(w, -1) }
		for i, l := range pl.r.Body {
			pl.runSegmented(inc.db, i, d.add[l.Pred], view, gained)
			pl.runSegmented(inc.db, i, d.del[l.Pred], view, lost)
		}
	}
	// Phase 1: validate every prospective count against the maintained
	// state without mutating — a crossing below zero means the delta claims
	// to retract derivations the component never recorded.
	var err error
	for _, h := range c.Heads {
		rel := inc.db.Get(h)
		acc.Get(h).scanCountRows(func(w []uint64, n int) {
			if err == nil && rel.count(w)+n < 0 {
				err = fmt.Errorf("%w: derivation count for %s%v would fall below zero", ErrInconsistentDelta, h, rel.dict.tuple(w))
			}
		})
	}
	if err != nil {
		return 0, err
	}
	// Phase 2: commit.
	changes := 0
	for _, h := range c.Heads {
		rel := inc.db.Get(h)
		acc.Get(h).scanCountRows(func(w []uint64, n int) {
			if n == 0 {
				return
			}
			switch old, now := rel.addCount(w, n); {
			case old == 0:
				d.insertRow(h, w)
				changes++
			case now == 0:
				rel.deleteRow(w) // keeps maintained counts bounded by the live fixpoint
				d.deleteRow(h, w)
				changes++
			}
		})
	}
	return changes, nil
}

// roundBufs is the word storage a sequence of semi-naive rounds reuses —
// across rounds and, on an Incremental, across ticks: one drive's emitted
// head rows, and per head predicate the rows accepted in the previous and
// in the current round.
type roundBufs struct {
	emitted   rowList
	cur, next map[string]*rowList
}

// driveRounds is the shared semi-naive round skeleton behind evaluation,
// insert propagation and both DRed phases: each round drives every
// non-aggregate plan's positive body literals from the per-predicate delta
// rows — seed in the first round, the rows accepted in the previous round
// after it — the other literals also reading the pre-batch overlay when
// over is non-nil, and accept decides, per emitted head row, whether the
// row's consequence was realized and should drive the next round. A drive's
// emissions are buffered and reach accept after it returns, so accept may
// freely mutate relations and the overlay. Rounds repeat until no row is
// accepted.
func (b *roundBufs) driveRounds(db *Database, plans []*rulePlan, seed map[string]*rowList,
	over *Database, accept func(h string, rel *Relation, w []uint64) bool) {
	if b.cur == nil {
		b.cur, b.next = map[string]*rowList{}, map[string]*rowList{}
	}
	view := preBatch{over: over}
	for delta := seed; ; delta = b.cur {
		accepted := false
		for _, pl := range plans {
			if pl.r.Agg != "" {
				continue
			}
			h := pl.r.Head.Pred
			rel := db.Get(h)
			nd := rowsOf(b.next, h, rel.Arity)
			for i, l := range pl.r.Body {
				if l.Negated || delta[l.Pred].len() == 0 {
					continue
				}
				b.emitted.reset(rel.Arity)
				pl.runSegmented(db, i, delta[l.Pred], view, b.emitted.add)
				_ = rel.touch(&b.emitted)
				for k, n := 0, b.emitted.len(); k < n; k++ {
					if w := b.emitted.row(k); accept(h, rel, w) {
						nd.add(w)
						accepted = true
					}
				}
			}
		}
		b.cur, b.next = b.next, b.cur
		for _, l := range b.next {
			l.w = l.w[:0]
		}
		if !accepted {
			return
		}
	}
}

// seedRows selects the given predicates' non-empty lists: a driveRounds
// seed is restricted to a component's inputs, so that a recursive literal
// does not also read the head changes the rounds themselves record.
func seedRows(preds []string, lists map[string]*rowList) map[string]*rowList {
	seed := map[string]*rowList{}
	for _, pred := range preds {
		if l := lists[pred]; l.len() > 0 {
			seed[pred] = l
		}
	}
	return seed
}

// deltaRelations wraps the given predicates' non-empty lists as a scratch
// database of relations that hash and index themselves only if probed — a
// pre-batch view (preBatch) is joined against.
func (inc *Incremental) deltaRelations(preds []string, lists map[string]*rowList) *Database {
	view := inc.db.Scratch()
	for pred, l := range seedRows(preds, lists) {
		view.rels[pred] = adoptRows(view.dict, pred, l.arity, l.w)
	}
	return view
}

// propagateInserts folds an insert-only delta into a recursive monotone
// component with the compiled semi-naive plans: the incoming additions seed
// the rounds, and newly realized head rows keep driving the delta-first
// join orders until quiescence. Every realized insert is handed to record
// (the pure-insert path records straight into the batch; DRed defers
// recording to net insertions against its over-deletions).
func (inc *Incremental) propagateInserts(c *incComponent, in *Delta, record func(pred string, w []uint64)) int {
	ensureHeadsPlanned(inc.db, c.plans)
	changes := 0
	inc.rounds.driveRounds(inc.db, c.plans, seedRows(c.Inputs, in.add), nil,
		func(h string, rel *Relation, w []uint64) bool {
			if !rel.insertRow(w) {
				return false
			}
			record(h, w)
			changes++
			return true
		})
	return changes
}

// recompute is the fallback for components with negation or aggregates
// (any input change): clear the component's derived relations in place,
// re-run its fixpoint from the current inputs, and diff old against new so
// downstream components still receive a precise delta. (It was also the
// pre-DRed fallback for recursive deletions, retained behind
// forceRecompute as the benchmark baseline.)
func (inc *Incremental) recompute(c *incComponent, out *Delta) (int, error) {
	ensureHeadsPlanned(inc.db, c.plans)
	old := map[string][]Tuple{}
	for _, h := range c.Heads {
		rel := inc.db.Get(h)
		old[h] = rel.Tuples()
		rel.Clear() // in place: the *Relation stays valid for holders of the pointer
	}
	if _, err := evalStratumSemiNaive(inc.db, c.plans, &inc.rounds); err != nil {
		return 0, err
	}
	changes := 0
	dict := inc.db.dictionary()
	var buf [8]uint64
	for _, h := range c.Heads {
		newT := inc.db.Get(h).Tuples() // sorted, as is old[h]
		oldT := old[h]
		i, j := 0, 0
		for i < len(oldT) || j < len(newT) {
			switch {
			case i < len(oldT) && j < len(newT) && oldT[i].Equal(newT[j]):
				i++
				j++
			case j >= len(newT) || (i < len(oldT) && tupleLess(oldT[i], newT[j])):
				out.deleteRow(h, dict.encodeRow(buf[:0], oldT[i]))
				changes++
				i++
			default:
				out.insertRow(h, dict.encodeRow(buf[:0], newT[j]))
				changes++
				j++
			}
		}
	}
	return changes, nil
}
