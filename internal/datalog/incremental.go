package datalog

import (
	"errors"
	"fmt"
)

// ErrInconsistentDelta reports a change batch that contradicts the
// database it claims to describe: an insert whose tuple is not in the base
// relation, a delete still present, a tuple of the wrong arity, or a write
// to a derived relation. Apply returns it (wrapped with detail) before
// changing anything, so a serving loop can reject the bad tick and keep
// running.
var ErrInconsistentDelta = errors.New("datalog: delta inconsistent with retained state")

// This file is the cross-tick incremental evaluator: instead of re-running
// the fixpoint from a fresh snapshot on every transducer tick (O(database)
// per tick), an Incremental retains the fixpoint in its database and folds
// in each tick's base-relation delta (O(delta) amortized on monotone
// workloads), one evaluation component (a strongly connected component of
// the head-dependency graph, see plan.go) at a time, with the strategy
// tick.go's switch picks: semi-naive insert rounds, preceded by DRed
// (dred.go) when the batch deletes, for monotone components, recursive or
// not, and recompute-and-diff for components with negation or aggregates.

// Delta is a batch of realized set-level changes to base relations: every
// recorded insert/delete must have actually changed membership, in the
// order it was applied. Apply encodes the batch, nets out insert/delete
// churn on the same tuple, and extends the encoded form with the
// derived-relation changes it realizes, so downstream components see the
// full cascade.
type Delta struct {
	// ops is the batch in exact application order: what a write-ahead
	// changelog journals and what a caller undoes after a rejection.
	ops []DeltaOp

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
		op.Del = !op.Del
		db.realize(op)
	}
}

// realize applies op, reporting whether it changed membership.
func (db *Database) realize(op DeltaOp) bool {
	if op.Del {
		rel := db.Get(op.Pred)
		return rel != nil && rel.Delete(op.T)
	}
	return db.Ensure(op.Pred, len(op.T)).Insert(op.T)
}

// NewDelta returns an empty change batch.
func NewDelta() *Delta { return &Delta{} }

// Ops returns the recorded base changes in exact application order. The
// slice is owned by the Delta: callers must not mutate it. The derived
// cascade Apply realizes is not among them.
func (d *Delta) Ops() []DeltaOp { return d.ops }

// Insert records that t was inserted into rel (and was not present before).
func (d *Delta) Insert(rel string, t Tuple) { d.ops = append(d.ops, DeltaOp{Pred: rel, T: t}) }

// Delete records that t was deleted from rel (and was present before).
func (d *Delta) Delete(rel string, t Tuple) {
	d.ops = append(d.ops, DeltaOp{Del: true, Pred: rel, T: t})
}

// Empty reports whether the batch contains no changes.
func (d *Delta) Empty() bool { return len(d.ops) == 0 }

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

// encode builds the working form from the recorded ops in db's dictionary,
// grouped per predicate, and returns the predicates in first-touch order.
// It nets out same-tuple churn (insert→delete→insert within one batch) so
// that at most one change per tuple is left, on one side — the precondition
// for old-view reconstruction (preBatch).
func (d *Delta) encode(db *Database) ([]string, error) {
	dict := db.dict
	d.add, d.del = map[string]*rowList{}, map[string]*rowList{}
	var preds []string
	for _, op := range d.ops {
		l, other := d.add, d.del
		if op.Del {
			l, other = other, l
		}
		rows := l[op.Pred]
		if rows == nil {
			arity := len(op.T)
			if rel := db.Get(op.Pred); rel != nil {
				arity = rel.Arity
			} else if o := other[op.Pred]; o != nil {
				arity = o.arity
			}
			if other[op.Pred] == nil {
				preds = append(preds, op.Pred)
			}
			rows = rowsOf(l, op.Pred, arity)
		}
		if len(op.T) != rows.arity {
			return nil, fmt.Errorf("%w: %s%v does not have the relation's arity %d", ErrInconsistentDelta, op.Pred, op.T, rows.arity)
		}
		rows.addTuple(dict, op.T)
	}
	for _, pred := range preds {
		add, del := d.add[pred], d.del[pred]
		if add.len() == 0 || del.len() == 0 {
			continue // realized changes on one side cannot repeat a tuple
		}
		// Replay pred's ops in order: an op cancels the opposite pending
		// one, or else becomes pending itself.
		ins, rm := newRelation(dict, pred, add.arity), newRelation(dict, pred, add.arity)
		i, j := 0, 0
		for _, op := range d.ops {
			switch {
			case op.Pred != pred:
			case op.Del:
				if w := del.row(j); !ins.deleteRow(w) {
					rm.insertRow(w)
				}
				j++
			default:
				if w := add.row(i); !rm.deleteRow(w) {
					ins.insertRow(w)
				}
				i++
			}
		}
		add.reset(add.arity)
		del.reset(del.arity)
		ins.scanRows(add.add)
		rm.scanRows(del.add)
	}
	return preds, nil
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
	rounds roundBufs
	// undo is the running Tick's undo log, reused across ticks like rounds.
	undo rowLog
	// forceRecompute disables the DRed path, restoring the historical
	// recompute-and-diff fallback for recursive deletions — kept as the
	// baseline the delete-heavy benchmarks and tests compare against.
	forceRecompute bool
}

// newIncrementalCore registers p's relations in db (checking their
// arities first) and classifies p's evaluation components — the shared
// front half of NewIncremental (which then seeds the fixpoint) and
// RestoreIncremental (which adopts a persisted one). It returns the names
// it registered, for a failed constructor to remove.
func newIncrementalCore(p *Program, db *Database) (*Incremental, []string, error) {
	added, err := p.register(db)
	if err != nil {
		return nil, nil, err
	}
	inc := &Incremental{prog: p, db: db, idb: map[string]bool{}}
	for _, plans := range p.strata {
		c := incComponent{Component: classify(plans), plans: plans}
		for _, h := range c.Heads {
			inc.idb[h] = true
		}
		inc.comps = append(inc.comps, c)
	}
	return inc, added, nil
}

// NewIncremental registers p's relations in db and seeds the fixpoint into
// it. Derived relations must not contain base tuples.
func NewIncremental(p *Program, db *Database) (*Incremental, error) {
	for _, r := range p.Rules {
		if rel := db.Get(r.Head.Pred); rel != nil && rel.Len() > 0 {
			return nil, fmt.Errorf("datalog: incremental: relation %s is derived by rules but already holds base tuples", r.Head.Pred)
		}
	}
	inc, added, err := newIncrementalCore(p, db)
	if err != nil {
		return nil, err
	}
	for i := range inc.comps {
		if err := inc.seed(&inc.comps[i]); err != nil {
			// Roll the partial materialization back: earlier components
			// already seeded their fixpoints into db, and leaving them
			// behind would serve the caller stale derived tuples as base
			// facts. Derived relations were verified empty above, so
			// clearing them and removing what was registered restores the
			// pre-call state exactly.
			for pred := range inc.idb {
				db.Get(pred).Clear()
			}
			for _, name := range added {
				delete(db.rels, name)
			}
			return nil, err
		}
	}
	return inc, nil
}

// DB returns the maintained database: base relations plus the current
// fixpoint of every derived relation.
func (inc *Incremental) DB() *Database { return inc.db }

// seed computes a component's initial fixpoint.
func (inc *Incremental) seed(c *incComponent) error {
	_, err := evalStratumSemiNaive(inc.db, c.plans, &inc.rounds)
	return err
}

// Apply folds one batch of base-relation changes — already applied to the
// database by the caller — into the maintained fixpoint. It returns the
// number of derived-relation set changes realized. A failed Apply rolls
// back through the Tick's undo log: every derived row is as it was before
// the batch, and the evaluator stays usable. The base ops are the caller's
// to undo (Database.Undo), as it applied them.
//
// Touched components are processed in strata order (topological: a
// component only reads heads of earlier ones); each reads its input changes
// from the batch and appends its realized head changes to it, so later
// components see the cascade.
func (inc *Incremental) Apply(d *Delta) (int, error) {
	t, err := inc.begin(d)
	if err != nil {
		return 0, err
	}
	for ci := range inc.comps {
		add, del := t.Touched(ci)
		if !add && !del {
			continue
		}
		t.Start(ci, del)
		if err := t.run(); err != nil {
			t.rollback()
			return 0, err
		}
	}
	t.close()
	return t.changes, nil
}

// run steps the component in progress to its end with every emission
// accepted on the spot: Apply's round loop.
func (t *Tick) run() error {
	accept := t.accept
	for quiet := false; ; {
		if err := t.drive(quiet, accept); err != nil {
			return err
		}
		if quiet = t.settle() == 0; quiet && t.last() {
			return nil
		}
	}
}

// validateDelta cross-checks a normalized batch, touching preds, against
// the database the caller claims to have applied it to: no derived relation
// changed, every recorded insert is present and every recorded delete
// absent. It catches the realistic corruption classes — a caller that
// recorded changes without applying them, or applied them twice — before
// any maintenance state is touched. A caller that re-reports an unchanged
// tuple as realized passes these checks, and needs no rejection: an insert
// reported twice is inserted once, and a delete of a tuple that was never
// there over-deletes what it would have supported, all of which DRed
// re-derives.
func (inc *Incremental) validateDelta(d *Delta, preds []string) error {
	for _, pred := range preds {
		if inc.idb[pred] && (d.add[pred].len() > 0 || d.del[pred].len() > 0) {
			return fmt.Errorf("%w: derived relation %s was mutated as a base relation", ErrInconsistentDelta, pred)
		}
		rel := inc.db.Get(pred)
		for l, i := d.add[pred], 0; i < l.len(); i++ {
			if rel == nil || rel.findRow(l.row(i)) < 0 {
				return fmt.Errorf("%w: recorded insert %s%v is not present in the base relation", ErrInconsistentDelta, pred, inc.db.dict.tuple(l.row(i)))
			}
		}
		for l, i := d.del[pred], 0; i < l.len(); i++ {
			if rel != nil && rel.findRow(l.row(i)) >= 0 {
				return fmt.Errorf("%w: recorded delete %s%v is still present in the base relation", ErrInconsistentDelta, pred, inc.db.dict.tuple(l.row(i)))
			}
		}
	}
	return nil
}

// roundBufs is the word storage a sequence of semi-naive rounds reuses —
// across rounds and, on an Incremental, across ticks: one drive's emitted
// head rows, and per head predicate the rows accepted in the previous and
// in the current round.
type roundBufs struct {
	emitted   rowList
	cur, next map[string]*rowList
}

// driveOnce is one semi-naive round over plans: each non-aggregate plan's
// positive body literals are driven from the per-predicate frontier rows —
// those filter keeps, when it is non-nil — the other literals read under
// view, and every row a drive emits reaches emit, with multiplicity n,
// after the drive returns, so emit may mutate relations and the view.
func (b *roundBufs) driveOnce(db *Database, plans []*rulePlan, frontier map[string]*rowList, view preBatch,
	filter func(ri int, l *rowList) *rowList, n int, emit func(rel *Relation, w []uint64, n int)) {
	for ri, pl := range plans {
		if pl.r.Agg != "" {
			continue
		}
		rel := db.Get(pl.r.Head.Pred)
		for i, l := range pl.r.Body {
			rows := frontier[l.Pred]
			if filter != nil {
				rows = filter(ri, rows)
			}
			if l.Negated || rows.len() == 0 {
				continue
			}
			b.emitted.reset(rel.Arity)
			pl.runSegmented(db, i, rows, view, b.emitted.add)
			_ = rel.touch(&b.emitted)
			for k, m := 0, b.emitted.len(); k < m; k++ {
				emit(rel, b.emitted.row(k), n)
			}
		}
	}
}

// rotate makes the rows accepted in the last round the next frontier and
// empties the lists the coming round accepts into.
func (b *roundBufs) rotate() {
	if b.cur == nil {
		b.cur, b.next = map[string]*rowList{}, map[string]*rowList{}
	}
	b.cur, b.next = b.next, b.cur
	for _, l := range b.next {
		l.w = l.w[:0]
	}
}

// deltaRelations wraps the given predicates' non-empty lists as a scratch
// database of relations, membership built and column indexes built on
// first probe — a pre-batch view (preBatch) is joined against.
func (inc *Incremental) deltaRelations(preds []string, lists map[string]*rowList) *Database {
	view := inc.db.Scratch()
	for _, pred := range preds {
		if l := lists[pred]; l.len() > 0 {
			view.rels[pred] = adoptRows(view.dict, pred, l.arity, l.w)
		}
	}
	return view
}
