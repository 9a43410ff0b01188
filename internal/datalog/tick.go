package datalog

// This file is the one maintenance engine. A Tick folds a batch into the
// fixpoint component by component, each in rounds: a round drives the
// frontier through the compiled plans and emits head rows with a sign; the
// next round drives the emitted rows that were accepted.
// Incremental.Apply accepts every emission on the spot; a shard replica
// (internal/shard) ships each to its owner and accepts at a barrier.

// phase is where a component's maintenance stands; strategy picks the first.
type phase int

const (
	recomputePhase phase = iota // negation or aggregates: re-evaluate and diff, nothing to exchange
	insertPhase                 // semi-naive rounds: insert if absent
	overPhase                   // DRed over-delete rounds; then every replica checks every candidate
)

// strategy is the one switch from component c's class, and whether the
// batch deletes from its inputs, to its maintenance, for both callers: a
// monotone component, recursive or not, runs semi-naive insert rounds, and
// DRed first when the batch deletes. forceRecompute keeps
// recompute-and-diff as DRed's test baseline.
func (inc *Incremental) strategy(c *incComponent, hasDel bool) phase {
	switch {
	case c.NonMono:
		return recomputePhase
	case !hasDel:
		return insertPhase
	case inc.forceRecompute:
		return recomputePhase
	}
	return overPhase
}

// Change is one row a round emits or a replica accepts: N is +1 for an
// insertion, −1 for an over-deletion, or 0 for a DRed candidate every
// replica checks. It is a sign, never a count: a round emits a row once
// however many rules or frontier rows derive it.
type Change struct {
	Pred string
	T    Tuple
	N    int
}

// Site is what one shard replica (internal/shard) holds of a program
// sharded across replicas. Apply runs with the zero Site: a single node
// holds everything.
type Site struct {
	Mine  func(Tuple) bool       // this replica is the row's designated driver; nil: it is every row's
	Whole func(pred string) bool // this replica holds every row of pred
}

// Tick is one batch's maintenance in progress. A caller stepping it
// (Begin) runs, per component, Touched, Start, then Round and Accept until
// a quiet round ends it; Abort rolls the whole batch back.
type Tick struct {
	inc     *Incremental
	d       *Delta
	site    Site
	changes int // realized derived-relation set changes

	// The component in progress.
	c     *incComponent
	phase phase
	over  *Database // DRed: removed inputs, and per head the over-deleted candidates
	check rowLog    // DRed: the candidates every replica over-deleted
}

// Begin starts folding d — base changes applied to the database — into the
// fixpoint a round at a time, on the replica site describes.
func (inc *Incremental) Begin(d *Delta, site Site) (*Tick, error) {
	t, err := inc.begin(d)
	if err == nil {
		t.site = site
	}
	return t, err
}

// maxKeptUndo bounds, in rows, the undo log a tick leaves for the next one
// to reuse: the log of a burst (a bulk load, two large components joining)
// is dropped rather than pinned for the evaluator's life. It sits above the
// largest serving tick of the bench workloads (about 10 000 rows, in
// covid-grow) and below covid-read's preload (96 000 rows in one tick).
const maxKeptUndo = 1 << 14

// begin encodes and validates the batch and empties the undo log; its
// rejections are pre-mutation.
func (inc *Incremental) begin(d *Delta) (*Tick, error) {
	preds, err := d.encode(inc.db)
	if err == nil {
		err = inc.validateDelta(d, preds)
	}
	if err != nil {
		return nil, err
	}
	if cap(inc.undo.n) > maxKeptUndo {
		inc.undo = rowLog{}
	}
	inc.undo.reset()
	return &Tick{inc: inc, d: d}, nil
}

// Touched ends the component in progress and reports whether the batch —
// its base changes and the head changes realized so far — adds to or
// deletes from component ci's inputs.
func (t *Tick) Touched(ci int) (add, del bool) {
	t.close()
	for _, in := range t.inc.comps[ci].Inputs {
		add, del = add || t.d.add[in].len() > 0, del || t.d.del[in].len() > 0
	}
	return add, del
}

// Start begins component ci; hasDel says the batch deletes from its inputs
// on any replica.
func (t *Tick) Start(ci int, hasDel bool) {
	t.close()
	db, c, b := t.inc.db, &t.inc.comps[ci], &t.inc.rounds
	t.c = c
	t.phase = t.inc.strategy(c, hasDel)
	b.rotate() // an aborted tick may have left rows for a next round
	switch t.phase {
	case insertPhase:
		t.load(b.next, t.d.add)
	case overPhase:
		t.load(b.next, t.d.del)
		t.over = t.inc.deltaRelations(c.Inputs, t.d.del)
		for _, h := range c.Heads {
			t.over.Ensure(h, db.Get(h).Arity)
		}
	}
}

// last reports whether a quiet round — nothing left to drive on any
// replica — ends the component.
func (t *Tick) last() bool { return t.phase != overPhase }

// Round drives one round and hands emit each change, each row once; quiet
// says the previous round left nothing to drive anywhere. It reports
// whether a quiet round would now end the component.
func (t *Tick) Round(quiet bool, emit func(Change)) (last bool, err error) {
	dict := t.inc.db.dict
	out := t.inc.db.Scratch()
	sign := 0 // every row a round emits with a sign has the same one
	err = t.drive(quiet, func(rel *Relation, w []uint64, n int) {
		if n == 0 {
			emit(Change{Pred: rel.Name, T: dict.tuple(w)})
			return
		}
		sign = n
		out.Ensure(rel.Name, rel.Arity).insertRow(w)
	})
	for _, h := range out.Names() {
		rel, whole := t.inc.db.Get(h), t.whole(h)
		out.Get(h).scanRows(func(w []uint64) {
			// A change ships unless its owner already holds it: a row held
			// here is held by its owner, and a whole relation's deleted row
			// is deleted everywhere.
			held := rel.findRow(w) >= 0
			if sign > 0 && !held || sign < 0 && (held || !whole) {
				emit(Change{Pred: h, T: dict.tuple(w), N: sign})
			}
		})
	}
	return t.last(), err
}

// Accept folds a round's arrived batches, in order, into the component in
// progress and returns how many accepted rows the next round drives.
func (t *Tick) Accept(batches ...[]Change) (pending int) {
	var buf [8]uint64
	for _, cs := range batches {
		for _, c := range cs {
			t.accept(t.inc.db.Get(c.Pred), t.inc.db.dict.encodeRow(buf[:0], c.T), c.N)
		}
	}
	return t.settle()
}

// settle ends a round's arrivals: it counts the rows the next round drives.
func (t *Tick) settle() (pending int) {
	for _, l := range t.inc.rounds.next {
		pending += l.len()
	}
	return pending
}

// drive is a round's first half: after a quiet round it moves to the next
// phase; it drives the frontier, the rows accepted since the last drive.
func (t *Tick) drive(quiet bool, emit func(rel *Relation, w []uint64, n int)) error {
	db, c, b := t.inc.db, t.c, &t.inc.rounds
	b.rotate()
	frontier := b.cur
	switch t.phase {
	case recomputePhase:
		return t.recompute()
	case overPhase:
		if !quiet {
			// The rows over-deleted last round go out as candidates too,
			// unless every replica over-deleted them itself.
			for _, h := range c.Heads {
				for l, k := frontier[h], 0; !t.whole(h) && k < l.len(); k++ {
					emit(db.Get(h), l.row(k), 0)
				}
			}
			b.driveOnce(db, c.plans, frontier, preBatch{over: t.over}, t.soloRows, -1, emit)
			return nil
		}
		// Over-deletion is done everywhere: the candidates with a derivation
		// left go back in, and the batch's additions start. Discovery order
		// is support-dependency order (§9), so on one node, where a survivor
		// is accepted as it is found, one pass reinstates every directly
		// supported candidate.
		t.phase = insertPhase
		checker := newSupportChecker(db, c)
		for k, off := 0, 0; k < len(t.check.rels); k++ {
			rel := t.check.rels[k]
			if w := t.check.w[off : off+rel.Arity]; checker.rederivable(rel.Name, w) {
				emit(rel, w, 1)
			}
			off += rel.Arity
		}
		t.load(frontier, t.d.add)
		b.driveOnce(db, c.plans, frontier, preBatch{}, t.soloRows, 1, emit)
	default:
		b.driveOnce(db, c.plans, frontier, preBatch{}, t.soloRows, 1, emit)
	}
	return nil
}

// accept is a round's second half, per arrived row.
func (t *Tick) accept(rel *Relation, w []uint64, n int) {
	next := t.inc.rounds.next
	switch t.phase {
	case overPhase:
		if n == 0 {
			t.check.add(rel, w, 0)
		} else if rel.deleteRow(w) {
			t.inc.undo.add(rel, w, -1)
			t.over.Get(rel.Name).insertRow(w)
			rowsOf(next, rel.Name, rel.Arity).add(w)
			if t.whole(rel.Name) {
				t.check.add(rel, w, 0)
			}
		}
	default:
		if !rel.insertRow(w) {
			return
		}
		t.inc.undo.add(rel, w, 1)
		rowsOf(next, rel.Name, rel.Arity).add(w)
		if t.over == nil || t.over.Get(rel.Name).findRow(w) < 0 {
			t.realize(rel, w, 1) // not an over-deleted row coming back
		}
	}
}

// close ends the component in progress: DRed's candidates that no round
// put back are its realized deletions, per head in discovery order.
func (t *Tick) close() {
	if t.over != nil {
		for _, h := range t.c.Heads {
			rel := t.inc.db.Get(h)
			t.over.Get(h).scanRows(func(w []uint64) {
				if rel.findRow(w) < 0 {
					t.realize(rel, w, -1)
				}
			})
		}
	}
	t.c, t.over, t.check = nil, nil, rowLog{}
}

// load adds the batch's changes to the component's inputs, from lists, to
// the frontier rows in dst.
func (t *Tick) load(dst, lists map[string]*rowList) {
	for _, in := range t.c.Inputs {
		if l := lists[in]; l.len() > 0 {
			f := rowsOf(dst, in, l.arity)
			f.w = append(f.w, l.w...)
		}
	}
}

// whole reports whether this replica holds every row of pred.
func (t *Tick) whole(pred string) bool { return t.site.Whole == nil || t.site.Whole(pred) }

// soloRows returns the rows of l that rule ri drives here: all of them,
// unless every replica holds every body literal's relation and so would
// derive the same rows, then those Site.Mine accepts.
func (t *Tick) soloRows(ri int, l *rowList) *rowList {
	if t.site.Mine == nil || l.len() == 0 {
		return l
	}
	for _, lit := range t.c.plans[ri].r.Body {
		if !t.whole(lit.Pred) {
			return l
		}
	}
	out := &rowList{arity: l.arity}
	for k := 0; k < l.len(); k++ {
		if w := l.row(k); t.site.Mine(t.inc.db.dict.tuple(w)) {
			out.add(w)
		}
	}
	return out
}

// recompute re-evaluates a component with negation or aggregates from its
// current inputs — heads cleared in place, so holders of the *Relation stay
// valid — and diffs old against new, so downstream components still get a
// precise delta. A failed evaluation puts the old heads back.
func (t *Tick) recompute() error {
	db, old := t.inc.db, map[string]*Relation{}
	for _, h := range t.c.Heads {
		old[h] = db.Get(h).Clone()
		db.Get(h).Clear()
	}
	_, err := evalStratumSemiNaive(db, t.c.plans, &t.inc.rounds)
	for _, h := range t.c.Heads {
		rel, was := db.Get(h), old[h]
		if err != nil {
			rel.Clear()
			was.scanRows(func(w []uint64) { rel.insertRow(w) })
			continue
		}
		diff := func(from, to *Relation, n int) {
			from.scanRows(func(w []uint64) {
				if to.findRow(w) < 0 {
					t.inc.undo.add(rel, w, n)
					t.realize(rel, w, n)
				}
			})
		}
		diff(was, rel, -1)
		diff(rel, was, 1)
	}
	return err
}

// realize records a realized set change of a head row in the batch, where
// later components read it.
func (t *Tick) realize(rel *Relation, w []uint64, n int) {
	if n > 0 {
		t.d.insertRow(rel.Name, w)
	} else {
		t.d.deleteRow(rel.Name, w)
	}
	t.changes++
}

// rowLog is a sequence of encoded rows of mixed relations, each with a
// sign: row k is a row of rels[k], its words following row k−1's in w. The
// undo log rollback reverses is one — a set insertion (n = 1) or deletion
// (n = −1) — and so are DRed's candidates, in discovery order.
type rowLog struct {
	rels []*Relation
	n    []int
	w    []uint64
}

func (l *rowLog) add(rel *Relation, w []uint64, n int) {
	l.rels, l.n, l.w = append(l.rels, rel), append(l.n, n), append(l.w, w...)
}

func (l *rowLog) reset() { l.rels, l.n, l.w = l.rels[:0], l.n[:0], l.w[:0] }

// Abort rolls the batch back — its derived changes (rollback), then the
// batch's recorded base ops — so the database holds what it held before
// the batch.
func (t *Tick) Abort() {
	t.rollback()
	t.inc.db.Undo(t.d.Ops())
}

// rollback reverses every change the Tick made to a maintained relation,
// newest first, from the undo log.
func (t *Tick) rollback() {
	u, end := &t.inc.undo, len(t.inc.undo.w)
	for i := len(u.rels) - 1; i >= 0; i-- {
		rel, n := u.rels[i], u.n[i]
		w := u.w[end-rel.Arity : end]
		end -= rel.Arity
		if n > 0 {
			rel.deleteRow(w)
		} else {
			rel.insertRow(w)
		}
	}
}
