package datalog

import "slices"

// This file is the one maintenance engine. A Tick folds a batch into the
// fixpoint component by component, each in rounds: a round drives the
// frontier through the compiled plans and emits head rows with a sign; the
// next round drives the emitted rows that were accepted.
// Incremental.Apply accepts every emission on the spot; a shard replica
// (internal/shard) ships a round's rows as a Batch of words to their owners
// and accepts at a barrier, except in a local component, which it runs as
// Apply does.

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

// Site is what one shard replica (internal/shard) holds of a program
// sharded across replicas. Apply runs with the zero Site: a single node
// holds everything. Owner computes: of the rows of a rule whose body it
// holds whole, a replica keeps those Owner gives it (every replica: −1).
type Site struct {
	// A row's words w are resolved through vals (Word).
	Owner func(pred string, w []uint64, vals []any) int // the replica pred's row w ships to; −1: every replica
	Whole func(pred string) bool                        // this replica holds every row of pred
	Self  int                                           // this replica, as Owner numbers it
	// Local holds, per component in Components order, whether every
	// derivation of a head row lies on the row's owner: such a component
	// runs here alone (Tick.Local), with no round. nil: none is.
	Local []bool
}

// Tick is one batch's maintenance in progress. A caller stepping it
// (Begin) asks Next which component to start, runs the local components
// before it (Local), then Start, and Round and Accept until a quiet round
// ends it, and asks Next again, running the last local components before it
// stops; Abort rolls the whole batch back.
type Tick struct {
	inc     *Incremental
	d       *Delta
	site    Site
	changes int // realized derived-relation set changes

	ran int // the local components below it have run (Local)

	// The component in progress.
	c         *incComponent
	wholeBody []bool // per rule: Site.Owner is set and this replica holds its whole body
	phase     phase
	over      *Database      // DRed: removed inputs, and per head the over-deleted candidates
	gone      map[string]int // DRed: per head, the over-deleted rows no round has put back
	check     rowLog         // DRed: the candidates every replica over-deleted
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

// Next reports the first component from ci that exchanges (is not
// Site.Local) and that the batch touches, and whether the batch deletes from
// its inputs; len(components) when there is none. The batch changes a
// component's inputs by its base changes, the head changes realized so far,
// the deletions that ending the component in progress realizes, and what a
// touched local component from ci, not yet run, may do to its heads: add
// rows if its inputs gain some, delete if they lose some, and both if it is
// non-monotone.
func (t *Tick) Next(ci int) (int, bool) {
	may := t.inc.may
	clear(may)
	for ; ci < len(t.inc.comps); ci++ {
		c := &t.inc.comps[ci]
		if add, del := t.touches(ci, may); !t.isLocal(ci) && (add || del) {
			return ci, del
		} else if add || del {
			for _, h := range c.Heads {
				may[h] = [2]bool{add || c.NonMono, del || c.NonMono}
			}
		}
	}
	return ci, false
}

// touches reports whether the batch changes component ci's inputs, and
// whether it deletes from them, with may's guesses (per head: add, delete).
func (t *Tick) touches(ci int, may map[string][2]bool) (add, del bool) {
	for _, in := range t.inc.comps[ci].Inputs {
		add = add || t.d.add[in].len() > 0 || may[in][0]
		del = del || t.d.del[in].len() > 0 || t.gone[in] > 0 || may[in][1]
	}
	return add, del
}

func (t *Tick) isLocal(ci int) bool { return ci < len(t.site.Local) && t.site.Local[ci] }

// Local runs each local component below ci that has not run and that the
// batch touches to its fixpoint here, with Apply's loop: no round, no
// shipped row, and DRed's candidates checked here.
func (t *Tick) Local(ci int) error {
	for ; t.ran < ci; t.ran++ {
		if add, del := t.touches(t.ran, nil); t.isLocal(t.ran) && (add || del) {
			t.Start(t.ran, del)
			if err := t.run(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Start begins component ci; hasDel says the batch deletes from its inputs
// on any replica.
func (t *Tick) Start(ci int, hasDel bool) {
	t.close()
	db, c, b := t.inc.db, &t.inc.comps[ci], &t.inc.rounds
	t.c, t.wholeBody = c, t.wholeBody[:0]
	for _, pl := range c.plans {
		t.wholeBody = append(t.wholeBody, t.site.Owner != nil && !slices.ContainsFunc(pl.r.Body, func(l Literal) bool { return !t.whole(l.Pred) }))
	}
	t.phase = t.inc.strategy(c, hasDel)
	b.rotate() // an aborted tick may have left rows for a next round
	switch t.phase {
	case insertPhase:
		t.load(b.next, t.d.add)
	case overPhase:
		t.load(b.next, t.d.del)
		t.over = t.inc.deltaRelations(c.Inputs, t.d.del)
		t.gone = map[string]int{}
		for _, h := range c.Heads {
			t.over.Ensure(h, db.Get(h).Arity)
		}
	}
}

// last reports whether a quiet round — nothing left to drive on any
// replica — ends the component.
func (t *Tick) last() bool { return t.phase != overPhase }

// maxKeptDedup bounds a head's dedup set, in rows, that Round keeps for the
// next round: in covid-sharded 54 of 4 242 sets exceed it (mean 210 rows).
const maxKeptDedup = 1 << 11

// Round drives one round and writes what it emits, each row once, to the
// empty batches it is given: a signed row — every one with the round's
// sign, in a run of deletes for −1 — to out[d] for the replica d
// Site.Owner names (out[0] with no Owner, every batch for −1; its own alone
// for a row every replica emits alike), sharing one values table, and a
// DRed candidate, which every replica checks, to cands. quiet says the
// previous round left nothing to drive anywhere. It reports whether a quiet
// round would now end the component.
func (t *Tick) Round(quiet bool, out []Batch, cands *Batch) (last bool, err error) {
	inc, vals := t.inc, []any(nil)
	sign := 0 // every row a round emits with a sign has the same one
	err = t.drive(quiet, func(rel *Relation, w []uint64, n, ri int) {
		if n == 0 {
			inc.ship(cands, &cands.Values, rel, false, w)
			return
		}
		// A change ships unless its owner already holds it: a row held here
		// is held by its owner, and a whole relation's deleted row is
		// deleted everywhere.
		if sign = n; n > 0 && rel.findRow(w) >= 0 || n < 0 && rel.findRow(w) < 0 && t.whole(rel.Name) {
			return
		}
		// Every replica emits a row of a rule whose body it holds whole: the
		// one that keeps it ships it to itself alone.
		if t.alike(ri) {
			if !t.owns(rel, w) {
				return
			}
			inc.kept.Ensure(rel.Name, rel.Arity).insertRow(w)
		}
		inc.dedup.Ensure(rel.Name, rel.Arity).insertRow(w)
	})
	inc.unnumber(cands.Values)
	for _, h := range inc.dedup.Names() {
		rel, set, kept := inc.db.Get(h), inc.dedup.Get(h), inc.kept.Get(h)
		set.scanRows(func(w []uint64) {
			d := 0
			if kept != nil && kept.findRow(w) >= 0 {
				d = t.site.Self
			} else if t.site.Owner != nil {
				d = t.site.Owner(h, w, inc.db.dict.vals)
			}
			for i := range out {
				if i == d || d < 0 {
					inc.ship(&out[i], &vals, rel, sign < 0, w)
				}
			}
		})
		if !set.reset(maxKeptDedup) {
			delete(inc.dedup.rels, h)
		}
		if kept != nil && !kept.reset(maxKeptDedup) {
			delete(inc.kept.rels, h)
		}
	}
	inc.unnumber(vals)
	for i := range out {
		out[i].Values = vals
	}
	return t.last(), err
}

// ship appends rel's row w to b with sign del, renumbering its dictionary
// words to the values table vals through inc.renum, which unnumber clears.
func (inc *Incremental) ship(b *Batch, vals *[]any, rel *Relation, del bool, w []uint64) {
	r, d := b.tail(Run{Name: rel.Name, Arity: rel.Arity, Del: del}), inc.db.dict
	if len(inc.renum) < len(d.vals) {
		inc.renum = append(inc.renum, make([]uint64, len(d.vals)-len(inc.renum))...)
	}
	for _, x := range w {
		r.Rows = append(r.Rows, d.batchWord(vals, inc.renum, x))
	}
}

// unnumber clears the ids ship gave the values of vals.
func (inc *Incremental) unnumber(vals []any) {
	for _, v := range vals {
		w, _ := inc.db.dict.lookup(v)
		inc.renum[w>>tagBits] = 0
	}
}

// Accept folds what one sender shipped in a round, its candidates and then
// its signed rows, into the component in progress, rebasing each row's
// words, and returns how many accepted rows the next round drives. A
// round's senders are accepted in order.
func (t *Tick) Accept(cands, rows *Batch) (pending int) {
	inc := t.inc
	for sign, b := range [...]*Batch{cands, rows} {
		based := append(inc.based[:0], make([]uint64, len(b.Values))...) // batch id → word; 0 until used
		for _, r := range b.Runs {
			n, rel := sign, inc.db.Get(r.Name)
			if r.Del {
				n = -1
			}
			for k, stride := 0, max(r.Arity, 1); k < len(r.Rows); k += stride {
				inc.row = append(inc.row[:0], r.Rows[k:k+r.Arity]...)
				for j, x := range inc.row {
					if id := x >> tagBits; x&tagMask == tagDict {
						if based[id] == 0 {
							based[id] = inc.db.dict.encode(b.Values[id])
						}
						inc.row[j] = based[id]
					}
				}
				t.accept(rel, inc.row, n, -1)
			}
		}
		inc.based = based
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
// emit gets each row with its rule, −1 for a DRed candidate.
func (t *Tick) drive(quiet bool, emit func(rel *Relation, w []uint64, n, ri int)) error {
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
					emit(db.Get(h), l.row(k), 0, -1)
				}
			}
			b.driveOnce(db, c.plans, frontier, preBatch{over: t.over}, -1, emit)
			return nil
		}
		// Over-deletion is done everywhere: the candidates with a derivation
		// left go back in, and the batch's additions start. Discovery order
		// is support-dependency order (§9), so on one node, where a survivor
		// is accepted as it is found, one pass reinstates every directly
		// supported candidate.
		t.phase = insertPhase
		for k, off := 0, 0; k < len(t.check.rels); k++ {
			rel := t.check.rels[k]
			if w := t.check.w[off : off+rel.Arity]; rederivable(db, c.plans, rel.Name, w) {
				emit(rel, w, 1, -1)
			}
			off += rel.Arity
		}
		t.load(frontier, t.d.add)
		b.driveOnce(db, c.plans, frontier, preBatch{}, 1, emit)
	default:
		b.driveOnce(db, c.plans, frontier, preBatch{}, 1, emit)
	}
	return nil
}

// accept is a round's second half, per arrived row: a shipped one (ri −1)
// or, in Apply's loop, one that rule ri emits, which this replica keeps
// unless every replica emits it alike and it is not this one's.
func (t *Tick) accept(rel *Relation, w []uint64, n, ri int) {
	if t.alike(ri) && !t.owns(rel, w) {
		return
	}
	next := t.inc.rounds.next
	switch t.phase {
	case overPhase:
		if n == 0 {
			t.check.add(rel, w, 0)
		} else if rel.deleteRow(w) {
			t.inc.undo.add(rel, w, -1)
			t.gone[rel.Name]++
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
		if t.over != nil && t.over.Get(rel.Name).findRow(w) >= 0 {
			t.gone[rel.Name]-- // an over-deleted row coming back
		} else {
			t.realize(rel, w, 1)
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
	t.c, t.over, t.gone, t.check = nil, nil, nil, rowLog{}
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

// alike reports whether every replica derives rule ri's rows alike (−1: none).
func (t *Tick) alike(ri int) bool { return ri >= 0 && t.wholeBody[ri] }

// owns reports whether rel's row w is this replica's: it is its owner, or
// every replica holds rel.
func (t *Tick) owns(rel *Relation, w []uint64) bool {
	o := t.site.Owner(rel.Name, w, t.inc.db.dict.vals)
	return o < 0 || o == t.site.Self
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
	err := evalStratumSemiNaive(db, t.c.plans, &t.inc.rounds)
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

// realize counts a realized set change of a head row and records it in
// the batch, where later components read it, if one does.
func (t *Tick) realize(rel *Relation, w []uint64, n int) {
	switch {
	case !t.inc.read[rel.Name]:
	case n > 0:
		t.d.insertRow(rel.Name, w)
	default:
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
