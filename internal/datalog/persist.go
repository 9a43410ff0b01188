package datalog

import (
	"errors"
	"fmt"
	"slices"
)

// This file is how rows leave an evaluator and come back: a Batch, a
// values table plus runs of word rows. State captures the maintained
// database as one and RestoreIncremental adopts it without decoding a row;
// Delta.Batch captures a tick's base changes as one and Replay applies it.
// internal/durable frames batches as snapshot images and changelog records;
// words stay opaque to it. Dictionary ids are renumbered densely in
// first-use order over the runs, so a batch depends only on its rows and
// their order, never on what a dictionary interned and forgot: a restored
// evaluator captures the state it was restored from.

// Run is rows of one relation in a Batch, max(Arity, 1) words per row (an
// arity-0 row is one zero word). Del marks a run of deletes.
type Run struct {
	Name  string
	Arity int
	Del   bool
	Rows  []uint64
}

// Batch is rows leaving an evaluator. A row's dictionary word names
// Values[id].
type Batch struct {
	Values []any
	Runs   []Run
}

// ErrRejected marks a batch Replay applied but Apply then rejected; Replay
// has undone it, base changes included.
var ErrRejected = errors.New("datalog: replayed batch rejected by the evaluator")

// State captures the maintained database in one pass over the slabs: each
// relation's live rows in slot (scan) order.
func (inc *Incremental) State() *Batch {
	d := inc.db.dict
	renum := make([]uint64, len(d.vals)) // dictionary id → state id + 1
	st := &Batch{}
	for _, name := range inc.db.Names() {
		r := inc.db.Get(name)
		rs := Run{Name: name, Arity: r.Arity, Rows: make([]uint64, 0, r.Len()*r.stride)}
		for s, n := 0, r.slots(); s < n; s++ {
			if !r.live(s) {
				continue
			}
			for _, w := range r.rows[s*r.stride:][:r.stride] {
				rs.Rows = append(rs.Rows, d.batchWord(&st.Values, renum, w))
			}
		}
		st.Runs = append(st.Runs, rs)
	}
	return st
}

// batchWord returns w as a word of a batch with values table vals, renumbered
// in first-use order (renum: dictionary id → id in vals + 1).
func (d *dict) batchWord(vals *[]any, renum []uint64, w uint64) uint64 {
	if w&tagMask != tagDict {
		return w
	}
	id := w >> tagBits
	if renum[id] == 0 {
		*vals = append(*vals, d.vals[id])
		renum[id] = uint64(len(*vals))
	}
	return (renum[id]-1)<<tagBits | tagDict
}

// Len returns the number of rows b holds.
func (b *Batch) Len() (n int) {
	for _, r := range b.Runs {
		n += len(r.Rows) / max(r.Arity, 1)
	}
	return n
}

// Batch captures the recorded ops in order: consecutive ops on one
// predicate with one sign and arity share a run, and the values that do not
// fit a word are numbered in a private dictionary.
func (d *Delta) Batch() *Batch {
	dict, b := newDict(), &Batch{}
	for _, op := range d.ops {
		r := b.tail(Run{Name: op.Pred, Arity: len(op.T), Del: op.Del})
		r.Rows = dict.encodeRow(r.Rows, op.T)
	}
	b.Values = dict.vals
	return b
}

// tail returns the run a row of next's relation and sign goes on: the one b
// ends with if it holds them, else a new one. An arity-0 row's word is
// written.
func (b *Batch) tail(next Run) *Run {
	if n := len(b.Runs); n == 0 || !b.Runs[n-1].sameRelation(&next) {
		b.Runs = append(b.Runs, next)
	}
	r := &b.Runs[len(b.Runs)-1]
	if next.Arity == 0 {
		r.Rows = append(r.Rows, 0)
	}
	return r
}

// sameRelation reports whether r and o carry one relation's rows with one
// sign.
func (r *Run) sameRelation(o *Run) bool {
	return r.Name == o.Name && r.Arity == o.Arity && r.Del == o.Del
}

// Delta decodes a batch Delta.Batch captured back into its ops. It refuses
// what that method does not produce — an empty run, a run that continues the
// one before, any value or word RestoreIncremental refuses — so an accepted
// batch captures to itself.
func (b *Batch) Delta() (*Delta, error) { return b.delta(newDict()) }

// delta is Delta decoding through dict, whose values the ops then hold.
func (b *Batch) delta(dict *dict) (*Delta, error) {
	d := &Delta{}
	err := b.decode(dict, func(i int, rows []uint64) error {
		r := &b.Runs[i]
		if len(rows) == 0 || i > 0 && b.Runs[i-1].sameRelation(r) {
			return fmt.Errorf("run %d (%s) is empty or continues the one before", i, r.Name)
		}
		for stride := max(r.Arity, 1); len(rows) > 0; rows = rows[stride:] {
			d.ops = append(d.ops, DeltaOp{Del: r.Del, Pred: r.Name, T: dict.tuple(rows[:r.Arity])})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("datalog: batch: %w", err)
	}
	return d, nil
}

// Replay applies a batch Delta.Batch captured to the maintained database —
// every base change must realize, as both come from one history — and folds
// it in with Apply. A batch that fails is undone, base changes included;
// Apply's rejection wraps ErrRejected.
func (inc *Incremental) Replay(b *Batch) error {
	d, err := b.delta(inc.db.dict)
	if err != nil {
		return err
	}
	for i, op := range d.ops {
		if r := inc.db.Get(op.Pred); r != nil && r.Arity != len(op.T) || !inc.db.realize(op) {
			inc.db.Undo(d.ops[:i])
			return fmt.Errorf("datalog: replay: change %+v did not realize", op)
		}
	}
	if _, err := inc.Apply(d); err != nil {
		inc.db.Undo(d.ops)
		return fmt.Errorf("%w: %w", ErrRejected, err)
	}
	return nil
}

// RestoreIncremental rebuilds an evaluator from a captured state: the
// values are interned into db's dictionary, the rows are copied into each
// relation's slab with their dictionary words remapped, membership is
// built once, and the program's relations are registered and its
// components classified exactly as NewIncremental would, adopting the
// fixpoint instead of seeding it. Restore is O(state) — no joins, no
// fixpoint, no Tuple.
//
// A state that a correct State() cannot produce — one that lacks a
// relation the program names and db does not hold, say — is rejected
// before any relation of db changes (only the append-only dictionary may
// have grown), and what was registered is removed, so a failed restore
// leaves db as it found it.
func RestoreIncremental(p *Program, db *Database, st *Batch) (*Incremental, error) {
	inc, added, err := newIncrementalCore(p, db)
	if err != nil {
		return nil, err
	}
	rels := make([]*Relation, len(st.Runs))
	err = st.decode(db.dict, func(i int, rows []uint64) error {
		rs := &st.Runs[i]
		if rs.Del || i > 0 && rs.Name <= st.Runs[i-1].Name {
			return fmt.Errorf("relation %s is a run of deletes or out of name order", rs.Name)
		}
		old := db.Get(rs.Name)
		if old != nil && old.Len() > 0 {
			return fmt.Errorf("relation %s already holds tuples", rs.Name)
		}
		if old != nil && rs.Arity != old.Arity {
			return fmt.Errorf("relation %s has arity %d but state says %d", rs.Name, old.Arity, rs.Arity)
		}
		rels[i] = newRelation(db.dict, rs.Name, rs.Arity)
		if !rels[i].bulkLoad(rows) {
			return fmt.Errorf("relation %s holds a row twice", rs.Name)
		}
		return nil
	})
	for _, name := range added {
		if err == nil && !slices.ContainsFunc(st.Runs, func(r Run) bool { return r.Name == name }) {
			err = fmt.Errorf("the state has no relation %s, which the program names", name)
		}
	}
	if err != nil {
		for _, name := range added {
			delete(db.rels, name)
		}
		return nil, fmt.Errorf("datalog: restore: %w", err)
	}
	for _, r := range rels {
		if old := db.Get(r.Name); old != nil {
			*old = *r // keep the registered relation's identity
		} else {
			db.rels[r.Name] = r
		}
	}
	return inc, nil
}

// decode checks b as a capture leaves it — no value a word holds inline, no
// value twice, words that encode a stored value, dictionary ids in first-use
// order, every value used — interns its values into d, and hands visit each
// run's rows with their dictionary words rebased into d.
func (b *Batch) decode(d *dict, visit func(i int, rows []uint64) error) error {
	words := make([]uint64, len(b.Values)) // batch id → d's word
	for i, v := range b.Values {
		if _, ok := inline(v); ok {
			return fmt.Errorf("dictionary value %d (%T %v) is encoded inline, not by id", i, v, v)
		}
		words[i] = d.encode(v)
	}
	seen := make([]bool, len(d.vals))
	for i, w := range words {
		if seen[w>>tagBits] {
			return fmt.Errorf("dictionary value %d (%v) is a duplicate", i, b.Values[i])
		}
		seen[w>>tagBits] = true
	}
	next := uint64(0) // the first batch id no row has used yet
	for i := range b.Runs {
		rs := &b.Runs[i]
		if rs.Arity < 0 || len(rs.Rows)%max(rs.Arity, 1) != 0 {
			return fmt.Errorf("relation %s: %d words is not a whole number of rows of arity %d", rs.Name, len(rs.Rows), rs.Arity)
		}
		rows := make([]uint64, len(rs.Rows))
		for j, w := range rs.Rows {
			switch tag := w & tagMask; {
			case rs.Arity == 0 && w != 0, tag > tagDict, tag == tagBool && w>>tagBits > 1:
				return fmt.Errorf("relation %s: word %#x encodes no stored value", rs.Name, w)
			case tag == tagDict:
				id := w >> tagBits
				if id > next || id >= uint64(len(words)) {
					return fmt.Errorf("relation %s: dictionary id %d is not among the %d values, or out of first-use order", rs.Name, id, len(words))
				}
				if id == next {
					next++
				}
				w = words[id]
			}
			rows[j] = w
		}
		if err := visit(i, rows); err != nil {
			return err
		}
	}
	if next != uint64(len(words)) {
		return fmt.Errorf("%d dictionary values are referenced by no row", uint64(len(words))-next)
	}
	return nil
}
