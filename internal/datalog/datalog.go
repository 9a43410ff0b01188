// Package datalog is the query core of HydroLogic (§3): relations, rules
// with stratified negation, lattice-style aggregation, and a semi-naive
// (differential) fixpoint evaluator. HydroLogic queries such as the
// transitive-closure `trace` in the COVID example compile to rules here, and
// the evaluator is what runs "to fixpoint" inside each transducer tick.
//
// Storage is flat and pointer-free: a value is a 64-bit word (value.go), a
// relation's rows sit in one insertion-ordered slab, and membership and the
// column indexes (the access paths of §5.1) are open-addressed tables
// maintained incrementally on both Insert and Delete. Relation is the
// package's only hashed tuple store: delta batches, pre-batch overlays,
// dedup sets and a batch's netting are all relations. Rules execute as
// compiled plans over words (see plan.go); Tuple is the boundary type.
package datalog

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Tuple is one fact: a row of constants. Elements must be comparable Go
// values (string, integer, float, bool).
type Tuple []any

// Equal reports elementwise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the tuple as (a, b, c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a named set of tuples of fixed arity. Rows are encoded words
// (value.go) in one pointer-free slab in insertion order, stride words per
// slot; a deleted row leaves a tombstone that is compacted once tombstones
// dominate. Membership is an open-addressed table over all columns, built
// with the relation; column indexes over any column subset are built on
// first probe and maintained incrementally afterwards (index.go) — both
// enumerate in insertion order, never hash order. A relation is a set and
// holds nothing per row but the row: a sign or a multiplicity travels
// beside rows (a Batch run's Del, rowLog), never in the slab. Tuple is the boundary
// type: Insert, Delete, Contains, Lookup and Tuples encode on the way in
// and decode on the way out.
type Relation struct {
	Name  string
	Arity int

	dict   *dict
	stride int      // words per slot: Arity, or 1 for arity 0 so a tombstone has a word to sit in
	rows   []uint64 // the slab; slot s is rows[s*stride:][:Arity]
	dead   int
	set    colIndex // membership: every column
	idx    []*colIndex
}

// NewRelation returns an empty relation with a dictionary of its own. A
// relation that is to be joined against a database's comes from that
// database (Ensure, or a Scratch of it) instead.
func NewRelation(name string, arity int) *Relation { return newRelation(newDict(), name, arity) }

func newRelation(d *dict, name string, arity int) *Relation {
	return adoptRows(d, name, arity, nil)
}

// adoptRows returns a relation over rows — distinct encoded rows of d, which
// the relation only reads — with its membership built.
func adoptRows(d *dict, name string, arity int, rows []uint64) *Relation {
	r := &Relation{Name: name, Arity: arity, dict: d, stride: max(arity, 1), rows: rows[:len(rows):len(rows)]}
	r.set.pos = allCols(arity)
	r.set.build(r)
	return r
}

// slots returns the number of slots in use, tombstones included.
func (r *Relation) slots() int { return len(r.rows) / r.stride }

// row returns slot s's words.
func (r *Relation) row(s int) []uint64 { return r.rows[s*r.stride:][:r.Arity] }

// live reports whether slot s holds a tuple.
func (r *Relation) live(s int) bool { return r.rows[s*r.stride] != tombWord }

// Len returns the number of live tuples.
func (r *Relation) Len() int { return r.slots() - r.dead }

// touch loads the membership cell and the row each of l's rows will probe
// first, and returns their xor (uninlined) so that the loads are not dead
// code. They are independent of one another, so the processor overlaps
// their cache misses; the probes that follow (one dependent miss after
// another, on a relation that has outgrown the cache) then find them cached.
//
//go:noinline
func (r *Relation) touch(l *rowList) (sink uint64) {
	for k, n := 0, l.len(); k < n; k++ {
		if c := r.set.cells[hashWords(l.row(k))>>r.set.shift]; c != 0 {
			sink ^= r.rows[int(c-1)*r.stride]
		}
	}
	return sink
}

// findRow returns the slot of the encoded row w, or -1.
func (r *Relation) findRow(w []uint64) int {
	_, s := r.set.find(r, w)
	return s
}

// Insert adds a tuple, returning true if it was new. Panics on arity
// mismatch: that is a compiler bug, not a data error.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("datalog: arity mismatch inserting %v into %s/%d", t, r.Name, r.Arity))
	}
	var buf [8]uint64
	return r.insertRow(r.dict.encodeRow(buf[:0], t))
}

// insertRow adds the encoded row w (copied), returning true if it was new.
func (r *Relation) insertRow(w []uint64) bool {
	cell, s := r.set.find(r, w)
	if s >= 0 {
		return false
	}
	r.appendRow(cell, w)
	return true
}

// appendRow appends w, known to be absent, whose membership cell is cell.
func (r *Relation) appendRow(cell int, w []uint64) int {
	slot := r.slots()
	if r.Arity == 0 {
		r.rows = append(r.rows, 0)
	} else {
		r.rows = append(r.rows, w...)
	}
	r.set.put(r, cell, slot)
	for _, ci := range r.idx {
		ci.add(r, slot)
	}
	return slot
}

// scanRows calls fn for every live row, in insertion order.
func (r *Relation) scanRows(fn func(w []uint64)) {
	for s, n := 0, r.slots(); s < n; s++ {
		if r.live(s) {
			fn(r.row(s))
		}
	}
}

// reset empties r for reuse, keeping its slab's and membership table's
// capacity, unless it holds over limit rows: then it reports false.
func (r *Relation) reset(limit int) bool {
	if r.Len() > limit {
		return false
	}
	r.rows, r.dead, r.idx = r.rows[:0], 0, nil
	clear(r.set.cells)
	r.set.used = 0
	return true
}

// Delete removes a tuple, returning true if it was present. Deletion is
// non-monotonic; the transducer only applies it atomically between ticks.
// Indexes are maintained incrementally — no rebuild.
func (r *Relation) Delete(t Tuple) bool {
	var buf [8]uint64
	w, ok := r.dict.lookupRow(buf[:0], t)
	return ok && len(t) == r.Arity && r.deleteRow(w)
}

// deleteRow removes the encoded row w, returning true if it was present.
func (r *Relation) deleteRow(w []uint64) bool {
	cell, slot := r.set.find(r, w)
	if slot < 0 {
		return false
	}
	r.set.removeCell(r, cell)
	for _, ci := range r.idx {
		ci.remove(r, slot)
	}
	r.rows[slot*r.stride] = tombWord
	r.dead++
	r.maybeCompact()
	return true
}

// maybeCompact squeezes out tombstones (preserving insertion order) once
// they dominate the slab, rebuilding membership and indexes.
func (r *Relation) maybeCompact() {
	n := r.slots()
	if r.dead <= 32 || r.dead*2 <= n {
		return
	}
	live := 0
	for s := 0; s < n; s++ {
		if !r.live(s) {
			continue
		}
		copy(r.rows[live*r.stride:], r.rows[s*r.stride:][:r.stride])
		live++
	}
	r.rows = r.rows[:live*r.stride]
	r.dead = 0
	r.set.build(r)
	for _, ci := range r.idx {
		ci.build(r)
	}
}

// Clear removes every tuple in place, keeping the relation's identity (the
// same *Relation stays registered in its database — callers holding the
// pointer observe the emptied state). Membership is emptied and column
// indexes are dropped, to be built again on first probe. The incremental
// evaluator's recompute path and the transducer's query re-registration
// both clear derived relations this way so that no reader of the database
// map is ever invalidated.
func (r *Relation) Clear() {
	r.rows = nil
	r.dead = 0
	r.set.build(r)
	r.idx = nil
}

// Contains reports membership of t.
func (r *Relation) Contains(t Tuple) bool {
	var buf [8]uint64
	w, ok := r.dict.lookupRow(buf[:0], t)
	return ok && len(t) == r.Arity && r.findRow(w) >= 0
}

// Tuples returns all tuples in a deterministic (sorted) order, decoded over
// one backing array. Evaluation never calls this on the hot path — it scans
// insertion order directly.
func (r *Relation) Tuples() []Tuple {
	vals := make([]any, r.Len()*r.Arity)
	out := make([]Tuple, 0, r.Len())
	for s, n := 0, r.slots(); s < n; s++ {
		if r.live(s) {
			out = append(out, r.dict.nextTuple(&vals, r.row(s)))
		}
	}
	sortTuples(out)
	return out
}

// bulkLoad adopts rows — encoded rows of r's dictionary, stride words each
// — as the slab of an empty relation and builds membership once: the
// snapshot-restore path. It reports false, leaving r unusable, if two rows
// are equal.
func (r *Relation) bulkLoad(rows []uint64) bool {
	r.rows, r.dead, r.idx = rows, 0, nil
	r.set.alloc(max(minCells, nextPow2(2*r.Len())))
	for s, n := 0, r.slots(); s < n; s++ {
		cell, dup := r.set.find(r, r.row(s))
		if dup >= 0 {
			return false
		}
		r.set.put(r, cell, s)
	}
	return true
}

// Clone returns a copy sharing no mutable state but the (append-only)
// dictionary, so a clone joins against its source's database. Membership
// is built for the copy; column indexes are built on first probe.
func (r *Relation) Clone() *Relation {
	rows := make([]uint64, 0, r.Len()*r.stride)
	for s, n := 0, r.slots(); s < n; s++ {
		if r.live(s) {
			rows = append(rows, r.rows[s*r.stride:][:r.stride]...)
		}
	}
	return adoptRows(r.dict, r.Name, r.Arity, rows)
}

// index returns (building on first use) the incrementally-maintained index
// over the column subset pos.
func (r *Relation) index(pos []int) *colIndex {
	for _, ci := range r.idx {
		if sameCols(ci.pos, pos) {
			return ci
		}
	}
	ci := &colIndex{pos: append([]int(nil), pos...), chained: true}
	ci.build(r)
	r.idx = append(r.idx, ci)
	return ci
}

// Lookup returns the tuples whose columns at pos equal vals, using (and
// building if needed) a hash index on those columns; the rows are decoded
// over one backing array. With no columns it returns the full relation in
// deterministic sorted order.
func (r *Relation) Lookup(pos []int, vals []any) []Tuple {
	if len(pos) == 0 {
		return r.Tuples()
	}
	var buf [8]uint64
	key, ok := r.dict.lookupRow(buf[:0], vals)
	if !ok {
		return nil
	}
	ci := r.index(pos)
	n := 0
	for s, last := ci.bucket(r, key); s >= 0; s = ci.after(s, last) {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Tuple, 0, n)
	backing := make([]any, n*r.Arity)
	for s, last := ci.bucket(r, key); s >= 0; s = ci.after(s, last) {
		out = append(out, r.dict.nextTuple(&backing, r.row(s)))
	}
	return out
}

// Database is a set of named relations encoded through one dictionary, so
// any two of them join word against word.
type Database struct {
	rels map[string]*Relation
	dict *dict
	// derived is the word buffer PreparedRule.Derive and the aggregate
	// rules write into, reused by every call, and execs holds one executor
	// per plan run on the database: like everything here they belong to
	// the database's evaluator thread.
	derived rowList
	execs   map[*rulePlan]*planExec
}

// NewDatabase returns an empty database with a dictionary of its own.
func NewDatabase() *Database { return &Database{rels: map[string]*Relation{}, dict: newDict()} }

// Scratch returns an empty database sharing db's dictionary: the place for
// delta, overlay and dedup relations that are joined or compared against
// db's without re-encoding. Like everything in this package it belongs to
// db's evaluator thread.
func (db *Database) Scratch() *Database {
	return &Database{rels: map[string]*Relation{}, dict: db.dict}
}

// Ensure returns the relation, creating it with the given arity if missing.
// Panics if it exists at another arity: like a row of the wrong length in
// Insert, that is a caller bug, not a data error.
func (db *Database) Ensure(name string, arity int) *Relation {
	r, ok := db.rels[name]
	if !ok {
		r = newRelation(db.dict, name, arity)
		db.rels[name] = r
	} else if r.Arity != arity {
		panic(fmt.Sprintf("datalog: relation %s has arity %d, not %d", name, r.Arity, arity))
	}
	return r
}

// Get returns the named relation, or nil.
func (db *Database) Get(name string) *Relation { return db.rels[name] }

// Names returns relation names sorted.
func (db *Database) Names() []string { return slices.Sorted(maps.Keys(db.rels)) }
