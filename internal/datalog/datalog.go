// Package datalog is the query core of HydroLogic (§3): relations, rules
// with stratified negation, lattice-style aggregation, and a semi-naive
// (differential) fixpoint evaluator. HydroLogic queries such as the
// transitive-closure `trace` in the COVID example compile to rules here, and
// the evaluator is what runs "to fixpoint" inside each transducer tick.
//
// Storage is hash-native: tuples live in an insertion-ordered slot array
// keyed by a 64-bit typed FNV-1a hash with collision buckets, and column
// indexes (the access paths of §5.1) are maintained incrementally on both
// Insert and Delete. Relation is the package's only hashed tuple store:
// delta batches, pre-batch overlays, dedup sets and derivation counts are
// all relations. Rules execute as compiled plans (see plan.go).
package datalog

import (
	"fmt"
	"sort"
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

// Relation is a named set of tuples of fixed arity. Rows are stored in an
// insertion-ordered slot array (deleted rows leave tombstones that are
// compacted once they dominate); membership is a typed-hash table whose
// collision chains thread through a parallel next-slot array (one map
// entry per hash, no per-bucket slice allocations — chain order is
// unobservable because a tuple's slot is unique); column indexes over any
// column subset are built on first use and maintained incrementally
// afterwards. A relation may also carry one signed count per tuple
// (addCount): the derivation multiplicities of a counting component's head,
// or a batch's accumulated signed changes on a scratch relation.
type Relation struct {
	Name  string
	Arity int

	slots  []Tuple // insertion order; nil = tombstone
	dead   int
	byHash map[uint64]int32 // full-tuple hash → head of live-slot chain; nil after Clone (lazily rebuilt)
	next   []int32          // collision chain links, parallel to slots; -1 terminates
	idx    []*colIndex
	counts []int // per-tuple counts, parallel to slots; nil until the first addCount
}

// NewRelation returns an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity, byHash: map[uint64]int32{}}
}

// Len returns the number of live tuples.
func (r *Relation) Len() int { return len(r.slots) - r.dead }

// ensureByHash rebuilds the membership hash after a lazy Clone.
func (r *Relation) ensureByHash() {
	if r.byHash != nil {
		return
	}
	r.byHash = make(map[uint64]int32, nextPow2(len(r.slots)))
	r.next = make([]int32, len(r.slots))
	for i, t := range r.slots {
		r.next[i] = -1
		if t == nil {
			continue
		}
		h := hashTuple(t)
		if head, ok := r.byHash[h]; ok {
			r.next[i] = head
		}
		r.byHash[h] = int32(i)
	}
}

// findSlot returns the slot of t, or -1. Chains hold live slots only.
func (r *Relation) findSlot(h uint64, t Tuple) int32 {
	s, ok := r.byHash[h]
	if !ok {
		return -1
	}
	for s >= 0 {
		if r.slots[s].Equal(t) {
			return s
		}
		s = r.next[s]
	}
	return -1
}

// Insert adds a tuple, returning true if it was new. Panics on arity
// mismatch: that is a compiler bug, not a data error.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("datalog: arity mismatch inserting %v into %s/%d", t, r.Name, r.Arity))
	}
	r.ensureByHash()
	h := hashTuple(t)
	if r.findSlot(h, t) >= 0 {
		return false
	}
	r.insertNew(h, t)
	return true
}

// insertNew appends t, known to be absent and to hash to h.
func (r *Relation) insertNew(h uint64, t Tuple) {
	slot := int32(len(r.slots))
	r.slots = append(r.slots, t)
	link := int32(-1)
	if head, ok := r.byHash[h]; ok {
		link = head
	}
	r.next = append(r.next, link)
	r.byHash[h] = slot
	if r.counts != nil {
		r.counts = append(r.counts, 0)
	}
	for _, ci := range r.idx {
		ci.add(t, slot)
	}
}

// addCount adjusts t's count by d, inserting t at count zero first, and
// returns the count before and after. A maintained count that returns to
// zero is dropped by deleting the tuple, so counts stay bounded by the live
// relation and tombstone compaction carries them along.
func (r *Relation) addCount(t Tuple, d int) (old, now int) {
	r.ensureByHash()
	if r.counts == nil {
		r.counts = make([]int, len(r.slots), cap(r.slots))
	}
	h := hashTuple(t)
	slot := r.findSlot(h, t)
	if slot < 0 {
		slot = int32(len(r.slots))
		r.insertNew(h, t)
	}
	old = r.counts[slot]
	r.counts[slot] = old + d
	return old, old + d
}

// count returns t's count: zero when t is absent or was never counted.
func (r *Relation) count(t Tuple) int {
	if r.counts == nil {
		return 0
	}
	r.ensureByHash()
	if slot := r.findSlot(hashTuple(t), t); slot >= 0 {
		return r.counts[slot]
	}
	return 0
}

// scanCounts calls fn for every live tuple and its count, in insertion
// order; a relation that was never counted has none to report.
func (r *Relation) scanCounts(fn func(t Tuple, n int)) {
	if r.counts == nil {
		return
	}
	for i, t := range r.slots {
		if t != nil {
			fn(t, r.counts[i])
		}
	}
}

// Delete removes a tuple, returning true if it was present. Deletion is
// non-monotonic; the transducer only applies it atomically between ticks.
// Indexes are maintained incrementally — no rebuild.
func (r *Relation) Delete(t Tuple) bool {
	r.ensureByHash()
	h := hashTuple(t)
	slot := r.findSlot(h, t)
	if slot < 0 {
		return false
	}
	// Unlink from the collision chain.
	if head := r.byHash[h]; head == slot {
		if r.next[slot] >= 0 {
			r.byHash[h] = r.next[slot]
		} else {
			delete(r.byHash, h)
		}
	} else {
		p := head
		for r.next[p] != slot {
			p = r.next[p]
		}
		r.next[p] = r.next[slot]
	}
	r.next[slot] = -1
	for _, ci := range r.idx {
		ci.remove(r.slots[slot], slot)
	}
	r.slots[slot] = nil
	r.dead++
	r.maybeCompact()
	return true
}

// maybeCompact squeezes out tombstones (preserving insertion order) once
// they dominate the slot array, rebuilding hash and indexes.
func (r *Relation) maybeCompact() {
	if r.dead <= 32 || r.dead*2 <= len(r.slots) {
		return
	}
	live := make([]Tuple, 0, len(r.slots)-r.dead)
	for i, t := range r.slots {
		if t != nil {
			if r.counts != nil {
				r.counts[len(live)] = r.counts[i]
			}
			live = append(live, t)
		}
	}
	if r.counts != nil {
		r.counts = r.counts[:len(live)]
	}
	r.slots = live
	r.dead = 0
	r.byHash = nil
	r.ensureByHash()
	for _, ci := range r.idx {
		ci.m = make(map[uint64][]int32, nextPow2(len(live)))
		for i, t := range live {
			ci.add(t, int32(i))
		}
	}
}

// Clear removes every tuple in place, keeping the relation's identity (the
// same *Relation stays registered in its database — callers holding the
// pointer observe the emptied state). Indexes are dropped and rebuilt on
// demand. The incremental evaluator's recompute path and the transducer's
// query re-registration both clear derived relations this way so that no
// concurrent reader of the database map is ever invalidated.
func (r *Relation) Clear() {
	r.slots = nil
	r.dead = 0
	r.byHash = map[uint64]int32{}
	r.next = nil
	r.idx = nil
	r.counts = nil
}

// Contains reports membership of t.
func (r *Relation) Contains(t Tuple) bool {
	r.ensureByHash()
	return r.findSlot(hashTuple(t), t) >= 0
}

// Tuples returns all tuples in a deterministic (sorted) order. Evaluation
// never calls this on the hot path — it scans insertion order directly.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Len())
	for _, t := range r.slots {
		if t != nil {
			out = append(out, t)
		}
	}
	sortTuples(out)
	return out
}

// appendRaw appends a tuple without the duplicate check or hash/index
// maintenance (byHash is rebuilt lazily if ever consulted). The evaluator
// uses it for delta relations, whose tuples are pre-deduplicated and only
// ever scanned.
func (r *Relation) appendRaw(t Tuple) {
	r.byHash = nil
	r.next = nil
	r.idx = nil
	r.counts = nil
	r.slots = append(r.slots, t)
}

// bulkLoad appends pre-deduplicated tuples in order and builds the
// membership hash once — the snapshot-restore fast path. Callers guarantee
// the tuples are distinct (snapshot contents are checksummed); arity is
// still verified per tuple.
func (r *Relation) bulkLoad(ts []Tuple) error {
	for _, t := range ts {
		if len(t) != r.Arity {
			return fmt.Errorf("datalog: arity mismatch loading %v into %s/%d", t, r.Name, r.Arity)
		}
	}
	r.byHash = nil
	r.next = nil
	r.idx = nil
	r.counts = nil
	r.slots = append(r.slots, ts...)
	r.ensureByHash()
	return nil
}

// scan calls fn for every live tuple in insertion order; fn returning
// false stops the scan.
func (r *Relation) scan(fn func(t Tuple) bool) {
	for _, t := range r.slots {
		if t != nil && !fn(t) {
			return
		}
	}
}

// Clone returns a deep copy sharing no mutable state. The membership hash
// and indexes are rebuilt lazily on first use, so cloning (the transducer's
// per-tick snapshot) is a single slice copy for relations the tick never
// touches.
func (r *Relation) Clone() *Relation {
	c := &Relation{Name: r.Name, Arity: r.Arity}
	c.slots = make([]Tuple, 0, r.Len())
	for _, t := range r.slots {
		if t != nil {
			c.slots = append(c.slots, t)
		}
	}
	return c
}

// index returns (building on first use) the incrementally-maintained index
// over the column subset pos.
func (r *Relation) index(pos []int) *colIndex {
	for _, ci := range r.idx {
		if sameCols(ci.pos, pos) {
			return ci
		}
	}
	ci := &colIndex{pos: append([]int(nil), pos...), m: make(map[uint64][]int32, nextPow2(r.Len()))}
	for i, t := range r.slots {
		if t != nil {
			ci.add(t, int32(i))
		}
	}
	r.idx = append(r.idx, ci)
	return ci
}

// lookupSlots returns candidate slot numbers whose projection hash matches;
// callers must verify equality (hash collisions are possible).
func (r *Relation) lookupSlots(pos []int, vals []any) []int32 {
	return r.index(pos).m[hashVals(vals)]
}

// Lookup returns the tuples whose columns at pos equal vals, using (and
// building if needed) a hash index on those columns. With no columns it
// returns the full relation in deterministic sorted order.
func (r *Relation) Lookup(pos []int, vals []any) []Tuple {
	if len(pos) == 0 {
		return r.Tuples()
	}
	var out []Tuple
	for _, s := range r.lookupSlots(pos, vals) {
		if t := r.slots[s]; projEqual(t, pos, vals) {
			out = append(out, t)
		}
	}
	return out
}

// Database is a set of named relations.
type Database struct {
	rels map[string]*Relation
	// names caches sorted relation names; invalidated by Ensure.
	names []string
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{rels: map[string]*Relation{}} }

// Ensure returns the relation, creating it with the given arity if missing.
func (db *Database) Ensure(name string, arity int) *Relation {
	if r, ok := db.rels[name]; ok {
		return r
	}
	r := NewRelation(name, arity)
	db.rels[name] = r
	db.names = nil
	return r
}

// Get returns the named relation, or nil.
func (db *Database) Get(name string) *Relation { return db.rels[name] }

// remove deregisters a relation entirely — the incremental evaluator's
// construction rollback uses it for relations it created itself, so a
// failed NewIncremental leaves no phantom (possibly wrong-arity) entries
// behind.
func (db *Database) remove(name string) {
	if _, ok := db.rels[name]; ok {
		delete(db.rels, name)
		db.names = nil
	}
}

// Names returns relation names sorted.
func (db *Database) Names() []string {
	if db.names == nil {
		out := make([]string, 0, len(db.rels))
		for n := range db.rels {
			out = append(out, n)
		}
		sort.Strings(out)
		db.names = out
	}
	return db.names
}
