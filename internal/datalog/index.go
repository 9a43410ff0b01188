package datalog

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// This file is the hash-native storage core: 64-bit typed FNV-1a hashing of
// tuple values (replacing the old string key encoding on the hot path),
// collision-bucketed hash sets, and incrementally maintained column indexes
// — the "access path" machinery of §5.1 in compiled form.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashByte folds one byte into an FNV-1a state.
func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// hashUint64 folds eight bytes into the state.
func hashUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = hashByte(h, byte(v>>i))
	}
	return h
}

// hashValue folds one tuple element, prefixed by a type tag so that 1,
// "1", uint64(1) and 1.0 never collide (the hash analog of the old string
// key's type prefixes). Signed integers of different Go widths hash
// identically but compare unequal under Tuple.Equal, so int(1) and
// int64(1) are distinct tuples sharing a hash bucket. (The old string
// encoding conflated them on insert while Tuple.Equal distinguished them —
// an inconsistency; hash and equality now agree. This codebase normalizes
// integers to int64 at its boundaries.)
func hashValue(h uint64, v any) uint64 {
	switch x := v.(type) {
	case string:
		h = hashByte(h, 's')
		for i := 0; i < len(x); i++ {
			h = hashByte(h, x[i])
		}
		h = hashByte(h, 0xff)
	case int:
		h = hashByte(h, 'i')
		h = hashUint64(h, uint64(int64(x)))
	case int64:
		h = hashByte(h, 'i')
		h = hashUint64(h, uint64(x))
	case uint64:
		h = hashByte(h, 'u')
		h = hashUint64(h, x)
	case float64:
		h = hashByte(h, 'f')
		h = hashUint64(h, math.Float64bits(x))
	case bool:
		if x {
			h = hashByte(h, 'T')
		} else {
			h = hashByte(h, 'F')
		}
	default:
		h = hashByte(h, '?')
		s := fmt.Sprint(x)
		for i := 0; i < len(s); i++ {
			h = hashByte(h, s[i])
		}
		h = hashByte(h, 0xff)
	}
	return h
}

// hashTuple hashes a full tuple.
func hashTuple(t Tuple) uint64 {
	h := fnvOffset
	for _, v := range t {
		h = hashValue(h, v)
	}
	return h
}

// hashVals hashes an explicit value list (projections, group keys).
func hashVals(vals []any) uint64 {
	h := fnvOffset
	for _, v := range vals {
		h = hashValue(h, v)
	}
	return h
}

// hashProj hashes the projection of t onto the columns pos without
// materializing it.
func hashProj(t Tuple, pos []int) uint64 {
	h := fnvOffset
	for _, p := range pos {
		h = hashValue(h, t[p])
	}
	return h
}

// projEqual reports whether t's columns at pos equal vals elementwise.
func projEqual(t Tuple, pos []int, vals []any) bool {
	for i, p := range pos {
		if t[p] != vals[i] {
			return false
		}
	}
	return true
}

// colIndex is a hash index over a column subset, mapping the projection
// hash to the slot numbers of matching rows (in insertion order). It is
// maintained incrementally on both Insert and Delete.
type colIndex struct {
	pos []int
	m   map[uint64][]int32
}

func (ci *colIndex) add(t Tuple, slot int32) {
	h := hashProj(t, ci.pos)
	ci.m[h] = append(ci.m[h], slot)
}

func (ci *colIndex) remove(t Tuple, slot int32) {
	h := hashProj(t, ci.pos)
	bucket := ci.m[h]
	for i, s := range bucket {
		if s == slot {
			// Ordered removal keeps bucket enumeration in insertion order.
			ci.m[h] = append(bucket[:i], bucket[i+1:]...)
			if len(ci.m[h]) == 0 {
				delete(ci.m, h)
			}
			return
		}
	}
}

func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// typeRank orders Go value types for the deterministic tuple ordering used
// by Relation.Tuples. The specific order is arbitrary but fixed.
func typeRank(v any) int {
	switch v.(type) {
	case bool:
		return 0
	case int, int64:
		return 1
	case uint64:
		return 2
	case float64:
		return 3
	case string:
		return 4
	}
	return 5
}

// valueLess is a deterministic total order on tuple elements: type rank
// first, then value.
func valueLess(a, b any) bool {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		return ra < rb
	}
	switch ra {
	case 0:
		return !a.(bool) && b.(bool)
	case 1:
		return asInt64(a) < asInt64(b)
	case 2:
		return a.(uint64) < b.(uint64)
	case 3:
		return a.(float64) < b.(float64)
	case 4:
		return a.(string) < b.(string)
	}
	return fmt.Sprint(a) < fmt.Sprint(b)
}

func asInt64(v any) int64 {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int64:
		return x
	}
	return 0
}

// tupleLess orders tuples elementwise under valueLess.
func tupleLess(a, b Tuple) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return valueLess(a[i], b[i])
		}
	}
	return len(a) < len(b)
}

// sortTuples sorts in place under the deterministic order.
func sortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return tupleLess(ts[i], ts[j]) })
}

// valueSet is a hash set of single values with collision buckets — used by
// count-distinct aggregation in place of the old string-key set.
type valueSet struct {
	m map[uint64][]any
	n int
}

func newValueSet() *valueSet { return &valueSet{m: map[uint64][]any{}} }

func (s *valueSet) add(v any) {
	h := hashValue(fnvOffset, v)
	for _, x := range s.m[h] {
		if x == v {
			return
		}
	}
	s.m[h] = append(s.m[h], v)
	s.n++
}

func (s *valueSet) len() int { return s.n }

// augOverlay is the DRed over-deletion phase's pre-batch augmentation
// view: per predicate, the tuples the batch removed plus the tuples
// over-deleted so far, visible to the delta plans as if still present.
// Every probe-column set the component's compiled plans can use is
// registered up front and indexed with the same colIndex machinery the
// relations use, so join probes against the overlay are hash lookups —
// the previous per-probe linear scan made large deletion cascades
// quadratic in the cascade size. Appends maintain every built index; the
// first probe of a registered set builds it.
type augOverlay struct {
	rels map[string]*augRel
}

// augRel is one predicate's overlay: rows in append (discovery) order plus
// one maintained index per registered probe-column set.
type augRel struct {
	rows []Tuple
	idx  []*colIndex
}

// newAugOverlay builds an empty overlay with the probe-column sets of
// every positive literal in the given plans' join orders pre-registered
// (all-bound existence probes register the full column set).
func newAugOverlay(plans []*rulePlan) *augOverlay {
	o := &augOverlay{rels: map[string]*augRel{}}
	for _, pl := range plans {
		for _, order := range pl.orders {
			o.registerOrder(order)
		}
	}
	return o
}

// registerOrder registers the probe-column sets one join order can use.
func (o *augOverlay) registerOrder(order []litPlan) {
	for i := range order {
		lp := &order[i]
		if lp.negated || len(lp.probePos) == 0 {
			continue // negation ignores the overlay; full scans read rows directly
		}
		o.register(lp.pred, lp.probePos)
	}
}

func (o *augOverlay) register(pred string, pos []int) {
	r := o.rels[pred]
	if r == nil {
		r = &augRel{}
		o.rels[pred] = r
	}
	for _, ci := range r.idx {
		if sameCols(ci.pos, pos) {
			return
		}
	}
	// m stays nil until the probe set is actually used: many registered
	// sets are never probed while their overlay is non-empty (a head's
	// overlay is only ever probed by round-1 input-delta drives), and
	// maintaining dead indexes across a large cascade is pure overhead.
	r.idx = append(r.idx, &colIndex{pos: append([]int(nil), pos...)})
}

// add appends t to pred's overlay and maintains every built index (unbuilt
// ones index all rows if and when a probe builds them). Appends happen
// only between drives (driveRounds' accept step), never during a walk.
func (o *augOverlay) add(pred string, t Tuple) {
	r := o.rels[pred]
	if r == nil {
		r = &augRel{}
		o.rels[pred] = r
	}
	slot := int32(len(r.rows))
	r.rows = append(r.rows, t)
	for _, ci := range r.idx {
		if ci.m != nil {
			ci.add(t, slot)
		}
	}
}

func (r *augRel) build(ci *colIndex) {
	ci.m = make(map[uint64][]int32, nextPow2(len(r.rows)))
	for i, t := range r.rows {
		ci.add(t, int32(i))
	}
}

// matches enumerates, in append order, the overlay tuples whose columns at
// pos equal vals, calling each for every match until it returns false. It
// reports whether any match existed. The first probe of a registered set
// builds its index; an unregistered probe set falls back to the linear
// scan (defensive — newAugOverlay registers every set the plans can
// produce), preserving semantics either way.
func (r *augRel) matches(pos []int, vals []any, each func(Tuple) bool) bool {
	for _, ci := range r.idx {
		if !sameCols(ci.pos, pos) {
			continue
		}
		if ci.m == nil {
			r.build(ci)
		}
		found := false
		for _, s := range ci.m[hashVals(vals)] {
			t := r.rows[s]
			if !projEqual(t, pos, vals) {
				continue // projection-hash collision
			}
			found = true
			if !each(t) {
				return true
			}
		}
		return found
	}
	found := false
	for _, t := range r.rows {
		if projEqual(t, pos, vals) {
			found = true
			if !each(t) {
				return true
			}
		}
	}
	return found
}

// tupleSet is a hash set of tuples with collision buckets — the incremental
// evaluator's membership filter for batch views.
type tupleSet struct {
	m map[uint64][]Tuple
}

func newTupleSet() *tupleSet { return &tupleSet{m: map[uint64][]Tuple{}} }

func (s *tupleSet) add(t Tuple) { s.addNew(t) }

// addNew inserts t and reports whether it was absent — membership check
// and insertion in one hash, for accept paths that do both.
func (s *tupleSet) addNew(t Tuple) bool {
	h := hashTuple(t)
	for _, x := range s.m[h] {
		if x.Equal(t) {
			return false
		}
	}
	s.m[h] = append(s.m[h], t)
	return true
}

func (s *tupleSet) has(t Tuple) bool {
	if len(s.m) == 0 {
		return false // skip the tuple hash entirely on empty sets
	}
	for _, x := range s.m[hashTuple(t)] {
		if x.Equal(t) {
			return true
		}
	}
	return false
}

// tupleCounts maps tuples to signed counts (derivation multiplicities and
// batch-delta accumulation), preserving first-seen order for deterministic
// realization. Dropped entries leave tombstones (nil tuple) compacted once
// they dominate, so long-lived maintained counts track the live fixpoint
// rather than every tuple ever derived.
type tupleCounts struct {
	m    map[uint64][]int
	ents []tcEntry
	dead int
}

type tcEntry struct {
	t Tuple
	n int
}

func newTupleCounts() *tupleCounts { return &tupleCounts{m: map[uint64][]int{}} }

// add adjusts t's count by d, creating the entry at zero first, and returns
// the count before and after.
func (c *tupleCounts) add(t Tuple, d int) (old, now int) {
	h := hashTuple(t)
	for _, i := range c.m[h] {
		if c.ents[i].t.Equal(t) {
			old = c.ents[i].n
			c.ents[i].n = old + d
			return old, old + d
		}
	}
	c.m[h] = append(c.m[h], len(c.ents))
	c.ents = append(c.ents, tcEntry{t: t, n: d})
	return 0, d
}

// get returns t's current count without creating an entry.
func (c *tupleCounts) get(t Tuple) int {
	if len(c.m) == 0 {
		return 0
	}
	for _, i := range c.m[hashTuple(t)] {
		if c.ents[i].t.Equal(t) {
			return c.ents[i].n
		}
	}
	return 0
}

// drop removes t's entry entirely (callers drop maintained counts that
// returned to zero).
func (c *tupleCounts) drop(t Tuple) {
	h := hashTuple(t)
	bucket := c.m[h]
	for i, idx := range bucket {
		if c.ents[idx].t.Equal(t) {
			c.ents[idx] = tcEntry{}
			c.m[h] = append(bucket[:i], bucket[i+1:]...)
			if len(c.m[h]) == 0 {
				delete(c.m, h)
			}
			c.dead++
			c.maybeCompact()
			return
		}
	}
}

// maybeCompact squeezes out tombstones (preserving first-seen order) once
// they dominate, rebuilding the index.
func (c *tupleCounts) maybeCompact() {
	if c.dead <= 32 || c.dead*2 <= len(c.ents) {
		return
	}
	live := make([]tcEntry, 0, len(c.ents)-c.dead)
	for _, e := range c.ents {
		if e.t != nil {
			live = append(live, e)
		}
	}
	c.ents = live
	c.dead = 0
	c.m = make(map[uint64][]int, nextPow2(len(live)))
	for i, e := range live {
		c.m[hashTuple(e.t)] = append(c.m[hashTuple(e.t)], i)
	}
}

// nextPow2 rounds up to a power of two (initial sizing hints).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
