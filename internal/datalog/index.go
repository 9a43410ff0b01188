package datalog

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// This file is the hashing and ordering half of the storage core: 64-bit
// typed FNV-1a hashing of tuple values, the incrementally maintained column
// indexes Relation builds on first probe — the "access path" machinery of
// §5.1 in compiled form — and the deterministic tuple order.

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

// nextPow2 rounds up to a power of two (initial sizing hints).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
