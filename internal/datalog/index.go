package datalog

import (
	"fmt"
	"math/bits"
	"sort"
)

// This file is the hashing and ordering half of the storage core: the word
// hash and the open-addressed tables behind a relation's membership set,
// built with the relation, and the column indexes it builds on first probe
// — the "access path" machinery of §5.1 in compiled form — plus the
// deterministic tuple order.

const (
	wordSeed uint64 = 0x2545f4914f6cdd1d
	wordMul  uint64 = 0x9e3779b97f4a7c15
)

// mixWord folds one word into a hash state: one 64×64→128 multiply, halves
// xored. Tables index by the high bits.
func mixWord(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, wordMul)
	return hi ^ lo
}

// hashWords hashes a key.
func hashWords(key []uint64) uint64 {
	h := wordSeed
	for _, w := range key {
		h = mixWord(h, w)
	}
	return h
}

// hashProj is hashWords of row's projection onto pos, unmaterialized.
func hashProj(row []uint64, pos []int) uint64 {
	h := wordSeed
	for _, p := range pos {
		h = mixWord(h, row[p])
	}
	return h
}

// projEqual reports whether row's columns at pos equal key elementwise.
func projEqual(row []uint64, pos []int, key []uint64) bool {
	for i, p := range pos {
		if row[p] != key[i] {
			return false
		}
	}
	return true
}

var firstCols = [...]int{0, 1, 2, 3, 4, 5, 6, 7}

// allCols returns 0..arity-1: the membership set's column list.
func allCols(arity int) []int {
	if arity <= len(firstCols) {
		return firstCols[:arity]
	}
	pos := make([]int, arity)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// colIndex is an open-addressed (linear probing, at most half full) table
// from the words of a column subset to the rows holding them. A cell names
// the last row of its key's bucket; the bucket's rows are linked through
// next in insertion order, circularly (last → first), so appending and
// enumerating from the first row both start from the one cell. The
// membership set is the same table over all columns, whose buckets are
// single rows and need no links. Both are maintained on Insert and Delete;
// enumeration order is insertion order, never hash order.
type colIndex struct {
	pos     []int
	chained bool    // buckets hold many rows; false for the membership set
	cells   []int32 // slot+1 of the bucket's last row; 0 = empty
	shift   uint    // 64 − log2(len(cells))
	used    int
	next    []int32 // per slot, when chained
}

const minCells = 8

func (ci *colIndex) alloc(n int) {
	ci.cells = make([]int32, n)
	ci.shift = uint(64 - bits.TrailingZeros(uint(n)))
	ci.used = 0
}

// build indexes every live row of r from scratch, in slot order.
func (ci *colIndex) build(r *Relation) {
	ci.alloc(max(minCells, nextPow2(2*r.Len())))
	n := r.slots()
	if ci.chained {
		ci.next = make([]int32, 0, cap(r.rows)/r.stride)
	}
	for s := 0; s < n; s++ {
		switch {
		case !r.live(s):
			if ci.chained {
				ci.next = append(ci.next, -1)
			}
		case ci.chained:
			ci.add(r, s)
		default:
			ci.place(r, int32(s+1)) // rows are distinct: no probe for an equal one
			ci.used++
		}
	}
}

// place puts cell value c (naming a row no cell names yet) in the first
// empty cell from its home.
func (ci *colIndex) place(r *Relation, c int32) {
	mask := len(ci.cells) - 1
	i := ci.home(r, c)
	for ci.cells[i] != 0 {
		i = (i + 1) & mask
	}
	ci.cells[i] = c
}

// find probes for key (the words of ci.pos, in order): the cell where the
// probe ended and the slot it names, -1 at an empty cell.
func (ci *colIndex) find(r *Relation, key []uint64) (cell, slot int) {
	mask := len(ci.cells) - 1
	for i := int(hashWords(key) >> ci.shift); ; i = (i + 1) & mask {
		c := int(ci.cells[i])
		if c == 0 {
			return i, -1
		}
		if projEqual(r.rows[(c-1)*r.stride:], ci.pos, key) {
			return i, c - 1
		}
	}
}

// put fills the empty cell a find ended at.
func (ci *colIndex) put(r *Relation, cell, slot int) {
	ci.cells[cell] = int32(slot + 1)
	ci.used++
	if ci.used*2 > len(ci.cells) {
		ci.grow(r)
	}
}

func (ci *colIndex) home(r *Relation, c int32) int {
	return int(hashProj(r.rows[int(c-1)*r.stride:], ci.pos) >> ci.shift)
}

// grow doubles the table; a cell's key is read off the row it names.
func (ci *colIndex) grow(r *Relation) {
	old := ci.cells
	used := ci.used
	ci.alloc(2 * len(old))
	ci.used = used
	for _, c := range old {
		if c != 0 {
			ci.place(r, c)
		}
	}
}

// removeCell empties cell i, shifting back the cells that probed past it.
func (ci *colIndex) removeCell(r *Relation, i int) {
	mask := len(ci.cells) - 1
	for j := (i + 1) & mask; ci.cells[j] != 0; j = (j + 1) & mask {
		// The cell at j may move to i unless its home lies cyclically in (i, j].
		k := ci.home(r, ci.cells[j])
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			ci.cells[i] = ci.cells[j]
			i = j
		}
	}
	ci.cells[i] = 0
	ci.used--
}

// add appends the live row at slot — the newest slot — to its key's bucket.
func (ci *colIndex) add(r *Relation, slot int) {
	row := r.rows[slot*r.stride:]
	mask := len(ci.cells) - 1
	for i := int(hashProj(row, ci.pos) >> ci.shift); ; i = (i + 1) & mask {
		c := int(ci.cells[i])
		if c == 0 {
			ci.next = append(ci.next, int32(slot))
			ci.put(r, i, slot)
			return
		}
		last := c - 1
		if sameProj(r.rows[last*r.stride:], row, ci.pos) {
			ci.next = append(ci.next, ci.next[last])
			ci.next[last] = int32(slot)
			ci.cells[i] = int32(slot + 1)
			return
		}
	}
}

func sameProj(a, b []uint64, pos []int) bool {
	for _, p := range pos {
		if a[p] != b[p] {
			return false
		}
	}
	return true
}

// remove unlinks the row at slot (still intact) from its bucket, keeping
// the others in insertion order.
func (ci *colIndex) remove(r *Relation, slot int) {
	row := r.rows[slot*r.stride:]
	mask := len(ci.cells) - 1
	i := int(hashProj(row, ci.pos) >> ci.shift)
	for !sameProj(r.rows[int(ci.cells[i]-1)*r.stride:], row, ci.pos) {
		i = (i + 1) & mask
	}
	last := int(ci.cells[i] - 1)
	p := last
	for int(ci.next[p]) != slot {
		p = int(ci.next[p])
	}
	switch {
	case p == slot:
		ci.removeCell(r, i) // the bucket's only row
	case slot == last:
		ci.cells[i] = int32(p + 1)
		fallthrough
	default:
		ci.next[p] = ci.next[slot]
	}
}

// bucket returns the first and last slots of key's bucket, -1 if none:
//
//	for s, last := ci.bucket(r, key); s >= 0; s = ci.after(s, last) { … }
func (ci *colIndex) bucket(r *Relation, key []uint64) (first, last int) {
	_, last = ci.find(r, key)
	if last < 0 {
		return -1, -1
	}
	return int(ci.next[last]), last
}

// after steps a bucket enumeration.
func (ci *colIndex) after(s, last int) int {
	if s == last {
		return -1
	}
	return int(ci.next[s])
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
// by Relation.Tuples. The specific order is arbitrary but fixed; every kind
// the value codec keeps distinct (int and int64 included) has its own rank,
// so the order is a strict weak order on values.
func typeRank(v any) int {
	switch v.(type) {
	case bool:
		return 0
	case int:
		return 1
	case int64:
		return 2
	case uint64:
		return 3
	case float64:
		return 4
	case string:
		return 5
	}
	return 6
}

// valueLess is a deterministic total order on tuple elements: type rank
// first, then value.
func valueLess(a, b any) bool {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		return ra < rb
	}
	switch x := a.(type) {
	case bool:
		return !x && b.(bool)
	case int:
		return x < b.(int)
	case int64:
		return x < b.(int64)
	case uint64:
		return x < b.(uint64)
	case float64:
		return x < b.(float64)
	case string:
		return x < b.(string)
	}
	return fmt.Sprint(a) < fmt.Sprint(b)
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
