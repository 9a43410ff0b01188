package datalog

import "math"

// This file is the value codec: inside the package a tuple element is a
// 64-bit word. int64, int and bool travel inline under a three-bit tag;
// every other value — integers that do not fit 61 bits, uint64, float64,
// string, any other comparable Go value — is a dictionary id. Two words are
// equal exactly when the values they came from have the same dynamic type
// and are == (floats: the same bits, so NaN equals itself and 0.0 differs
// from -0.0), and decode returns the Go value that went in. A word means
// nothing outside its dictionary: changelog records, exchange payloads and
// ShardOf decode first, and a snapshot leaves the process as words plus the
// dictionary values they name, renumbered densely in first-use order
// (persist.go).
const (
	tagInt64 uint64 = iota // int64 in the upper 61 bits
	tagInt                 // int in the upper 61 bits
	tagBool                // 0 or 1 in the upper bits
	tagDict                // index into dict.vals
	tagTemp                // index into dict.temps: a probed value the dictionary does not hold

	tagBits        = 3
	tagMask uint64 = 1<<tagBits - 1

	// tombWord marks a deleted row in its first word; no value encodes to it.
	tombWord = ^uint64(0)
)

// floatKey is a float64's dictionary key: its bits, so that map lookup
// agrees with word equality where == on floats would not.
type floatKey uint64

// dict interns the values that do not fit a word. A Database owns one and
// every relation made through it (Ensure, Scratch) shares it, so their
// words compare directly; a standalone NewRelation owns a private one. It
// only grows: ids stay valid for the life of the database.
type dict struct {
	vals  []any
	ids   map[any]uint64
	temps []any // see probe
	// boxed memoizes the boxed form of the int64s in [0, maxBoxed) that have
	// been decoded, by value: ids are small integers, and a result set would
	// otherwise allocate once per decoded occurrence.
	boxed []any
}

const maxBoxed = 1 << 16

func newDict() *dict { return &dict{ids: map[any]uint64{}} }

// inlineInt packs x under tag when it fits 61 bits.
func inlineInt(x int64, tag uint64) (uint64, bool) {
	w := uint64(x) << tagBits
	return w | tag, int64(w)>>tagBits == x
}

// inline encodes the values that need no dictionary.
func inline(v any) (uint64, bool) {
	switch x := v.(type) {
	case int64:
		return inlineInt(x, tagInt64)
	case int:
		return inlineInt(int64(x), tagInt)
	case bool:
		if x {
			return 1<<tagBits | tagBool, true
		}
		return tagBool, true
	}
	return 0, false
}

func dictKey(v any) any {
	if f, ok := v.(float64); ok {
		return floatKey(math.Float64bits(f))
	}
	return v
}

// lookup encodes v without interning it; ok is false for a value the
// dictionary has never seen, which therefore no relation sharing it holds.
func (d *dict) lookup(v any) (uint64, bool) {
	if w, ok := inline(v); ok {
		return w, true
	}
	id, ok := d.ids[dictKey(v)]
	return id<<tagBits | tagDict, ok
}

// encode returns v's word, interning v if need be.
func (d *dict) encode(v any) uint64 {
	if w, ok := d.lookup(v); ok {
		return w
	}
	id := uint64(len(d.vals))
	d.vals = append(d.vals, v)
	d.ids[dictKey(v)] = id
	return id<<tagBits | tagDict
}

// probe encodes a value that is only compared, bound and handed back (a
// caller's parameter to PreparedRule.Derive): a value the dictionary does
// not hold gets a transient word, equal only to the transient word of an
// equal value, that decodes until the next resetTemps. Reads intern nothing.
func (d *dict) probe(v any) uint64 {
	if w, ok := d.lookup(v); ok {
		return w
	}
	k := dictKey(v)
	for i, t := range d.temps {
		if dictKey(t) == k {
			return uint64(i)<<tagBits | tagTemp
		}
	}
	d.temps = append(d.temps, v)
	return uint64(len(d.temps)-1)<<tagBits | tagTemp
}

func (d *dict) resetTemps() { d.temps = d.temps[:0] }

// decode returns the value w was encoded from.
func (d *dict) decode(w uint64) any {
	switch w & tagMask {
	case tagInt64:
		x := int64(w) >> tagBits
		if uint64(x) >= maxBoxed {
			return x
		}
		if int(x) >= len(d.boxed) {
			d.boxed = append(d.boxed, make([]any, int(x)+1-len(d.boxed))...)
		}
		if d.boxed[x] == nil {
			d.boxed[x] = x
		}
		return d.boxed[x]
	case tagInt:
		return int(int64(w) >> tagBits)
	case tagBool:
		return w>>tagBits != 0
	case tagDict:
		return d.vals[w>>tagBits]
	}
	return d.temps[w>>tagBits]
}

// encodeRow appends t's words to dst.
func (d *dict) encodeRow(dst []uint64, t Tuple) []uint64 {
	for _, v := range t {
		dst = append(dst, d.encode(v))
	}
	return dst
}

// lookupRow appends the words of vals to dst without interning; ok is false
// if some value is unknown to the dictionary.
func (d *dict) lookupRow(dst []uint64, vals []any) ([]uint64, bool) {
	for _, v := range vals {
		w, ok := d.lookup(v)
		if !ok {
			return dst, false
		}
		dst = append(dst, w)
	}
	return dst, true
}

// decodeRow decodes row into dst, which has row's length.
func (d *dict) decodeRow(dst []any, row []uint64) Tuple {
	for i, w := range row {
		dst[i] = d.decode(w)
	}
	return dst
}

// tuple returns a fresh Tuple of the encoded row.
func (d *dict) tuple(row []uint64) Tuple { return d.decodeRow(make([]any, len(row)), row) }

// nextTuple decodes row into the front of *backing and advances it, so that
// a result's tuples share one allocation.
func (d *dict) nextTuple(backing *[]any, row []uint64) Tuple {
	n := len(row)
	t := d.decodeRow((*backing)[:n:n], row)
	*backing = (*backing)[n:]
	return t
}

// smallInt reports whether w is an inline integer, returning it.
func smallInt(w uint64) (int64, bool) {
	return int64(w) >> tagBits, w&tagMask <= tagInt
}

// compareWords is Compare on encoded operands, decoding only when the
// inline-integer fast path does not apply.
func (d *dict) compareWords(op CmpOp, l, r uint64) bool {
	a, okA := smallInt(l)
	b, okB := smallInt(r)
	if okA && okB {
		return compareOrdered(op, a, b)
	}
	return Compare(op, d.decode(l), d.decode(r))
}
