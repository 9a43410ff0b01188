package durable

import (
	"encoding/binary"
	"fmt"
	"math"

	"hydro/internal/datalog"
)

// Binary value codec for changelog records and snapshot entries. Every
// dynamic type the engine stores in tuples gets its own tag so values
// round-trip to the exact Go type — datalog.Tuple equality is typed, so
// decoding an int64 back as int would silently break joins. Integers use
// varints (zigzag where signed), float64 is 8 fixed bytes, strings are
// length-prefixed. The encoding is deterministic: one value, one byte
// sequence.

const (
	tagString  byte = 1
	tagInt64   byte = 2
	tagInt     byte = 3
	tagUint64  byte = 4
	tagFloat64 byte = 5
	tagTrue    byte = 6
	tagFalse   byte = 7
)

func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		b = append(b, tagString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt64), x), nil
	case int:
		return binary.AppendVarint(append(b, tagInt), int64(x)), nil
	case uint64:
		return binary.AppendUvarint(append(b, tagUint64), x), nil
	case float64:
		b = append(b, tagFloat64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x)), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	default:
		return nil, fmt.Errorf("durable: unsupported tuple value type %T", v)
	}
}

func readValue(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("durable: truncated value")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagString:
		n, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < n {
			return nil, nil, fmt.Errorf("durable: truncated string value")
		}
		return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
	case tagInt64, tagInt:
		v, sz := binary.Varint(b)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("durable: truncated integer value")
		}
		if tag == tagInt {
			return int(v), b[sz:], nil
		}
		return v, b[sz:], nil
	case tagUint64:
		v, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("durable: truncated unsigned value")
		}
		return v, b[sz:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("durable: truncated float value")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tagTrue:
		return true, b, nil
	case tagFalse:
		return false, b, nil
	default:
		return nil, nil, fmt.Errorf("durable: unknown value tag %d", tag)
	}
}

func appendTuple(b []byte, t datalog.Tuple) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(t)))
	var err error
	for _, v := range t {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func readTuple(b []byte) (datalog.Tuple, []byte, error) {
	return readTupleAlloc(b, nil)
}

// readTupleAlloc decodes a tuple, taking its backing storage from arena
// when non-nil — recovery decodes tens of thousands of tuples, and one
// slab allocation per batch beats one slice header per tuple.
func readTupleAlloc(b []byte, arena *tupleArena) (datalog.Tuple, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("durable: truncated tuple header")
	}
	b = b[sz:]
	var t datalog.Tuple
	if arena != nil {
		t = arena.take(int(n))
	} else {
		t = make(datalog.Tuple, n)
	}
	var err error
	for i := range t {
		if arena != nil && len(b) > 0 && b[0] == tagInt64 {
			// Recovery's commonest value, boxed once per distinct integer.
			v, sz := binary.Varint(b[1:])
			if sz <= 0 {
				return nil, nil, fmt.Errorf("durable: truncated integer value")
			}
			t[i], b = arena.box(v), b[1+sz:]
			continue
		}
		if t[i], b, err = readValue(b); err != nil {
			return nil, nil, err
		}
	}
	return t, b, nil
}

// tupleArena hands out tuple backing storage from large slabs, and boxed
// int64s from a small direct-mapped cache: a snapshot names the same few
// thousand ids in every relation, and boxing each occurrence afresh was a
// third of the decode's allocations.
type tupleArena struct {
	slab []any
	ints [1024]struct {
		v     int64
		boxed any
	}
}

func (a *tupleArena) box(v int64) any {
	e := &a.ints[uint64(v)%uint64(len(a.ints))]
	if e.boxed == nil || e.v != v {
		e.v, e.boxed = v, v
	}
	return e.boxed
}

func (a *tupleArena) take(n int) datalog.Tuple {
	if n == 0 {
		return datalog.Tuple{}
	}
	if len(a.slab) < n {
		size := 4096
		if n > size {
			size = n
		}
		a.slab = make([]any, size)
	}
	t := a.slab[:n:n]
	a.slab = a.slab[n:]
	return datalog.Tuple(t)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", nil, fmt.Errorf("durable: truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}
