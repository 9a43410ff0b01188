package durable

import (
	"encoding/binary"
	"fmt"
	"math"

	"hydro/internal/datalog"
)

// The row framing snapshot images and changelog records share: a
// datalog.Batch, its values table and then its runs of word rows, up to the
// end of the body holding it.
//
//	batch    = uvarint n ‖ n × value ‖ run*
//	run      = [flag byte, in records only: 1 = deletes] ‖ name ‖ uvarint arity
//	           ‖ uvarint rows ‖ rows × max(arity, 1) uvarint words
//
// Words are opaque here. Each value has its own tag, so that it round-trips
// to the exact Go type (Tuple equality is typed: an int64 decoded as int
// would break joins). Integers are varints (zigzag where signed), float64 is
// 8 fixed bytes, strings are length-prefixed. The encoding is canonical —
// the reader refuses an overlong varint or another flag byte — so a body
// that decodes re-encodes to itself.

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
		return appendString(append(b, tagString), x), nil
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
		return nil, fmt.Errorf("durable: unsupported value type %T", v)
	}
}

func readValue(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("durable: truncated value")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagString:
		return readString(b)
	case tagInt64, tagInt:
		u, rest, err := readUvarint(b)
		v := int64(u>>1) ^ -int64(u&1) // zigzag, as binary.AppendVarint writes it
		if tag == tagInt {
			return int(v), rest, err
		}
		return v, rest, err
	case tagUint64:
		return readUvarint(b)
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("durable: truncated float value")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tagTrue, tagFalse:
		return tag == tagTrue, b, nil
	default:
		return nil, nil, fmt.Errorf("durable: unknown value tag %d", tag)
	}
}

// readUvarint decodes a uvarint the codec could have written: truncated and
// overlong encodings are errors.
func readUvarint(b []byte) (uint64, []byte, error) {
	x, sz := binary.Uvarint(b)
	if sz <= 0 || sz > 1 && b[sz-1] == 0 {
		return 0, nil, fmt.Errorf("durable: malformed varint")
	}
	return x, b[sz:], nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil || uint64(len(b)) < n {
		return "", nil, fmt.Errorf("durable: truncated string")
	}
	return string(b[:n]), b[n:], nil
}

// maxArity bounds a relation's arity, so that a damaged body cannot make
// the decoder allocate a column list of any size.
const maxArity = 1 << 10

// appendBatch appends bt's framing; flags writes each run's delete flag.
func appendBatch(b []byte, bt *datalog.Batch, flags bool) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(bt.Values)))
	var err error
	for _, v := range bt.Values {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	for _, r := range bt.Runs {
		if r.Arity > maxArity {
			return nil, fmt.Errorf("durable: relation %s has arity %d, over %d", r.Name, r.Arity, maxArity)
		}
		if flags && r.Del {
			b = append(b, 1)
		} else if flags {
			b = append(b, 0)
		}
		b = appendString(b, r.Name)
		b = binary.AppendUvarint(b, uint64(r.Arity))
		b = binary.AppendUvarint(b, uint64(len(r.Rows)/max(r.Arity, 1)))
		for _, w := range r.Rows {
			b = binary.AppendUvarint(b, w)
		}
	}
	return b, nil
}

// reader decodes a body; after the first error every read returns zero.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, rest, err := readUvarint(r.b)
	r.b, r.err = rest, err
	return x
}

// length reads the number of elements that follow, each at least size
// bytes long, so that no count can outrun the body.
func (r *reader) length(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.err = fmt.Errorf("durable: %d elements of %d bytes overrun the body", n, size)
		return 0
	}
	return int(n)
}

// readBatch decodes a whole body appendBatch wrote with the same flags.
func readBatch(body []byte, flags bool) (*datalog.Batch, error) {
	r := &reader{b: body}
	bt := &datalog.Batch{Values: make([]any, r.length(1))}
	for i := range bt.Values {
		if r.err == nil {
			bt.Values[i], r.b, r.err = readValue(r.b)
		}
	}
	for r.err == nil && len(r.b) > 0 {
		run := datalog.Run{}
		if flags {
			if r.b[0] > 1 {
				return nil, fmt.Errorf("durable: run flag %d", r.b[0])
			}
			run.Del, r.b = r.b[0] == 1, r.b[1:]
		}
		if run.Name, r.b, r.err = readString(r.b); r.err != nil {
			break
		}
		arity := r.uvarint()
		if arity > maxArity {
			return nil, fmt.Errorf("durable: relation %s has arity %d, over %d", run.Name, arity, maxArity)
		}
		run.Arity = int(arity)
		stride := max(run.Arity, 1)
		run.Rows = make([]uint64, r.length(stride)*stride)
		for i := range run.Rows {
			run.Rows[i] = r.uvarint()
		}
		bt.Runs = append(bt.Runs, run)
	}
	if r.err != nil {
		return nil, r.err
	}
	return bt, nil
}
