package durable

import (
	"encoding/binary"
	"fmt"
	"math"

	"hydro/internal/datalog"
)

// Binary value codec for changelog tuples and a snapshot's dictionary
// values. Every dynamic type the engine stores in tuples gets its own tag so
// values round-trip to the exact Go type — datalog.Tuple equality is typed,
// so decoding an int64 back as int would silently break joins. Integers use
// varints (zigzag where signed), float64 is 8 fixed bytes, strings are
// length-prefixed. The encoding is canonical: one value, one byte sequence,
// and the reader refuses any other (an overlong varint), so an image that
// decodes re-encodes to itself.

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
	case tagTrue:
		return true, b, nil
	case tagFalse:
		return false, b, nil
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
	n, b, err := readUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("durable: truncated tuple header")
	}
	t := make(datalog.Tuple, n)
	for i := range t {
		if t[i], b, err = readValue(b); err != nil {
			return nil, nil, err
		}
	}
	return t, b, nil
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
