package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"hydro/internal/datalog"
)

// A snapshot image frames a datalog.FixpointState — the evaluator's own
// dictionary values and slab rows — with the seq it covers:
//
//	image    = magic "HYSNAP3\n" ‖ u64 LE seq ‖ values ‖ relation* ‖ u32 LE CRC32C
//	values   = uvarint n ‖ n × value (codec.go)
//	relation = name ‖ uvarint arity ‖ uvarint rows ‖ rows × max(arity, 1) uvarint words
//
// Relations run in State() order up to the trailer. An image of an older
// format (HYSNAP2 carried a derivation-count column per relation) has
// another magic and is refused, not misparsed. Words are opaque here: an
// inline integer is its own word, a dictionary word names a value by its
// dense first-use id, so a row costs about its words' varints. The file is
// written to a temp name, fsynced, and renamed over the live snapshot —
// commit is the rename, so recovery sees either the old snapshot or the new
// one, never a hybrid; the CRC rejects any torn temp file that was renamed
// by a buggy layer anyway.

const (
	snapName    = "snapshot.snap"
	snapTmpName = "snapshot.snap.tmp"
	snapMagic   = "HYSNAP3\n"
	snapHdrLen  = len(snapMagic) + 8
	// maxArity bounds a relation's arity, so that a damaged image cannot
	// make the decoder allocate a column list of any size.
	maxArity = 1 << 10
)

// encodeSnapshot frames a fixpoint state (plus the seq it covers) as a
// CRC-trailed image.
func encodeSnapshot(seq uint64, fx *datalog.FixpointState) ([]byte, error) {
	b := binary.LittleEndian.AppendUint64([]byte(snapMagic), seq)
	b = binary.AppendUvarint(b, uint64(len(fx.Values)))
	var err error
	for _, v := range fx.Values {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	for _, rs := range fx.Relations {
		if rs.Arity > maxArity {
			return nil, fmt.Errorf("durable: relation %s has arity %d, over %d", rs.Name, rs.Arity, maxArity)
		}
		b = appendString(b, rs.Name)
		b = binary.AppendUvarint(b, uint64(rs.Arity))
		b = binary.AppendUvarint(b, uint64(len(rs.Rows)/max(rs.Arity, 1)))
		for _, w := range rs.Rows {
			b = binary.AppendUvarint(b, w)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable)), nil
}

// snapHeader verifies an image's magic and CRC and returns the seq it
// covers and the body between header and trailer.
func snapHeader(data []byte) (seq uint64, body []byte, err error) {
	if len(data) < snapHdrLen+4 {
		return 0, nil, fmt.Errorf("durable: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("durable: bad snapshot magic")
	}
	end := len(data) - 4
	if crc32.Checksum(data[:end], crcTable) != binary.LittleEndian.Uint32(data[end:]) {
		return 0, nil, fmt.Errorf("durable: snapshot CRC mismatch")
	}
	return binary.LittleEndian.Uint64(data[len(snapMagic):]), data[snapHdrLen:end], nil
}

// snapReader decodes an image body; after the first error every read
// returns zero.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, rest, err := readUvarint(r.b)
	r.b, r.err = rest, err
	return x
}

// length reads the number of elements that follow, each at least size
// bytes long, so that no count can outrun the image.
func (r *snapReader) length(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.err = fmt.Errorf("durable: snapshot: %d elements of %d bytes overrun the image", n, size)
		return 0
	}
	return int(n)
}

// decodeSnapshot rebuilds the fixpoint state an image frames.
func decodeSnapshot(data []byte) (seq uint64, fx *datalog.FixpointState, err error) {
	seq, body, err := snapHeader(data)
	if err != nil {
		return 0, nil, err
	}
	r := &snapReader{b: body}
	fx = &datalog.FixpointState{Values: make([]any, r.length(1))}
	for i := range fx.Values {
		if r.err == nil {
			fx.Values[i], r.b, r.err = readValue(r.b)
		}
	}
	for r.err == nil && len(r.b) > 0 {
		rs := datalog.RelationState{}
		if rs.Name, r.b, r.err = readString(r.b); r.err != nil {
			break
		}
		arity := r.uvarint()
		if arity > maxArity {
			r.err = fmt.Errorf("durable: snapshot: relation %s has arity %d, over %d", rs.Name, arity, maxArity)
			break
		}
		rs.Arity = int(arity)
		stride := max(rs.Arity, 1)
		n := r.length(stride)
		rs.Rows = make([]uint64, n*stride)
		for i := range rs.Rows {
			rs.Rows[i] = r.uvarint()
		}
		fx.Relations = append(fx.Relations, rs)
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	return seq, fx, nil
}
