package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"

	"hydro/internal/datalog"
)

// A snapshot is an ordered run of key-value entries; lexicographic key
// order is the file order:
//
//	c/<pred>/<index %010d>  → tuple ‖ uvarint count   (derivation counts)
//	m/seq                   → uvarint seq              (last seq covered)
//	r/<name>                → uvarint arity            (relation header)
//	t/<name>/<index %010d>  → tuple                    (insertion order)
//
// File format: 8-byte magic "HYSNAP1\n", then per entry (uvarint key length,
// key, uvarint value length, value), then a u32 LE CRC32C of everything
// before it. The file is written to a temp name, fsynced, and renamed over
// the live snapshot — commit is the rename, so recovery sees either the old
// snapshot or the new one, never a hybrid; the CRC rejects any torn temp
// file that was renamed by a buggy layer anyway.

const (
	snapName    = "snapshot.snap"
	snapTmpName = "snapshot.snap.tmp"
	snapMagic   = "HYSNAP1\n"
)

// snapGroup is a run of entries adjacent in key order: the indexed entries
// under one "c/<pred>/" or "t/<name>/" prefix, or a single whole key.
type snapGroup struct {
	prefix  string
	indexed bool
	n       int
	value   func(b []byte, i int) ([]byte, error) // appends entry i's value to b
}

// encodeSnapshot serializes a fixpoint state (plus the seq it covers) to
// the on-disk image (CRC-trailed). No prefix is a prefix of another (names
// hold no '/'), so each group's keys are contiguous in key order and sorting
// the prefixes, then emitting each group by index, writes the file in key
// order. That is not State() order: "t/a.b/" sorts before "t/a/" although
// "r/a" sorts before "r/a.b" ('.' < '/').
func encodeSnapshot(seq uint64, fx *datalog.FixpointState) ([]byte, error) {
	uvarint := func(x uint64) func([]byte, int) ([]byte, error) {
		return func(b []byte, _ int) ([]byte, error) { return binary.AppendUvarint(b, x), nil }
	}
	groups := []snapGroup{{prefix: "m/seq", n: 1, value: uvarint(seq)}}
	for i := range fx.Relations {
		rs := &fx.Relations[i]
		if strings.ContainsRune(rs.Name, '/') {
			return nil, fmt.Errorf("durable: relation name %q contains '/'", rs.Name)
		}
		groups = append(groups,
			snapGroup{prefix: "r/" + rs.Name, n: 1, value: uvarint(uint64(rs.Arity))},
			snapGroup{prefix: "t/" + rs.Name + "/", indexed: true, n: len(rs.Tuples),
				value: func(b []byte, i int) ([]byte, error) { return appendTuple(b, rs.Tuples[i]) }})
	}
	for i := range fx.Counts {
		cs := &fx.Counts[i]
		groups = append(groups, snapGroup{prefix: "c/" + cs.Pred + "/", indexed: true, n: len(cs.Entries),
			value: func(b []byte, i int) ([]byte, error) {
				b, err := appendTuple(b, cs.Entries[i].Tuple)
				if err != nil {
					return nil, err
				}
				return binary.AppendUvarint(b, uint64(cs.Entries[i].Count)), nil
			}})
	}
	slices.SortFunc(groups, func(a, b snapGroup) int { return strings.Compare(a.prefix, b.prefix) })

	b := []byte(snapMagic)
	var key, val []byte
	var err error
	for _, g := range groups {
		for i := 0; i < g.n; i++ {
			key = append(key[:0], g.prefix...)
			if g.indexed {
				key = appendIndex(key, i)
			}
			if val, err = g.value(val[:0], i); err != nil {
				return nil, err
			}
			b = binary.AppendUvarint(b, uint64(len(key)))
			b = append(b, key...)
			b = binary.AppendUvarint(b, uint64(len(val)))
			b = append(b, val...)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable)), nil
}

// appendIndex appends i zero-padded to ten digits (fmt's %010d), which
// makes key order within a group insertion order.
func appendIndex(b []byte, i int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(i), 10)
	for n := len(digits); n < 10; n++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// forEachSnapEntry verifies a snapshot image (magic + CRC) and streams its
// entries in file order. key and val alias data; the callback must not
// retain them.
func forEachSnapEntry(data []byte, f func(key, val []byte) error) error {
	if len(data) < len(snapMagic)+4 {
		return fmt.Errorf("durable: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("durable: bad snapshot magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("durable: snapshot CRC mismatch")
	}
	b := body[len(snapMagic):]
	for len(b) > 0 {
		klen, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < klen {
			return fmt.Errorf("durable: snapshot entry: truncated key")
		}
		key := b[sz : sz+int(klen)]
		b = b[sz+int(klen):]
		vlen, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < vlen {
			return fmt.Errorf("durable: snapshot entry %q: truncated value", key)
		}
		val := b[sz : sz+int(vlen)]
		b = b[sz+int(vlen):]
		if err := f(key, val); err != nil {
			return err
		}
	}
	return nil
}

// snapSeqOf extracts just the covered seq from a snapshot image — what Open
// needs to compute the replay floor without materializing the whole state.
func snapSeqOf(data []byte) (uint64, error) {
	var seq uint64
	found := false
	errStop := fmt.Errorf("stop")
	err := forEachSnapEntry(data, func(key, val []byte) error {
		if string(key) == "m/seq" {
			seq, _ = binary.Uvarint(val)
			found = true
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("durable: snapshot has no m/seq entry")
	}
	return seq, nil
}

// unstageBytes rebuilds a FixpointState from a snapshot image, append-only:
// every 'r/' header precedes every 't/' entry, headers arrive sorted by
// name (State()'s relation order), and the zero-padded indexes deliver each
// group's tuples in insertion order and its count entries first-seen.
func unstageBytes(data []byte) (seq uint64, fx *datalog.FixpointState, err error) {
	fx = &datalog.FixpointState{}
	// A first pass sizes each relation's tuple list: append-growing a list of
	// tens of thousands of tuples costs more than decoding them.
	sizes := map[string]int{}
	var group []byte // name of the tuple group being counted (aliases data)
	n := 0
	err = forEachSnapEntry(data, func(key, _ []byte) error {
		if len(key) > 2 && key[0] == 't' {
			if i := bytes.LastIndexByte(key[2:], '/'); i >= 0 {
				if name := key[2 : 2+i]; !bytes.Equal(name, group) {
					sizes[string(group)] += n
					group, n = name, 0
				}
				n++
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	sizes[string(group)] += n
	relIdx := -1 // fx.Relations index of the open 't/' group
	var arena tupleArena
	err = forEachSnapEntry(data, func(key, val []byte) error {
		if len(key) < 2 || key[1] != '/' {
			return fmt.Errorf("durable: unknown snapshot key %q", key)
		}
		switch key[0] {
		case 'm':
			if string(key) != "m/seq" {
				return fmt.Errorf("durable: unknown snapshot key %q", key)
			}
			seq, _ = binary.Uvarint(val)
		case 'r':
			arity, _ := binary.Uvarint(val)
			name := string(key[2:])
			fx.Relations = append(fx.Relations, datalog.RelationState{Name: name, Arity: int(arity), Tuples: make([]datalog.Tuple, 0, sizes[name])})
		case 't':
			i := bytes.LastIndexByte(key[2:], '/')
			if i < 0 {
				return fmt.Errorf("durable: malformed tuple key %q", key)
			}
			name := key[2 : 2+i]
			// Tuple groups do not arrive in header order ("t/a.b/" sorts
			// before "t/a/"), so a new group finds its relation by name
			// (string(name) in a comparison does not allocate).
			if relIdx < 0 || fx.Relations[relIdx].Name != string(name) {
				relIdx = slices.IndexFunc(fx.Relations, func(rs datalog.RelationState) bool { return rs.Name == string(name) })
				if relIdx < 0 {
					return fmt.Errorf("durable: tuple key %q has no relation header", key)
				}
			}
			t, rest, terr := readTupleAlloc(val, &arena)
			if terr != nil || len(rest) != 0 {
				return fmt.Errorf("durable: snapshot tuple %q: %v", key, terr)
			}
			fx.Relations[relIdx].Tuples = append(fx.Relations[relIdx].Tuples, t)
		case 'c':
			i := bytes.LastIndexByte(key[2:], '/')
			if i < 0 {
				return fmt.Errorf("durable: malformed count key %q", key)
			}
			pred := key[2 : 2+i]
			if n := len(fx.Counts); n == 0 || fx.Counts[n-1].Pred != string(pred) {
				fx.Counts = append(fx.Counts, datalog.CountsState{Pred: string(pred)})
			}
			t, rest, terr := readTuple(val)
			if terr != nil {
				return fmt.Errorf("durable: snapshot count %q: %v", key, terr)
			}
			n, sz := binary.Uvarint(rest)
			if sz <= 0 || sz != len(rest) {
				return fmt.Errorf("durable: malformed count value for %q", key)
			}
			cs := &fx.Counts[len(fx.Counts)-1]
			cs.Entries = append(cs.Entries, datalog.CountEntry{Tuple: t, Count: int(n)})
		default:
			return fmt.Errorf("durable: unknown snapshot key %q", key)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return seq, fx, nil
}
