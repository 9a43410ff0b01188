package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"hydro/internal/datalog"
)

// A snapshot image frames the datalog.Batch State() captures — the
// evaluator's own dictionary values and slab rows, every relation once in
// name order — with the seq it covers:
//
//	image = magic "HYSNAP3\n" ‖ u64 LE seq ‖ batch (codec.go, no flags) ‖ u32 LE CRC32C
//
// An image of an older format (HYSNAP2 carried a derivation-count column
// per relation) has another magic and is refused, not misparsed. The file
// is written to a temp name, fsynced, and renamed over the live snapshot —
// commit is the rename, so recovery sees either the old snapshot or the new
// one, never a hybrid; the CRC rejects any torn temp file that was renamed
// by a buggy layer anyway.

const (
	snapName    = "snapshot.snap"
	snapTmpName = "snapshot.snap.tmp"
	snapMagic   = "HYSNAP3\n"
	snapHdrLen  = len(snapMagic) + 8
)

// encodeSnapshot frames a captured state (plus the seq it covers) as a
// CRC-trailed image.
func encodeSnapshot(seq uint64, st *datalog.Batch) ([]byte, error) {
	b, err := appendBatch(binary.LittleEndian.AppendUint64([]byte(snapMagic), seq), st, false)
	if err != nil {
		return nil, err
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

// decodeSnapshot returns the state an image frames.
func decodeSnapshot(data []byte) (seq uint64, st *datalog.Batch, err error) {
	seq, body, err := snapHeader(data)
	if err != nil {
		return 0, nil, err
	}
	if st, err = readBatch(body, false); err != nil {
		return 0, nil, fmt.Errorf("durable: snapshot: %w", err)
	}
	return seq, st, nil
}
