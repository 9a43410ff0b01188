package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"hydro/internal/datalog"
)

// The changelog is a single append-only file:
//
//	header:  8-byte magic "HYWAL01\n" | u64 LE baseSeq
//	record:  u32 LE payload length | u32 LE CRC32C(payload) | payload
//	payload: uvarint seq | uvarint nops | nops × (op byte | pred | tuple)
//
// baseSeq is the sequence number the log starts after (the snapshot seq at
// the last rotation); records carry their own seq so recovery replays
// exactly the suffix the snapshot does not cover even when a crash landed
// between snapshot commit and log rotation. A torn tail — a partial record
// from a crash mid-append, detected by a short length or a CRC mismatch —
// is truncated away on open; everything before it is intact by CRC.

const (
	walName    = "wal.log"
	walTmpName = "wal.log.tmp"
	walMagic   = "HYWAL01\n"
	walHdrLen  = len(walMagic) + 8
	recHdrLen  = 8 // u32 len + u32 crc
	opDelete   = byte(1)
)

// crcTable is the Castagnoli polynomial (CRC32C) — hardware-accelerated on
// amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func encodeLogHeader(baseSeq uint64) []byte {
	b := make([]byte, 0, walHdrLen)
	b = append(b, walMagic...)
	return binary.LittleEndian.AppendUint64(b, baseSeq)
}

func decodeLogHeader(b []byte) (baseSeq uint64, err error) {
	if len(b) < walHdrLen {
		return 0, fmt.Errorf("durable: short changelog header")
	}
	if string(b[:len(walMagic)]) != walMagic {
		return 0, fmt.Errorf("durable: bad changelog magic %q", b[:len(walMagic)])
	}
	return binary.LittleEndian.Uint64(b[len(walMagic):walHdrLen]), nil
}

// logRecord is one decoded changelog entry: a tick's realized base-relation
// changes in exact application order.
type logRecord struct {
	seq uint64
	ops []datalog.DeltaOp
}

// encodeRecord frames one record (header + payload) ready to append.
func encodeRecord(seq uint64, ops []datalog.DeltaOp) ([]byte, error) {
	payload := binary.AppendUvarint(nil, seq)
	payload = binary.AppendUvarint(payload, uint64(len(ops)))
	var err error
	for _, op := range ops {
		flag := byte(0)
		if op.Del {
			flag = opDelete
		}
		payload = append(payload, flag)
		payload = appendString(payload, op.Pred)
		if payload, err = appendTuple(payload, op.T); err != nil {
			return nil, err
		}
	}
	framed := make([]byte, 0, recHdrLen+len(payload))
	framed = binary.LittleEndian.AppendUint32(framed, uint32(len(payload)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(payload, crcTable))
	return append(framed, payload...), nil
}

func decodePayload(payload []byte) (logRecord, error) {
	var rec logRecord
	seq, payload, err := readUvarint(payload)
	if err != nil {
		return rec, fmt.Errorf("durable: truncated record seq")
	}
	n, payload, err := readUvarint(payload)
	if err != nil || n > uint64(len(payload)) {
		return rec, fmt.Errorf("durable: truncated record op count")
	}
	rec.seq = seq
	rec.ops = make([]datalog.DeltaOp, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(payload) == 0 {
			return rec, fmt.Errorf("durable: truncated op")
		}
		var op datalog.DeltaOp
		op.Del = payload[0] == opDelete
		payload = payload[1:]
		if op.Pred, payload, err = readString(payload); err != nil {
			return rec, err
		}
		if op.T, payload, err = readTuple(payload); err != nil {
			return rec, err
		}
		rec.ops = append(rec.ops, op)
	}
	if len(payload) != 0 {
		return rec, fmt.Errorf("durable: %d trailing bytes in record", len(payload))
	}
	return rec, nil
}

// scanLog walks a changelog image, returning the valid records with their
// start offsets, the byte offset the file should be truncated to (the end
// of the last valid record), and the header's base sequence. A torn or
// corrupt tail stops the scan without error — that is the expected
// post-crash state; only a corrupt header (magic mismatch on a full-length
// header) is fatal, since it means the file is not ours.
func scanLog(data []byte) (recs []logRecord, starts []int64, validLen int64, baseSeq uint64, err error) {
	if len(data) < walHdrLen {
		// Torn header (crash during initial creation): recreate from zero.
		return nil, nil, 0, 0, nil
	}
	if baseSeq, err = decodeLogHeader(data); err != nil {
		return nil, nil, 0, 0, err
	}
	off := int64(walHdrLen)
	prev := baseSeq
	for int64(len(data))-off >= int64(recHdrLen) {
		plen := binary.LittleEndian.Uint32(data[off:])
		pcrc := binary.LittleEndian.Uint32(data[off+4:])
		end := off + int64(recHdrLen) + int64(plen)
		if end > int64(len(data)) {
			break // torn tail: record extends past EOF
		}
		payload := data[off+int64(recHdrLen) : end]
		if crc32.Checksum(payload, crcTable) != pcrc {
			break // torn or corrupt tail
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			// CRC-valid but undecodable: not a torn write — corruption or a
			// format skew. Refuse rather than silently dropping the suffix.
			return nil, nil, 0, 0, fmt.Errorf("durable: record at offset %d: %w", off, derr)
		}
		if rec.seq != prev+1 {
			return nil, nil, 0, 0, fmt.Errorf("durable: record at offset %d has seq %d, want %d", off, rec.seq, prev+1)
		}
		prev = rec.seq
		recs = append(recs, rec)
		starts = append(starts, off)
		off = end
	}
	return recs, starts, off, baseSeq, nil
}
