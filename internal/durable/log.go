package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"hydro/internal/datalog"
)

// The changelog is a single append-only file:
//
//	header:  8-byte magic "HYWAL02\n" | u64 LE baseSeq
//	record:  u32 LE payload length | u32 LE CRC32C(payload) | payload
//	payload: uvarint seq ‖ batch (codec.go, with flags)
//
// A payload's batch is datalog.Delta.Batch's capture of one tick: its
// realized base-relation changes in exact application order. baseSeq is the
// seq the log starts after (the snapshot seq at the last rotation); records
// carry their own seq so recovery replays exactly the suffix the snapshot
// does not cover even when a crash landed between snapshot commit and log
// rotation. A torn tail — a short length or a CRC mismatch from a crash
// mid-append — is truncated away on open; everything before it is intact by
// CRC. A log of another magic (HYWAL01 boxed each op's tuple) is refused.

const (
	walName    = "wal.log"
	walTmpName = "wal.log.tmp"
	walMagic   = "HYWAL02\n"
	walHdrLen  = len(walMagic) + 8
	recHdrLen  = 8 // u32 len + u32 crc
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

// logRecord is one decoded changelog entry and its offset in the file.
type logRecord struct {
	seq   uint64
	batch *datalog.Batch
	start int64
}

// encodeRecord frames one record (header + payload) into buf's storage,
// ready to append.
func encodeRecord(buf []byte, seq uint64, b *datalog.Batch) ([]byte, error) {
	rec := binary.AppendUvarint(append(buf[:0], make([]byte, recHdrLen)...), seq)
	rec, err := appendBatch(rec, b, true)
	if err != nil {
		return nil, err
	}
	payload := rec[recHdrLen:]
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, crcTable))
	return rec, nil
}

func decodePayload(payload []byte) (rec logRecord, err error) {
	if rec.seq, payload, err = readUvarint(payload); err != nil {
		return rec, fmt.Errorf("durable: truncated record seq")
	}
	rec.batch, err = readBatch(payload, true)
	return rec, err
}

// scanLog walks a changelog image, returning the valid records, the byte
// offset the file should be truncated to (the end
// of the last valid record), and the header's base sequence. A torn or
// corrupt tail stops the scan without error — that is the expected
// post-crash state; only a corrupt header (magic mismatch on a full-length
// header) is fatal, since it means the file is not ours.
func scanLog(data []byte) (recs []logRecord, validLen int64, baseSeq uint64, err error) {
	if len(data) < walHdrLen {
		// Torn header (crash during initial creation): recreate from zero.
		return nil, 0, 0, nil
	}
	if baseSeq, err = decodeLogHeader(data); err != nil {
		return nil, 0, 0, err
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
			return nil, 0, 0, fmt.Errorf("durable: record at offset %d: %w", off, derr)
		}
		if rec.seq != prev+1 {
			return nil, 0, 0, fmt.Errorf("durable: record at offset %d has seq %d, want %d", off, rec.seq, prev+1)
		}
		prev, rec.start = rec.seq, off
		recs = append(recs, rec)
		off = end
	}
	return recs, off, baseSeq, nil
}
