package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"testing"

	"hydro/internal/datalog"
)

// dottedTicks are the two ticks of TestSnapshotDottedNamesGolden: dotted
// names, an arity-0 relation, every value type the codec tags, a delete,
// and runs of one relation split by another.
var dottedTicks = [][]datalog.DeltaOp{
	{
		ins("a", int64(1)), ins("a", "two"), ins("a", 3), ins("a", uint64(4)), ins("a", 5.5), ins("a", true),
		ins("a.b", "two"), ins("a.b", int64(1)), ins("a.b", false), ins("a.b", 5.5), ins("flag"),
	},
	{del("a", int64(1)), ins("a.b", 3), ins("other", "k", int64(-7))},
}

// dottedLogStore opens a store over fs and recovers the dotted program
// over a database holding the empty relation the snapshot golden has.
func dottedLogStore(t testing.TB, fs FS) (*Store, *datalog.Incremental) {
	t.Helper()
	s := openStore(t, fs)
	db := datalog.NewDatabase()
	db.Ensure("empty", 2)
	inc, err := s.Recover(dottedProgram(t), db)
	if err != nil {
		t.Fatal(err)
	}
	return s, inc
}

// TestChangelogDottedGolden pins the changelog format byte for byte.
// testdata/dotted.wal is the log of dottedTicks, written by this package's
// HYWAL02 encoder; the image must not change. Replaying it rebuilds the
// state testdata/dotted.snap holds.
func TestChangelogDottedGolden(t *testing.T) {
	fs := NewFaultFS()
	s, inc := dottedLogStore(t, fs)
	for _, muts := range dottedTicks {
		tick(t, s, inc, muts)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/dotted.wal")
	if err != nil {
		t.Fatal(err)
	}
	if img := fs.Files()[walName]; !bytes.Equal(img, golden) {
		t.Fatalf("changelog image (%d bytes) differs from testdata/dotted.wal (%d bytes):\n%x", len(img), len(golden), img)
	}
	if info, err := Inspect(fs); err != nil || info.LogRecords != 2 || info.LogLastSeq != 2 || info.TornBytes != 0 {
		t.Fatalf("Inspect = %+v, %v; want 2 records up to seq 2", info, err)
	}

	s2, inc2 := dottedLogStore(t, fs)
	defer s2.Close()
	snap, err := os.ReadFile("testdata/dotted.snap")
	if err != nil {
		t.Fatal(err)
	}
	if got := stateImage(t, inc2, s2.LastSeq()); !bytes.Equal(got, snap) {
		t.Fatal("state replayed from the changelog differs from testdata/dotted.snap")
	}
}

// hywal01Dotted is dottedTicks' log as the HYWAL01 encoder wrote it, each
// op a flag byte, its predicate and its boxed tuple.
const hywal01Dotted = "485957414c30310a00000000000000005f00000057e745cf010b0001610102020001610101" +
	"0374776f000161010306000161010404000161010500000000000016400001610106000361" +
	"2e6201010374776f0003612e620102020003612e6201070003612e62010500000000000016" +
	"400004666c6167001d000000ee6b3b5702030101610102020003612e6201030600056f7468" +
	"65720201016b020d"

// TestOlderChangelogFormatRefused: a whole log of the previous format, its
// records' CRCs valid, is refused at Open rather than misparsed.
func TestOlderChangelogFormatRefused(t *testing.T) {
	img, err := hex.DecodeString(hywal01Dotted)
	if err != nil {
		t.Fatal(err)
	}
	off, recs := walHdrLen, 0
	for ; off+recHdrLen <= len(img); recs++ {
		n := int(binary.LittleEndian.Uint32(img[off:]))
		payload := img[off+recHdrLen:][:n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(img[off+4:]) {
			t.Fatalf("record %d of the HYWAL01 log has a bad CRC", recs)
		}
		off += recHdrLen + n
	}
	if off != len(img) || recs != 2 {
		t.Fatalf("the HYWAL01 log frames %d records in %d of %d bytes", recs, off, len(img))
	}
	fs := NewFaultFS()
	writeFile(t, fs, walName, img)
	if s, err := Open(Options{FS: fs}); err == nil {
		s.Close()
		t.Fatal("a HYWAL01 log was opened")
	}
}

// writeFile creates name on fs holding data.
func writeFile(t testing.TB, fs FS, name string, data []byte) {
	t.Helper()
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzChangelogImage recovers the dotted program from a log whose one
// record holds any payload — seq included — framed with a valid CRC after
// a header whose base precedes that seq. Open or Recover must refuse it or
// replay it, never panic, and a record recovery replays must re-encode to
// the very same bytes: the decoder takes exactly the records the encoder
// writes. The seeds are the golden log's payloads and their prefixes.
func FuzzChangelogImage(f *testing.F) {
	golden, err := os.ReadFile("testdata/dotted.wal")
	if err != nil {
		f.Fatal(err)
	}
	for off := walHdrLen; off+recHdrLen <= len(golden); {
		payload := golden[off+recHdrLen:][:binary.LittleEndian.Uint32(golden[off:])]
		for n := range payload {
			f.Add(payload[:n])
		}
		f.Add(payload)
		off += recHdrLen + len(payload)
	}
	p := dottedProgram(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		base := uint64(0)
		if seq, _, err := readUvarint(payload); err == nil && seq > 0 {
			base = seq - 1
		}
		rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, crcTable))
		rec = append(rec, payload...)
		fs := NewFaultFS()
		writeFile(t, fs, walName, append(encodeLogHeader(base), rec...))
		s, err := Open(Options{FS: fs})
		if err != nil {
			return
		}
		defer s.Close()
		if _, err := s.Recover(p, datalog.NewDatabase()); err != nil || s.LastSeq() == base {
			return // refused, or rejected by the evaluator and dropped
		}
		r, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("a replayed record does not decode: %v", err)
		}
		d, err := r.batch.Delta()
		if err != nil {
			t.Fatalf("a replayed batch is refused: %v", err)
		}
		got, err := encodeRecord(nil, r.seq, d.Batch())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("replayed record re-encodes differently:\n got %x\nwant %x", got, rec)
		}
	})
}
