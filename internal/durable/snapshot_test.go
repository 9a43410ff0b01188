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

// TestSnapshotDottedNamesGolden pins the snapshot format byte for byte.
// The state holds dotted names ("a" < "a.b" < "ab" is the name order the
// relations are written in), an empty relation, an arity-0 relation holding
// its one tuple, one derived predicate (ab), and every value type the codec
// tags. testdata/dotted.snap was written by this package's HYSNAP3 encoder;
// the image must not change.
func TestSnapshotDottedNamesGolden(t *testing.T) {
	p := dottedProgram(t)
	fs := NewFaultFS()
	s := openStore(t, fs)
	db := datalog.NewDatabase()
	db.Ensure("empty", 2)
	inc, err := s.Recover(p, db)
	if err != nil {
		t.Fatal(err)
	}
	tick(t, s, inc, []datalog.DeltaOp{
		ins("a", int64(1)), ins("a", "two"), ins("a", 3), ins("a", uint64(4)), ins("a", 5.5), ins("a", true),
		ins("a.b", "two"), ins("a.b", int64(1)), ins("a.b", false), ins("a.b", 5.5), ins("flag"),
	})
	tick(t, s, inc, []datalog.DeltaOp{del("a", int64(1)), ins("a.b", 3), ins("other", "k", int64(-7))})
	if err := s.Snapshot(inc); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := fs.ReadFile(snapName)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/dotted.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, golden) {
		t.Fatalf("snapshot image (%d bytes) differs from testdata/dotted.snap (%d bytes)", len(img), len(golden))
	}
	if info, err := Inspect(fs); err != nil || info.SnapshotSeq != 2 || info.SnapshotRelations != 6 || info.SnapshotRows != 15 {
		t.Fatalf("Inspect = %+v, %v; want seq 2, 6 relations, 15 rows", info, err)
	}

	s2 := openStore(t, fs)
	defer s2.Close()
	inc2, err := s2.Recover(p, datalog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	if got := stateImage(t, inc2, 2); !bytes.Equal(got, golden) {
		t.Fatal("state recovered from the snapshot does not re-encode to the same image")
	}
}

// dottedProgram is the golden image's program: ab(x) :- a(x), a.b(x).
func dottedProgram(t testing.TB) *datalog.Program {
	x := datalog.V("x")
	p, err := datalog.NewProgram(datalog.Rule{
		Head: datalog.Atom{Pred: "ab", Args: []datalog.Term{x}},
		Body: []datalog.Literal{
			{Atom: datalog.Atom{Pred: "a", Args: []datalog.Term{x}}},
			{Atom: datalog.Atom{Pred: "a.b", Args: []datalog.Term{x}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// hysnap2Dotted is the golden state as the HYSNAP2 encoder wrote it, with
// a derivation-count flag after each relation's rows and ab's counts column.
const hysnap2Dotted = "4859534e4150320a020000000000000004010374776f040405000000000000164001016b" +
	"0161010503190b130a0003612e62010503080213190002616201030313190101010105656d" +
	"70747902000004666c616700010000056f7468657202011bc8ffffffffffffffff0100d377ee06"

// TestOlderSnapshotFormatRefused: an image of the previous format, whole
// and with a valid CRC, is refused by its magic rather than misparsed.
func TestOlderSnapshotFormatRefused(t *testing.T) {
	img, err := hex.DecodeString(hysnap2Dotted)
	if err != nil {
		t.Fatal(err)
	}
	if end := len(img) - 4; crc32.Checksum(img[:end], crcTable) != binary.LittleEndian.Uint32(img[end:]) {
		t.Fatal("the HYSNAP2 image's CRC does not match")
	}
	fs := NewFaultFS()
	w, err := fs.Create(snapName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(img); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{FS: fs})
	if err != nil {
		return
	}
	defer s.Close()
	if _, err := s.Recover(dottedProgram(t), datalog.NewDatabase()); err == nil {
		t.Fatal("a HYSNAP2 image was recovered")
	}
}

// FuzzSnapshotImage recovers the golden image's program from any body —
// the bytes between magic and CRC trailer, seq included — framed as a
// valid image. Recover must refuse it or return an evaluator, never panic,
// and a state it accepts must re-encode to the very same image: the
// decoder takes exactly the images the encoder writes.
func FuzzSnapshotImage(f *testing.F) {
	golden, err := os.ReadFile("testdata/dotted.snap")
	if err != nil {
		f.Fatal(err)
	}
	body := golden[len(snapMagic) : len(golden)-4]
	for n := range body {
		f.Add(body[:n])
	}
	f.Add(body)
	// The same state in the HYSNAP2 layout, counts flags and column
	// included: under the current magic it too must be refused or
	// re-encode to itself.
	old, err := hex.DecodeString(hysnap2Dotted)
	if err != nil {
		f.Fatal(err)
	}
	old = old[len(snapMagic) : len(old)-4]
	for n := range old {
		f.Add(old[:n])
	}
	f.Add(old)
	p := dottedProgram(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		img := append([]byte(snapMagic), body...)
		img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, crcTable))
		fs := NewFaultFS()
		w, err := fs.Create(snapName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(img); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{FS: fs})
		if err != nil {
			return // a body too short to hold the seq
		}
		defer s.Close()
		inc, err := s.Recover(p, datalog.NewDatabase())
		if err != nil {
			return
		}
		if got := stateImage(t, inc, s.SnapshotSeq()); !bytes.Equal(got, img) {
			t.Fatalf("accepted image re-encodes differently:\n got %x\nwant %x", got, img)
		}
	})
}
