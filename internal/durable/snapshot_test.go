package durable

import (
	"bytes"
	"os"
	"testing"

	"hydro/internal/datalog"
)

// TestSnapshotDottedNamesGolden pins the snapshot format and its one
// ordering trap. Relation headers sort "r/a" < "r/a.b" < "r/ab" but tuple
// groups sort "t/a.b/" < "t/a/" < "t/ab/" ('.' < '/'), so a decoder that
// walks headers and groups in step cannot read this image. The state also
// holds an empty relation and one counted predicate (ab), and every value
// type the codec tags. testdata/dotted.snap was written by the B+-tree
// staged encoder this package had at 5e4cb1f; the image must not change.
func TestSnapshotDottedNamesGolden(t *testing.T) {
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
		ins("a.b", "two"), ins("a.b", int64(1)), ins("a.b", false), ins("a.b", 5.5),
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
	if info, err := Inspect(fs); err != nil || info.SnapshotSeq != 2 || info.SnapshotEntries != 23 {
		t.Fatalf("Inspect = %+v, %v; want seq 2, 23 entries", info, err)
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
