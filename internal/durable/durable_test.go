package durable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hydro/internal/datalog"
)

// testProgram is the persistence-relevant program pair: a recursive closure
// feeding a non-recursive join.
func testProgram(t testing.TB) *datalog.Program {
	t.Helper()
	p, err := datalog.NewProgram(
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}},
			Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
		},
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("z")}},
			Body: []datalog.Literal{
				{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
				{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("y"), datalog.V("z")}}},
			},
		},
		datalog.Rule{
			Head: datalog.Atom{Pred: "reach_attr", Args: []datalog.Term{datalog.V("x"), datalog.V("v")}},
			Body: []datalog.Literal{
				{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
				{Atom: datalog.Atom{Pred: "attr", Args: []datalog.Term{datalog.V("y"), datalog.V("v")}}},
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tick applies one batch of base mutations through the full durability
// protocol: record realized ops, append, apply, commit.
func tick(t testing.TB, s *Store, inc *datalog.Incremental, muts []datalog.DeltaOp) {
	t.Helper()
	if err := tickErr(s, inc, muts); err != nil {
		t.Fatal(err)
	}
}

func tickErr(s *Store, inc *datalog.Incremental, muts []datalog.DeltaOp) error {
	d := datalog.NewDelta()
	db := inc.DB()
	for _, m := range muts {
		if m.Del {
			if rel := db.Get(m.Pred); rel != nil && rel.Delete(m.T) {
				d.Delete(m.Pred, m.T)
			}
		} else if db.Ensure(m.Pred, len(m.T)).Insert(m.T) {
			d.Insert(m.Pred, m.T)
		}
	}
	if err := s.Append(d); err != nil {
		return err
	}
	if _, err := inc.Apply(d); err != nil {
		return err
	}
	return s.Committed(inc)
}

// stateImage reduces an evaluator to its canonical snapshot bytes so two
// instances can be compared byte for byte.
func stateImage(t testing.TB, inc *datalog.Incremental, seq uint64) []byte {
	t.Helper()
	img, err := encodeSnapshot(seq, inc.State())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func ins(pred string, vals ...any) datalog.DeltaOp {
	return datalog.DeltaOp{Pred: pred, T: datalog.Tuple(vals)}
}

func del(pred string, vals ...any) datalog.DeltaOp {
	return datalog.DeltaOp{Del: true, Pred: pred, T: datalog.Tuple(vals)}
}

// openStore opens a Store over fs with small snapshot thresholds disabled
// (tests trigger snapshots explicitly unless told otherwise).
func openStore(t testing.TB, fs FS) *Store {
	t.Helper()
	s, err := Open(Options{FS: fs, SnapshotEveryRecords: 1 << 30, SnapshotEveryBytes: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func recoverStore(t testing.TB, fs FS) (*Store, *datalog.Incremental) {
	t.Helper()
	s := openStore(t, fs)
	inc, err := s.Recover(testProgram(t), datalog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	return s, inc
}

// TestLogRoundTrip: append ticks, close, reopen, recover — the recovered
// evaluator equals the original byte for byte, and resumes maintenance.
func TestLogRoundTrip(t *testing.T) {
	fs := NewFaultFS()
	s, inc := recoverStore(t, fs)
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2)), ins("edge", int64(2), int64(3))})
	tick(t, s, inc, []datalog.DeltaOp{ins("attr", int64(3), int64(30)), del("edge", int64(2), int64(3))})
	tick(t, s, inc, nil) // empty ticks are legal and consume a seq
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(2), int64(3))})
	if s.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4", s.LastSeq())
	}
	want := stateImage(t, inc, s.LastSeq())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, inc2 := recoverStore(t, fs)
	defer s2.Close()
	if s2.LastSeq() != 4 {
		t.Fatalf("recovered LastSeq = %d, want 4", s2.LastSeq())
	}
	if got := stateImage(t, inc2, s2.LastSeq()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from original")
	}
	// The recovered instance keeps maintaining incrementally.
	tick(t, s2, inc2, []datalog.DeltaOp{ins("edge", int64(3), int64(4))})
	if !inc2.DB().Get("path").Contains(datalog.Tuple{int64(1), int64(4)}) {
		t.Fatal("recovered evaluator did not maintain path(1,4)")
	}
}

// TestSnapshotAndRotation: a snapshot commits the state, rotates the log,
// and recovery afterwards replays only the suffix.
func TestSnapshotAndRotation(t *testing.T) {
	fs := NewFaultFS()
	s, inc := recoverStore(t, fs)
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2)), ins("attr", int64(2), int64(20))})
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(2), int64(3))})
	if err := s.Snapshot(inc); err != nil {
		t.Fatal(err)
	}
	if s.SnapshotSeq() != 2 {
		t.Fatalf("SnapshotSeq = %d, want 2", s.SnapshotSeq())
	}
	tick(t, s, inc, []datalog.DeltaOp{del("edge", int64(1), int64(2))})
	want := stateImage(t, inc, 3)
	s.Close()

	info, err := Inspect(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasSnapshot || info.SnapshotSeq != 2 {
		t.Fatalf("Inspect snapshot: %+v", info)
	}
	if info.LogBaseSeq != 2 || info.LogRecords != 1 || info.LogLastSeq != 3 {
		t.Fatalf("Inspect log after rotation: %+v", info)
	}

	s2, inc2 := recoverStore(t, fs)
	defer s2.Close()
	if got := stateImage(t, inc2, 3); !bytes.Equal(got, want) {
		t.Fatal("post-snapshot recovery differs")
	}
}

// TestTornTailTruncated: a crash mid-append leaves a partial record; reopen
// truncates it away and recovers the prefix. Every cut short of the second
// record's length tears it.
func TestTornTailTruncated(t *testing.T) {
	second := []datalog.DeltaOp{ins("edge", int64(2), int64(3)), ins("attr", int64(2), int64(7))}
	d := datalog.NewDelta()
	for _, op := range second {
		d.Insert(op.Pred, op.T)
	}
	rec, err := encodeRecord(nil, 2, d.Batch())
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(1); cut < int64(len(rec)); cut++ {
		fs := NewFaultFS()
		s, inc := recoverStore(t, fs)
		tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2))})
		want := stateImage(t, inc, 1)

		fs.CrashAfterBytes(cut)
		err := tickErr(s, inc, second)
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("cut %d: tick err = %v, want ErrCrashed", cut, err)
		}
		if err := s.Append(datalog.NewDelta()); !errors.Is(err, s.Failed()) || s.Failed() == nil {
			t.Fatalf("cut %d: store must latch failure, got %v", cut, err)
		}

		fs.Revive()
		s2, inc2 := recoverStore(t, fs)
		if s2.LastSeq() != 1 {
			t.Fatalf("cut %d: recovered LastSeq = %d, want 1", cut, s2.LastSeq())
		}
		if got := stateImage(t, inc2, 1); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: torn-tail recovery differs", cut)
		}
		s2.Close()
	}
}

// TestCorruptRecordRejected: bit rot inside a committed (non-tail) record
// truncates from the corruption point; rot in the header is fatal.
func TestCorruptRecordRejected(t *testing.T) {
	fs := NewFaultFS()
	s, inc := recoverStore(t, fs)
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2))})
	want := stateImage(t, inc, 1)
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(2), int64(3))})
	s.Close()

	// Flip a byte in the second record's payload: CRC fails, scan stops,
	// recovery keeps the first record only.
	logLen := int64(len(fs.Files()[walName]))
	if !fs.Corrupt(walName, logLen-1) {
		t.Fatal("corrupt failed")
	}
	s2, inc2 := recoverStore(t, fs)
	if s2.LastSeq() != 1 {
		t.Fatalf("LastSeq after tail corruption = %d, want 1", s2.LastSeq())
	}
	if got := stateImage(t, inc2, 1); !bytes.Equal(got, want) {
		t.Fatal("recovery after tail corruption differs")
	}
	s2.Close()

	// A corrupt header is not ours: fatal.
	if !fs.Corrupt(walName, 1) {
		t.Fatal("corrupt failed")
	}
	if _, err := Open(Options{FS: fs}); err == nil {
		t.Fatal("Open accepted corrupt changelog magic")
	}
}

// TestCorruptSnapshotFatal: a damaged live snapshot must refuse recovery
// (the changelog may have been truncated past its floor) rather than
// silently restarting empty.
func TestCorruptSnapshotFatal(t *testing.T) {
	fs := NewFaultFS()
	s, inc := recoverStore(t, fs)
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2))})
	if err := s.Snapshot(inc); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snapLen := int64(len(fs.Files()[snapName]))
	if !fs.Corrupt(snapName, snapLen/2) {
		t.Fatal("corrupt failed")
	}
	if _, err := Open(Options{FS: fs}); err == nil {
		t.Fatal("Open accepted corrupt snapshot")
	}
}

// TestSnapshotCrashWindows: kill the process at every metadata-op boundary
// inside Snapshot; every wreckage must recover to the exact pre-crash
// state.
func TestSnapshotCrashWindows(t *testing.T) {
	for ops := 0; ops < 12; ops++ {
		fs := NewFaultFS()
		s, inc := recoverStore(t, fs)
		tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2)), ins("attr", int64(2), int64(20))})
		tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(2), int64(3))})
		want := stateImage(t, inc, 2)

		fs.CrashAfterOps(ops)
		err := s.Snapshot(inc)
		if err == nil {
			if ops < 7 { // snapshot+rotation costs at least 7 metadata ops
				t.Fatalf("ops %d: snapshot unexpectedly succeeded", ops)
			}
		} else if !errors.Is(err, ErrCrashed) {
			t.Fatalf("ops %d: %v", ops, err)
		}

		fs.Revive()
		s2, inc2 := recoverStore(t, fs)
		if s2.LastSeq() != 2 {
			t.Fatalf("ops %d: recovered LastSeq = %d, want 2", ops, s2.LastSeq())
		}
		if got := stateImage(t, inc2, 2); !bytes.Equal(got, want) {
			t.Fatalf("ops %d: recovery differs", ops)
		}
		s2.Close()
	}
}

// TestSnapshotThresholds: Committed triggers a snapshot once the record
// threshold is crossed.
func TestSnapshotThresholds(t *testing.T) {
	fs := NewFaultFS()
	s, err := Open(Options{FS: fs, SnapshotEveryRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := s.Recover(testProgram(t), datalog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 7; i++ {
		tick(t, s, inc, []datalog.DeltaOp{ins("edge", i, i+1)})
	}
	// Snapshots at seq 3 and 6.
	if s.SnapshotSeq() != 6 {
		t.Fatalf("SnapshotSeq = %d, want 6", s.SnapshotSeq())
	}
	info, _ := Inspect(fs)
	if info.LogBaseSeq != 6 || info.LogRecords != 1 {
		t.Fatalf("log not rotated at threshold: %+v", info)
	}
	s.Close()
}

// TestSnapshotThresholdsAcrossReopen: the record threshold counts the
// records a reopened store finds past its snapshot, less a rejected final
// record that recovery drops.
func TestSnapshotThresholdsAcrossReopen(t *testing.T) {
	fs := NewFaultFS()
	reopen := func() (*Store, *datalog.Incremental) {
		s, err := Open(Options{FS: fs, SnapshotEveryRecords: 3})
		if err != nil {
			t.Fatal(err)
		}
		inc, err := s.Recover(testProgram(t), datalog.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		return s, inc
	}
	s, inc := reopen()
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(0), int64(1))})
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2))})
	s.Close()
	s, inc = reopen()
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(2), int64(3))})
	if s.SnapshotSeq() != 3 {
		t.Fatalf("SnapshotSeq = %d, want 3: the records before the reopen count", s.SnapshotSeq())
	}

	// Seq 4 commits; seq 5 is a tick the evaluator rejects, whose abort is
	// lost to a crash. Recovery drops it, so one record counts.
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(3), int64(4))})
	bad := datalog.NewDelta()
	bad.Insert("reach_attr", datalog.Tuple{int64(8), int64(77)})
	if err := s.Append(bad); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, inc = reopen()
	defer s.Close()
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(4), int64(5))})
	if s.SnapshotSeq() != 3 {
		t.Fatalf("SnapshotSeq = %d after seq 5, want 3: the dropped record counted", s.SnapshotSeq())
	}
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(5), int64(6))})
	if s.SnapshotSeq() != 6 {
		t.Fatalf("SnapshotSeq = %d, want 6", s.SnapshotSeq())
	}
}

// TestValueCodecRoundTrip: every supported dynamic type survives the value
// codec with its exact Go type.
func TestValueCodecRoundTrip(t *testing.T) {
	in := []any{"s", "", int64(-9000), int(42), uint64(1 << 60), 3.5, true, false}
	var b []byte
	for _, v := range in {
		var err error
		if b, err = appendValue(b, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := range in {
		out, rest, err := readValue(b)
		if err != nil {
			t.Fatalf("readValue %d: %v", i, err)
		}
		if out != in[i] || fmt.Sprintf("%T", out) != fmt.Sprintf("%T", in[i]) {
			t.Fatalf("slot %d: %v (%T) != %v (%T)", i, out, out, in[i], in[i])
		}
		b = rest
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes left after the last value", len(b))
	}
	if _, err := appendValue(nil, struct{}{}); err == nil {
		t.Fatal("unsupported type must be rejected")
	}
}

// TestDirFS exercises the production FS end to end on a real directory.
func TestDirFS(t *testing.T) {
	fs, err := DirFS(t.TempDir() + "/dur")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := s.Recover(testProgram(t), datalog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2)), ins("edge", int64(2), int64(3))})
	if err := s.Snapshot(inc); err != nil {
		t.Fatal(err)
	}
	tick(t, s, inc, []datalog.DeltaOp{ins("attr", int64(3), int64(30))})
	want := stateImage(t, inc, 2)
	s.Close()

	s2, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	inc2, err := s2.Recover(testProgram(t), datalog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	if got := stateImage(t, inc2, 2); !bytes.Equal(got, want) {
		t.Fatal("DirFS recovery differs")
	}
	if !inc2.DB().Get("reach_attr").Contains(datalog.Tuple{int64(1), int64(30)}) {
		t.Fatal("recovered reach_attr missing")
	}
}

// TestRandomizedReopen: random op soup with periodic close/reopen cycles;
// after every reopen the state must match a never-closed oracle.
func TestRandomizedReopen(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := NewFaultFS()
		s, inc := recoverStore(t, fs)

		oracleDB := datalog.NewDatabase()
		oracle, err := datalog.NewIncremental(testProgram(t), oracleDB)
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 40; step++ {
			muts := randMuts(rng, 3)
			tick(t, s, inc, muts)
			applyOracle(t, oracle, muts)
			if rng.Intn(5) == 0 {
				if err := s.Snapshot(inc); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(7) == 0 {
				seq := s.LastSeq()
				s.Close()
				s, inc = recoverStore(t, fs)
				if s.LastSeq() != seq {
					t.Fatalf("seed %d step %d: LastSeq %d != %d", seed, step, s.LastSeq(), seq)
				}
				if !bytes.Equal(stateImage(t, inc, seq), stateImage(t, oracle, seq)) {
					t.Fatalf("seed %d step %d: reopen diverged from oracle", seed, step)
				}
			}
		}
		if !bytes.Equal(stateImage(t, inc, s.LastSeq()), stateImage(t, oracle, s.LastSeq())) {
			t.Fatalf("seed %d: final state diverged", seed)
		}
		s.Close()
	}
}

// randMuts draws a small batch of base mutations over a tiny value domain
// so inserts, deletes and re-inserts of the same tuple all occur.
func randMuts(rng *rand.Rand, n int) []datalog.DeltaOp {
	muts := make([]datalog.DeltaOp, 0, n)
	for i := 0; i < rng.Intn(n+1); i++ {
		var op datalog.DeltaOp
		op.Del = rng.Intn(3) == 0
		if rng.Intn(2) == 0 {
			op.Pred = "edge"
			op.T = datalog.Tuple{int64(rng.Intn(6)), int64(rng.Intn(6))}
		} else {
			op.Pred = "attr"
			op.T = datalog.Tuple{int64(rng.Intn(6)), int64(rng.Intn(4) * 10)}
		}
		muts = append(muts, op)
	}
	return muts
}

// applyOracle applies the same mutation batch to the in-memory oracle.
func applyOracle(t testing.TB, inc *datalog.Incremental, muts []datalog.DeltaOp) {
	t.Helper()
	d := datalog.NewDelta()
	db := inc.DB()
	for _, m := range muts {
		if m.Del {
			if rel := db.Get(m.Pred); rel != nil && rel.Delete(m.T) {
				d.Delete(m.Pred, m.T)
			}
		} else if db.Ensure(m.Pred, len(m.T)).Insert(m.T) {
			d.Insert(m.Pred, m.T)
		}
	}
	if _, err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
}

// TestAbortLast: the append-before-apply abort path — a journaled record
// whose tick the evaluator rejected is truncated off the log, the sequence
// rewinds, and appending resumes at the freed seq.
func TestAbortLast(t *testing.T) {
	fs := NewFaultFS()
	s, inc := recoverStore(t, fs)
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2))})

	// Stage a tick the way the transducer does: mutate, record, append —
	// then pretend the maintenance pass rejected it.
	db := inc.DB()
	d := datalog.NewDelta()
	db.Get("edge").Insert(datalog.Tuple{int64(2), int64(3)})
	d.Insert("edge", datalog.Tuple{int64(2), int64(3)})
	if err := s.Append(d); err != nil {
		t.Fatal(err)
	}
	if s.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", s.LastSeq())
	}
	if err := s.AbortLast(); err != nil {
		t.Fatal(err)
	}
	db.Get("edge").Delete(datalog.Tuple{int64(2), int64(3)}) // caller's rollback
	if s.LastSeq() != 1 {
		t.Fatalf("LastSeq after abort = %d, want 1", s.LastSeq())
	}
	if err := s.AbortLast(); err == nil {
		t.Fatal("second AbortLast must refuse: nothing abortable")
	}

	// Appending continues at the freed sequence number.
	tick(t, s, inc, []datalog.DeltaOp{ins("attr", int64(2), int64(7))})
	if s.LastSeq() != 2 {
		t.Fatalf("LastSeq after re-append = %d, want 2", s.LastSeq())
	}
	want := stateImage(t, inc, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, inc2 := recoverStore(t, fs)
	defer s2.Close()
	if s2.LastSeq() != 2 {
		t.Fatalf("recovered LastSeq = %d, want 2", s2.LastSeq())
	}
	if !bytes.Equal(stateImage(t, inc2, 2), want) {
		t.Fatal("recovered state differs after abort + re-append")
	}
}

// TestRecoverDropsAbortedFinalRecord covers the lost-abort crash window: a
// record reaches the log, the evaluator cleanly rejects the tick, and the
// process dies before AbortLast's truncation is durable. Recovery must drop
// exactly that final record; the same record anywhere but last stays fatal.
func TestRecoverDropsAbortedFinalRecord(t *testing.T) {
	badDelta := func() *datalog.Delta {
		// Ops that realize on replay but that Apply rejects pre-mutation
		// (writing a derived relation as if it were base).
		d := datalog.NewDelta()
		d.Insert("edge", datalog.Tuple{int64(8), int64(9)})
		d.Insert("reach_attr", datalog.Tuple{int64(8), int64(77)})
		return d
	}

	fs := NewFaultFS()
	s, inc := recoverStore(t, fs)
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2))})
	tick(t, s, inc, []datalog.DeltaOp{ins("attr", int64(2), int64(7))})
	want := stateImage(t, inc, 2)
	if err := s.Append(badDelta()); err != nil {
		t.Fatal(err)
	}
	s.Close() // dies before the abort truncation

	s2, inc2 := recoverStore(t, fs)
	if s2.LastSeq() != 2 {
		t.Fatalf("recovered LastSeq = %d, want 2 (aborted record dropped)", s2.LastSeq())
	}
	if !bytes.Equal(stateImage(t, inc2, 2), want) {
		t.Fatal("recovered state differs after dropping aborted record")
	}
	s2.Close()
	info, err := Inspect(fs)
	if err != nil {
		t.Fatal(err)
	}
	if info.LogRecords != 2 {
		t.Fatalf("aborted record not truncated: log holds %d records, want 2", info.LogRecords)
	}

	// A non-final unappliable record is corruption, not a lost abort: the
	// store refuses appends after an un-aborted rejection, so nothing can
	// legitimately follow one.
	s3, inc3 := recoverStore(t, fs)
	if err := s3.Append(badDelta()); err != nil {
		t.Fatal(err)
	}
	good := datalog.NewDelta()
	good.Insert("edge", datalog.Tuple{int64(5), int64(6)})
	if err := s3.Append(good); err != nil {
		t.Fatal(err)
	}
	_ = inc3
	s3.Close()
	s4 := openStore(t, fs)
	defer s4.Close()
	if _, err := s4.Recover(testProgram(t), datalog.NewDatabase()); err == nil {
		t.Fatal("recovery must fail on a non-final unappliable record")
	}
}

// TestRecoverKeepsUnrealizedFinalRecord: a final record whose base change
// does not realize on replay is corruption, not a lost abort. Recovery
// fails, keeps the record, and leaves none of its changes applied.
func TestRecoverKeepsUnrealizedFinalRecord(t *testing.T) {
	fs := NewFaultFS()
	s, inc := recoverStore(t, fs)
	tick(t, s, inc, []datalog.DeltaOp{ins("edge", int64(1), int64(2))})
	d := datalog.NewDelta()
	d.Insert("edge", datalog.Tuple{int64(7), int64(8)})
	d.Delete("edge", datalog.Tuple{int64(5), int64(6)}) // never present
	if err := s.Append(d); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, fs)
	defer s2.Close()
	db := datalog.NewDatabase()
	if _, err := s2.Recover(testProgram(t), db); err == nil || errors.Is(err, datalog.ErrRejected) {
		t.Fatalf("Recover = %v, want a did-not-realize error", err)
	}
	if db.Get("edge").Contains(datalog.Tuple{int64(7), int64(8)}) {
		t.Fatal("the refused record's insert was left applied")
	}
	if info, err := Inspect(fs); err != nil || info.LogRecords != 2 {
		t.Fatalf("Inspect = %+v, %v; want the unrealized record kept", info, err)
	}
}
