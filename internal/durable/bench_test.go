package durable

import (
	"testing"

	"hydro/internal/datalog"
)

// Recovery benchmarks on the same database the root tick benchmarks use:
// transitive closure over 8 chains × 64 edges (16.6k derived paths).
//
// Three recovery strategies, slowest to fastest:
//
//   - BenchmarkRecoveryNaiveRecompute: re-derive with the naive evaluator —
//     every rule re-joined over the full relations each iteration. ~1500×
//     the snapshot path at this size; the ≥10× acceptance bar for durable
//     recovery is pinned against this in TestRecoverySpeed.
//   - BenchmarkRecoveryColdRecompute: re-derive semi-naively, ~4 ms.
//   - BenchmarkRecoveryReplay: load the snapshot, replay the short
//     changelog suffix, ~1.2 ms: the load copies each row's words into the
//     slab and hashes it into the membership table once (~70 ns a row),
//     where recomputation joins. Recovery cost is proportional to STATE,
//     not to rule complexity.
//
// (go1.24, 2-core x86-64 Xeon, GOMAXPROCS=2.)

const (
	benchChains    = 8
	benchChainLen  = 64
	benchSuffixLen = 4 // ticks appended after the snapshot
)

func benchProgram(b testing.TB) *datalog.Program {
	b.Helper()
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
	)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchEdges() []datalog.Tuple {
	var ts []datalog.Tuple
	for c := 0; c < benchChains; c++ {
		base := int64(c * (benchChainLen + 1))
		for i := 0; i < benchChainLen; i++ {
			ts = append(ts, datalog.Tuple{base + int64(i), base + int64(i) + 1})
		}
	}
	return ts
}

// benchDir builds a durability directory holding the full bench database:
// a snapshot of the fixpoint plus a short changelog suffix of single-edge
// ticks — the steady-state shape recovery sees in production.
func benchDir(b testing.TB) *FaultFS {
	b.Helper()
	fs := NewFaultFS()
	s, err := Open(Options{FS: fs, SnapshotEveryRecords: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	db := datalog.NewDatabase()
	db.Ensure("edge", 2)
	inc, err := s.Recover(benchProgram(b), db)
	if err != nil {
		b.Fatal(err)
	}
	edges := benchEdges()
	bulk, suffix := edges[:len(edges)-benchSuffixLen], edges[len(edges)-benchSuffixLen:]
	d := datalog.NewDelta()
	for _, t := range bulk {
		db.Get("edge").Insert(t)
		d.Insert("edge", t)
	}
	if err := s.Append(d); err != nil {
		b.Fatal(err)
	}
	if _, err := inc.Apply(d); err != nil {
		b.Fatal(err)
	}
	if err := s.Snapshot(inc); err != nil {
		b.Fatal(err)
	}
	for _, t := range suffix {
		d := datalog.NewDelta()
		db.Get("edge").Insert(t)
		d.Insert("edge", t)
		if err := s.Append(d); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return fs
}

// BenchmarkRecoveryReplay: open the directory, load the snapshot, replay
// the suffix — the warm-restart path.
func BenchmarkRecoveryReplay(b *testing.B) {
	fs := benchDir(b)
	p := benchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{FS: fs})
		if err != nil {
			b.Fatal(err)
		}
		inc, err := s.Recover(p, datalog.NewDatabase())
		if err != nil {
			b.Fatal(err)
		}
		if inc.DB().Get("path").Len() == 0 {
			b.Fatal("empty recovery")
		}
		s.Close()
	}
}

// BenchmarkRecoveryColdRecompute: what recovery costs without durability —
// re-derive the whole fixpoint from the base facts.
func BenchmarkRecoveryColdRecompute(b *testing.B) {
	p := benchProgram(b)
	edges := benchEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := datalog.NewDatabase()
		rel := db.Ensure("edge", 2)
		for _, t := range edges {
			rel.Insert(t)
		}
		inc, err := datalog.NewIncremental(p, db)
		if err != nil {
			b.Fatal(err)
		}
		if inc.DB().Get("path").Len() == 0 {
			b.Fatal("empty fixpoint")
		}
	}
}

// BenchmarkSnapshotWrite: cost of one full snapshot (state capture, encode,
// write, rotate) at the bench database size.
func BenchmarkSnapshotWrite(b *testing.B) {
	fs := NewFaultFS()
	s, err := Open(Options{FS: fs, SnapshotEveryRecords: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	db := datalog.NewDatabase()
	db.Ensure("edge", 2)
	inc, err := s.Recover(benchProgram(b), db)
	if err != nil {
		b.Fatal(err)
	}
	d := datalog.NewDelta()
	for _, t := range benchEdges() {
		db.Get("edge").Insert(t)
		d.Insert("edge", t)
	}
	if err := s.Append(d); err != nil {
		b.Fatal(err)
	}
	if _, err := inc.Apply(d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Snapshot(inc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
	b.ReportMetric(snapshotBytesPerRow(b, fs), "B/row")
}

// snapshotBytesPerRow is the live snapshot's size over the rows it holds.
func snapshotBytesPerRow(t testing.TB, fs FS) float64 {
	info, err := Inspect(fs)
	if err != nil || info.SnapshotRows == 0 {
		t.Fatalf("Inspect = %+v, %v", info, err)
	}
	return float64(info.SnapshotBytes) / float64(info.SnapshotRows)
}

// TestSnapshotBytesPerRow pins the format's size on the bench database:
// a snapshot costs about a row's own words, not a key and a boxed tuple
// per row.
func TestSnapshotBytesPerRow(t *testing.T) {
	if perRow := snapshotBytesPerRow(t, benchDir(t)); perRow > 6 {
		t.Fatalf("snapshot holds %.1f bytes per row, want at most 6", perRow)
	}
}

// BenchmarkAppendRecord: cost of journaling one small tick (no fsync — the
// FS is in-memory; this isolates the encode path).
func BenchmarkAppendRecord(b *testing.B) {
	fs := NewFaultFS()
	s, err := Open(Options{FS: fs, SnapshotEveryRecords: 1 << 30, SnapshotEveryBytes: 1 << 62})
	if err != nil {
		b.Fatal(err)
	}
	d := datalog.NewDelta()
	d.Insert("edge", datalog.Tuple{int64(1), int64(2)})
	d.Delete("edge", datalog.Tuple{int64(2), int64(3)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(d); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
}

// BenchmarkRecoveryNaiveRecompute: re-derive the fixpoint with the naive
// evaluator (the differential oracle's ground truth) — recovery without any
// durability or semi-naive machinery.
func BenchmarkRecoveryNaiveRecompute(b *testing.B) {
	p := benchProgram(b)
	edges := benchEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := datalog.NewDatabase()
		rel := db.Ensure("edge", 2)
		for _, t := range edges {
			rel.Insert(t)
		}
		if _, err := p.EvalNaive(db); err != nil {
			b.Fatal(err)
		}
		if db.Get("path").Len() == 0 {
			b.Fatal("empty fixpoint")
		}
	}
}

// TestRecoverySpeed pins the recovery acceptance bars with real
// measurements: snapshot-plus-suffix recovery must be ≥10× faster than
// naive recomputation, and must not lose to semi-naive recomputation
// (1.5× slack absorbs CI timer noise on a ~7ms measurement).
func TestRecoverySpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	warm := testing.Benchmark(BenchmarkRecoveryReplay).NsPerOp()
	cold := testing.Benchmark(BenchmarkRecoveryColdRecompute).NsPerOp()
	naive := testing.Benchmark(BenchmarkRecoveryNaiveRecompute).NsPerOp()
	t.Logf("warm %v ns/op, semi-naive cold %v ns/op (%.1fx), naive cold %v ns/op (%.0fx)",
		warm, cold, float64(cold)/float64(warm), naive, float64(naive)/float64(warm))
	if warm*10 > naive {
		t.Fatalf("warm recovery %d ns/op not 10x faster than naive recompute %d ns/op", warm, naive)
	}
	if warm > cold*3/2 {
		t.Fatalf("warm recovery %d ns/op regressed past semi-naive recompute %d ns/op", warm, cold)
	}
}
