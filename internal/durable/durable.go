package durable

import (
	"errors"
	"fmt"
	"os"

	"hydro/internal/datalog"
)

// SyncPolicy is the type of the ignored Options.Sync.
//
// Deprecated: the changelog fsyncs after every appended record, so a
// committed tick survives power loss (DESIGN.md §10).
type SyncPolicy int

// SyncAlways is SyncPolicy's one value, today's only behaviour.
//
// Deprecated: see SyncPolicy.
const SyncAlways SyncPolicy = 0

// Options configures a Store.
type Options struct {
	// Dir is the durability directory (used when FS is nil).
	Dir string
	// FS overrides the file layer (fault injection, tests).
	FS FS
	// Deprecated: Sync is ignored. The changelog fsyncs after every
	// appended record. The field stays until the benchmark module stops
	// setting it.
	Sync SyncPolicy
	// SnapshotEveryRecords triggers a snapshot once this many records have
	// been committed since the last one (0 = default 1024).
	SnapshotEveryRecords int
	// SnapshotEveryBytes triggers a snapshot once the changelog has grown
	// this many bytes past the last one (0 = default 4 MiB).
	SnapshotEveryBytes int64
}

const (
	defaultSnapRecords = 1024
	defaultSnapBytes   = 4 << 20
)

// Store is one durability directory: a changelog being appended and the
// snapshot it is a suffix of. It implements the transducer's DurabilitySink
// (Append before apply, Committed after).
//
// A Store is single-writer and not concurrency-safe; the transducer tick
// loop is single-threaded, which is the intended caller. After any write
// error the store marks itself failed and refuses further writes — half-
// appended state on disk is exactly what recovery repairs, and continuing
// to append past a failed write would interleave garbage.
type Store struct {
	opts    Options
	fs      FS
	logf    File
	lastSeq uint64 // seq of the last appended record
	snapSeq uint64 // seq covered by the live snapshot
	// pending holds the replayable records found at open (with their file
	// offsets), and snapData the live snapshot image, until Recover consumes
	// them.
	pending       []logRecord
	pendingStarts []int64
	snapData      []byte
	recovered     bool
	failed        error

	// lastRecStart is the file offset of the last appended record while it
	// is still abortable (-1 otherwise) — AbortLast's truncation point.
	lastRecStart int64

	recsSinceSnap int
	logBytes      int64 // changelog bytes since last rotation (growth trigger)
	buf           []byte
}

// Open scans the durability directory, repairs a torn changelog tail, and
// prepares the store for Recover + appends. Stale temp files from a crash
// mid-snapshot or mid-rotation are removed.
func Open(opts Options) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		var err error
		if fs, err = DirFS(opts.Dir); err != nil {
			return nil, err
		}
	}
	if opts.SnapshotEveryRecords == 0 {
		opts.SnapshotEveryRecords = defaultSnapRecords
	}
	if opts.SnapshotEveryBytes == 0 {
		opts.SnapshotEveryBytes = defaultSnapBytes
	}
	s := &Store{opts: opts, fs: fs, lastRecStart: -1}
	// A crash can leave temp files behind; they were never committed.
	if err := fs.Remove(snapTmpName); err != nil {
		return nil, err
	}
	if err := fs.Remove(walTmpName); err != nil {
		return nil, err
	}

	// Snapshot seq (the floor recovery replays from). The image is kept for
	// Recover; only the seq entry is parsed here.
	if data, err := fs.ReadFile(snapName); err == nil {
		var derr error
		if s.snapSeq, derr = snapSeqOf(data); derr != nil {
			// The snapshot was committed by rename after an fsync; a corrupt
			// one means the directory is damaged, and the changelog may
			// already have been truncated past its floor — refusing is the
			// only honest answer.
			return nil, fmt.Errorf("durable: live snapshot corrupt: %w", derr)
		}
		s.snapData = data
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	// Changelog: validate, repair the tail, queue the replayable suffix.
	data, err := fs.ReadFile(walName)
	switch {
	case os.IsNotExist(err):
		if err := s.writeFreshLog(walName, s.snapSeq); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	default:
		recs, starts, validLen, baseSeq, serr := scanLog(data)
		if serr != nil {
			return nil, serr
		}
		if validLen < int64(walHdrLen) {
			// Torn header from a crash during initial creation.
			if err := s.writeFreshLog(walName, s.snapSeq); err != nil {
				return nil, err
			}
		} else {
			if validLen < int64(len(data)) {
				if err := fs.Truncate(walName, validLen); err != nil {
					return nil, err
				}
			}
			s.logBytes = validLen
		}
		s.lastSeq = baseSeq
		for i, r := range recs {
			if r.seq > s.snapSeq {
				s.pending = append(s.pending, r)
				s.pendingStarts = append(s.pendingStarts, starts[i])
			}
			s.lastSeq = r.seq
		}
	}
	if s.lastSeq < s.snapSeq {
		// Crash between snapshot rename and log rotation can leave the log
		// shorter than the snapshot: the snapshot is the truth.
		s.lastSeq = s.snapSeq
	}
	if s.logf == nil {
		if s.logf, err = fs.OpenAppend(walName); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// writeFreshLog creates name with just a header (synced).
func (s *Store) writeFreshLog(name string, baseSeq uint64) error {
	f, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeLogHeader(baseSeq)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	s.logf = f
	s.logBytes = int64(walHdrLen)
	return nil
}

// LastSeq returns the sequence number of the last durable tick: after
// Recover it is the tick the recovered state corresponds to, so the caller
// resumes at LastSeq()+1.
func (s *Store) LastSeq() uint64 { return s.lastSeq }

// SnapshotSeq returns the seq covered by the live snapshot.
func (s *Store) SnapshotSeq() uint64 { return s.snapSeq }

// Recover rebuilds the incremental evaluator: the live snapshot (if any) is
// restored into db, and the changelog suffix past it is replayed through
// Apply — base mutations re-applied in exact recorded order, maintenance
// re-run per tick — leaving the evaluator mid-stream, ready for the next
// tick, without re-deriving anything the snapshot already materialized.
func (s *Store) Recover(p *datalog.Program, db *datalog.Database) (*datalog.Incremental, error) {
	if s.recovered {
		return nil, fmt.Errorf("durable: store already recovered")
	}
	s.recovered = true
	var inc *datalog.Incremental
	if s.snapData != nil {
		_, fx, derr := unstageBytes(s.snapData)
		if derr != nil {
			return nil, derr
		}
		if inc, derr = datalog.RestoreIncremental(p, db, fx); derr != nil {
			return nil, derr
		}
		s.snapData = nil
	} else {
		var err error
		if inc, err = datalog.NewIncremental(p, db); err != nil {
			return nil, err
		}
	}
	for i, rec := range s.pending {
		if err := replayRecord(inc, rec); err != nil {
			if i == len(s.pending)-1 && errors.Is(err, errTickRejected) {
				// Append-before-apply leaves exactly one uncertain window: a
				// record that reached the log but whose tick the evaluator
				// then rejected, with the AbortLast truncation not making it
				// to disk before the crash. Only the FINAL record can be in
				// that state — the store refuses further appends until the
				// abort completes — so a final record the evaluator cleanly
				// rejects again (base ops realized, fixpoint intact) is
				// truncated away like a torn tail. An earlier record failing,
				// or any replay failure that poisons the evaluator, means
				// real corruption and stays fatal.
				if terr := s.fs.Truncate(walName, s.pendingStarts[i]); terr != nil {
					return nil, s.fail(terr)
				}
				s.logBytes = s.pendingStarts[i]
				s.lastSeq = rec.seq - 1
				break
			}
			return nil, err
		}
	}
	s.pending, s.pendingStarts = nil, nil
	return inc, nil
}

// errTickRejected marks a logged record whose base ops realized but whose
// maintenance pass the evaluator rejected pre-mutation — the shape an
// aborted tick leaves behind when the abort truncation was lost to a crash.
var errTickRejected = errors.New("durable: logged tick rejected by evaluator")

// undoOps reverses realized base mutations in reverse application order.
// Contents and counts are restored exactly; a re-inserted row may land in a
// different slot, so relation iteration order can differ from a history
// that never staged the ops.
func undoOps(db *datalog.Database, ops []datalog.DeltaOp) {
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		if op.Del {
			db.Ensure(op.Pred, len(op.T)).Insert(op.T)
		} else if rel := db.Get(op.Pred); rel != nil {
			rel.Delete(op.T)
		}
	}
}

// replayRecord re-applies one changelog record: base-relation mutations in
// exact recorded order (every one must realize — the log and the state it
// replays onto were produced by the same history), then the maintenance
// pass.
func replayRecord(inc *datalog.Incremental, rec logRecord) error {
	d := datalog.NewDelta()
	db := inc.DB()
	for _, op := range rec.ops {
		if op.Del {
			rel := db.Get(op.Pred)
			if rel == nil || !rel.Delete(op.T) {
				return fmt.Errorf("durable: replay seq %d: delete %s%v did not realize", rec.seq, op.Pred, op.T)
			}
			d.Delete(op.Pred, op.T)
		} else {
			if !db.Ensure(op.Pred, len(op.T)).Insert(op.T) {
				return fmt.Errorf("durable: replay seq %d: insert %s%v did not realize", rec.seq, op.Pred, op.T)
			}
			d.Insert(op.Pred, op.T)
		}
	}
	if n, err := inc.Apply(d); err != nil {
		if n == 0 && !inc.Broken() {
			// Clean pre-mutation rejection: put the base relations back so
			// the caller can decide whether this record is droppable.
			undoOps(db, rec.ops)
			return fmt.Errorf("replay seq %d: %w: %v", rec.seq, errTickRejected, err)
		}
		return fmt.Errorf("durable: replay seq %d: %w", rec.seq, err)
	}
	return nil
}

// Append journals one tick's realized base-relation changes — the
// append-before-apply half of the commit protocol. The delta must have
// op recording enabled (datalog.Delta.SetRecording); an empty tick is legal
// and still consumes a sequence number.
func (s *Store) Append(d *datalog.Delta) error {
	if s.failed != nil {
		return s.failed
	}
	ops := d.Ops()
	if len(ops) == 0 && !d.Empty() {
		return fmt.Errorf("durable: delta has changes but no recorded ops (SetRecording not enabled)")
	}
	rec, err := encodeRecord(s.lastSeq+1, ops)
	if err != nil {
		return s.fail(err)
	}
	start := s.logBytes
	if _, err := s.logf.Write(rec); err != nil {
		return s.fail(err)
	}
	if err := s.logf.Sync(); err != nil {
		return s.fail(err)
	}
	s.lastSeq++
	s.logBytes += int64(len(rec))
	s.recsSinceSnap++
	s.lastRecStart = start
	return nil
}

// AbortLast logically aborts the record written by the immediately
// preceding Append — the caller applied the tick's base mutations, appended
// the record, and the evaluator then rejected the maintenance pass. The
// record is truncated off the changelog so recovery never replays it.
// Append handles follow the file, so subsequent appends land at the new
// end. If the truncation itself fails the store latches failed — the log
// then ends in a record the state does not contain, which is exactly the
// final-record shape Recover tolerates.
func (s *Store) AbortLast() error {
	if s.failed != nil {
		return s.failed
	}
	if s.lastRecStart < 0 {
		return fmt.Errorf("durable: no abortable record")
	}
	if err := s.fs.Truncate(walName, s.lastRecStart); err != nil {
		return s.fail(err)
	}
	if err := s.logf.Sync(); err != nil {
		return s.fail(err)
	}
	s.logBytes = s.lastRecStart
	s.lastSeq--
	s.recsSinceSnap--
	s.lastRecStart = -1
	return nil
}

// Committed runs after the appended tick was applied to inc; it takes a
// snapshot when the policy thresholds say the changelog has grown enough to
// make recovery replay noticeably slower than a snapshot load.
func (s *Store) Committed(inc *datalog.Incremental) error {
	if s.failed != nil {
		return s.failed
	}
	if s.recsSinceSnap < s.opts.SnapshotEveryRecords && s.logBytes < s.opts.SnapshotEveryBytes {
		return nil
	}
	return s.Snapshot(inc)
}

// Snapshot persists inc's full state (covering every tick appended so far)
// and rotates the changelog:
//
//  1. encode the fixpoint state and write the image to a temp file, fsync,
//     close;
//  2. rename it over the live snapshot and fsync the directory — the
//     commit point;
//  3. rotate: write a fresh changelog (header only, base = snapshot seq) to
//     a temp name, fsync, rename over the old log, fsync the directory.
//
// A crash before 2 leaves the old snapshot + old log (temp removed on next
// open). A crash between 2 and 3 leaves the new snapshot + the old log,
// whose extra records recovery skips by seq. After 3 the directory is fully
// rotated. Every interleaving recovers.
func (s *Store) Snapshot(inc *datalog.Incremental) error {
	if s.failed != nil {
		return s.failed
	}
	fx, err := inc.State()
	if err != nil {
		return err
	}
	seq := s.lastSeq
	img, err := encodeSnapshot(seq, fx)
	if err != nil {
		return err
	}
	f, err := s.fs.Create(snapTmpName)
	if err != nil {
		return s.fail(err)
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := f.Close(); err != nil {
		return s.fail(err)
	}
	if err := s.fs.Rename(snapTmpName, snapName); err != nil {
		return s.fail(err)
	}
	if err := s.fs.SyncDir(); err != nil {
		return s.fail(err)
	}
	s.snapSeq = seq

	// Rotation: the old log is fully covered by the snapshot now.
	old := s.logf
	s.logf = nil
	if old != nil {
		old.Close()
	}
	if err := s.writeFreshLog(walTmpName, seq); err != nil {
		return s.fail(err)
	}
	if err := s.fs.Rename(walTmpName, walName); err != nil {
		return s.fail(err)
	}
	if err := s.fs.SyncDir(); err != nil {
		return s.fail(err)
	}
	s.recsSinceSnap = 0
	s.lastRecStart = -1 // the snapshot covers it; no longer abortable
	return nil
}

// fail latches the first write error; the store refuses everything after.
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("durable: store failed: %w", err)
	}
	return err
}

// Failed reports the latched failure, if any.
func (s *Store) Failed() error { return s.failed }

// Close releases the changelog handle (final fsync included unless the
// store already failed).
func (s *Store) Close() error {
	if s.logf == nil {
		return nil
	}
	var err error
	if s.failed == nil {
		err = s.logf.Sync()
	}
	if cerr := s.logf.Close(); err == nil {
		err = cerr
	}
	s.logf = nil
	return err
}

// Info summarizes a durability directory for operators (cmd/durtool).
type Info struct {
	SnapshotSeq     uint64
	SnapshotBytes   int64
	SnapshotEntries int
	HasSnapshot     bool
	LogBaseSeq      uint64
	LogLastSeq      uint64
	LogRecords      int
	LogBytes        int64
	TornBytes       int64 // trailing bytes a recovery would truncate
}

// Inspect reads a durability directory without modifying it.
func Inspect(fs FS) (*Info, error) {
	info := &Info{}
	if data, err := fs.ReadFile(snapName); err == nil {
		var derr error
		if info.SnapshotSeq, _, derr = unstageBytes(data); derr != nil {
			return nil, derr
		}
		if derr = forEachSnapEntry(data, func(_, _ []byte) error { info.SnapshotEntries++; return nil }); derr != nil {
			return nil, derr
		}
		info.HasSnapshot = true
		info.SnapshotBytes = int64(len(data))
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if data, err := fs.ReadFile(walName); err == nil {
		recs, _, validLen, baseSeq, serr := scanLog(data)
		if serr != nil {
			return nil, serr
		}
		info.LogBaseSeq = baseSeq
		info.LogLastSeq = baseSeq
		if n := len(recs); n > 0 {
			info.LogLastSeq = recs[n-1].seq
		}
		info.LogRecords = len(recs)
		info.LogBytes = validLen
		info.TornBytes = int64(len(data)) - validLen
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return info, nil
}

// ErrCrashed is the sentinel the fault-injection layer returns once its
// budget is exhausted — "the process died here".
var ErrCrashed = errors.New("durable: injected crash")
