package durable

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hydro/internal/datalog"
)

// The crash harness: run a durable evaluator over a randomized mutation
// schedule, kill the "process" at randomized points in all three danger
// windows — mid-append (torn record), between append and apply (logged but
// unapplied), and mid-snapshot (every metadata-op boundary of the
// temp+rename+rotate protocol) — then recover and require the result to be
// byte-for-byte identical to a never-crashed oracle replaying the same
// schedule. `make soak` raises the seed budget via these flags.
var (
	crashSeeds = flag.Int("crash-seeds", 60, "number of randomized crash-recovery seeds")
	crashTicks = flag.Int("crash-ticks", 40, "mutation ticks per crash-recovery seed")
	crashRand  = flag.Bool("crash-rand", false, "derive crash seeds from the clock (soak mode)")
)

// crashModes label the three danger windows (plus clean kills).
const (
	modeMidAppend = iota
	modeAfterAppend
	modeMidSnapshot
	modeCount
)

var crashModeNames = [modeCount]string{"mid-append", "after-append", "mid-snapshot"}

func TestCrashRecovery(t *testing.T) {
	base := int64(0)
	if *crashRand {
		base = time.Now().UnixNano()
		t.Logf("soak base seed %d", base)
	}
	var fired [modeCount]int
	for i := 0; i < *crashSeeds; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := runCrashSeed(t, seed, *crashTicks)
			for j := range fired {
				fired[j] += m[j]
			}
		})
	}
	if t.Failed() {
		return
	}
	for j, n := range fired {
		if n == 0 {
			t.Errorf("crash mode %s never fired across %d seeds — harness lost coverage", crashModeNames[j], *crashSeeds)
		}
	}
}

// runCrashSeed drives one schedule, crashing repeatedly, and returns how
// often each crash mode actually fired.
func runCrashSeed(t *testing.T, seed int64, ticks int) (fired [modeCount]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// The full mutation schedule is fixed up front so the oracle can replay
	// any prefix of it; schedule[i] produces seq i+1.
	schedule := make([][]datalog.DeltaOp, ticks)
	for i := range schedule {
		schedule[i] = randMuts(rng, 4)
	}

	fs := NewFaultFS()
	s, err := Open(crashOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := s.Recover(testProgram(t), datalog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}

	next := 0 // index into schedule = seq the next tick will get - 1
	for next < ticks {
		mode := -1
		if rng.Intn(4) == 0 { // crash roughly every 4th tick
			mode = rng.Intn(modeCount)
		}
		switch mode {
		case modeMidAppend:
			// Tear the record: records are ≥12 bytes, so a tiny byte budget
			// lands inside the frame most of the time.
			fs.CrashAfterBytes(int64(rng.Intn(12) + 1))
			err := tickErr(s, inc, schedule[next])
			if err == nil {
				// Budget survived into a later write (e.g. a threshold
				// snapshot consumed it) — still a real crash once it fires;
				// fall through to recovery if it did.
				if !fs.Crashed() {
					fs.Revive()
					next++
					continue
				}
			} else if !errors.Is(err, ErrCrashed) {
				t.Fatalf("seed %d tick %d: %v", seed, next, err)
			}
			if fs.Crashed() {
				fired[modeMidAppend]++
			}
		case modeAfterAppend:
			// The record commits, the process dies before Apply: recovery
			// must replay it.
			d := datalog.NewDelta()
			db := inc.DB()
			for _, m := range schedule[next] {
				if m.Del {
					if rel := db.Get(m.Pred); rel != nil && rel.Delete(m.T) {
						d.Delete(m.Pred, m.T)
					}
				} else if db.Ensure(m.Pred, len(m.T)).Insert(m.T) {
					d.Insert(m.Pred, m.T)
				}
			}
			if err := s.Append(d); err != nil {
				t.Fatalf("seed %d tick %d: append: %v", seed, next, err)
			}
			fired[modeAfterAppend]++
		case modeMidSnapshot:
			fs.CrashAfterOps(rng.Intn(10))
			err := s.Snapshot(inc)
			if err != nil && !errors.Is(err, ErrCrashed) {
				t.Fatalf("seed %d tick %d: snapshot: %v", seed, next, err)
			}
			if !fs.Crashed() {
				// Budget outlived the whole snapshot: no crash after all.
				fs.Revive()
				continue
			}
			fired[modeMidSnapshot]++
		default:
			tick(t, s, inc, schedule[next])
			next++
			continue
		}

		// The "process" is dead. Recover from the wreckage and check the
		// recovered state byte-for-byte against a never-crashed oracle.
		fs.Revive()
		s, err = Open(crashOptions(fs))
		if err != nil {
			t.Fatalf("seed %d tick %d: reopen: %v", seed, next, err)
		}
		inc, err = s.Recover(testProgram(t), datalog.NewDatabase())
		if err != nil {
			t.Fatalf("seed %d tick %d: recover: %v", seed, next, err)
		}
		last := s.LastSeq()
		if int(last) < next {
			t.Fatalf("seed %d tick %d: recovery lost committed seq %d < %d", seed, next, last, next)
		}
		oracle := oracleAt(t, schedule, int(last))
		if !bytes.Equal(stateImage(t, inc, last), stateImage(t, oracle, last)) {
			t.Fatalf("seed %d: recovered state at seq %d differs from oracle", seed, last)
		}
		next = int(last)
	}

	// End of schedule: one final clean close/reopen must also match.
	s.Close()
	s, err = Open(crashOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inc, err = s.Recover(testProgram(t), datalog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleAt(t, schedule, ticks)
	if !bytes.Equal(stateImage(t, inc, uint64(ticks)), stateImage(t, oracle, uint64(ticks))) {
		t.Fatalf("seed %d: final state differs from oracle", seed)
	}
	return fired
}

// crashOptions uses a small snapshot threshold so log rotation happens
// organically during the run, interleaving with the injected crashes.
func crashOptions(fs FS) Options {
	return Options{FS: fs, SnapshotEveryRecords: 6}
}

// oracleAt replays the first n schedule entries on a fresh in-memory
// evaluator — the never-crashed truth for seq n.
func oracleAt(t testing.TB, schedule [][]datalog.DeltaOp, n int) *datalog.Incremental {
	t.Helper()
	inc, err := datalog.NewIncremental(testProgram(t), datalog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		applyOracle(t, inc, schedule[i])
	}
	return inc
}

// FuzzCrashRecovery lets the fuzzer drive the crash scheduler: each input
// byte picks the next action (tick, snapshot, or a crash window with a
// budget derived from the byte), and every recovery must match the oracle.
func FuzzCrashRecovery(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x81, 0x20, 0xC5, 0x00, 0x42})
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Add([]byte{0xC0, 0x01, 0xC8, 0x02, 0xD0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		rng := rand.New(rand.NewSource(7))
		schedule := make([][]datalog.DeltaOp, len(data))
		for i := range schedule {
			schedule[i] = randMuts(rng, 4)
		}
		fs := NewFaultFS()
		s, err := Open(crashOptions(fs))
		if err != nil {
			t.Fatal(err)
		}
		inc, err := s.Recover(testProgram(t), datalog.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		// pc walks the action bytes and always advances — a crash byte that
		// rolls the store back to next would otherwise re-fire forever.
		for pc := 0; pc < len(data) && next < len(schedule); pc++ {
			b := data[pc]
			crashed := false
			switch {
			case b&0xC0 == 0x80: // mid-append window
				fs.CrashAfterBytes(int64(b&0x3F) + 1)
				if err := tickErr(s, inc, schedule[next]); err != nil && !errors.Is(err, ErrCrashed) {
					t.Fatal(err)
				}
				crashed = fs.Crashed()
				if !crashed {
					fs.Revive()
					next++
				}
			case b&0xC0 == 0xC0: // mid-snapshot window
				fs.CrashAfterOps(int(b & 0x0F))
				if err := s.Snapshot(inc); err != nil && !errors.Is(err, ErrCrashed) {
					t.Fatal(err)
				}
				crashed = fs.Crashed()
				if !crashed {
					fs.Revive()
				}
			default:
				tick(t, s, inc, schedule[next])
				next++
			}
			if crashed {
				fs.Revive()
				if s, err = Open(crashOptions(fs)); err != nil {
					t.Fatal(err)
				}
				if inc, err = s.Recover(testProgram(t), datalog.NewDatabase()); err != nil {
					t.Fatal(err)
				}
				last := s.LastSeq()
				if int(last) < next {
					t.Fatalf("recovery lost committed seq %d < %d", last, next)
				}
				oracle := oracleAt(t, schedule, int(last))
				if !bytes.Equal(stateImage(t, inc, last), stateImage(t, oracle, last)) {
					t.Fatalf("recovered state at seq %d differs from oracle", last)
				}
				next = int(last)
			}
		}
		oracle := oracleAt(t, schedule, next)
		if !bytes.Equal(stateImage(t, inc, uint64(next)), stateImage(t, oracle, uint64(next))) {
			t.Fatal("final state differs from oracle")
		}
		s.Close()
	})
}
