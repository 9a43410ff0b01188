package datalog

import (
	"math/rand"
	"testing"
)

// FuzzIncrementalEquivalence is the native fuzz face of the three-way
// differential harness: the seed picks a random program shape (chains,
// cycles, nonlinear recursion, stratified negation, aggregates — see
// randRules) and a starting EDB, and the op bytes drive a tick sequence of
// interleaved base-relation inserts and deletes. After every tick the
// maintained incremental fixpoint must equal both the compiled semi-naive
// seed (NewIncremental) and the interpretive EvalNaive run from scratch on
// the same base data. A poison op makes a tick fail where a sum reads it:
// Apply must fail exactly when the seed on the post-tick base data does, and once the tick's
// base ops are undone the evaluator must match both again and keep
// matching. The seed corpus under testdata/fuzz/ pins delete-heavy,
// churn-heavy and poisoned sequences; `make fuzz` runs a short generative
// smoke in CI.
//
// Op encoding (3 bytes per op, self-delimiting, any byte string is valid):
//
//	byte 0: bits 0-1 pick the base relation (edge/attr/node),
//	        bit 2 picks insert (0) or delete (1),
//	        bit 3 forces a tick flush after the op,
//	        bit 4 closes and reopens the evaluator after the tick: the
//	        fixpoint round-trips through State/RestoreIncremental — the
//	        snapshot half of the durability path,
//	        bit 5 crash-restarts instead: every base mutation since the
//	        last committed tick is lost (as an unjournaled tail would be),
//	        then the survivor round-trips through State/Restore,
//	bit 7 makes the op a poison insert instead: attr(byte 1, "oops"),
//	        a non-numeric value any sum over attr fails on.
//	bytes 1-2: tuple constants (inserts) or victim index (deletes).
//
// A tick also flushes every 4 ops, and once more at the end.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte("\x00\x01\x02\x04\x00\x00\x01\x05\x07"))
	f.Add(int64(3), []byte("\x04\x00\x00\x04\x01\x00\x04\x02\x00\x00\x03\x03"))
	f.Add(int64(7), []byte("\x0c\xff\xfe\x0c\x01\x02\x08\x10\x20\x04\x00\x01"))
	f.Add(int64(11), []byte("edge-churn-and-deletes"))
	f.Add(int64(3), []byte{0x00, 0x01, 0x02, 0x10, 0x00, 0x03, 0x04, 0x00, 0x00, 0x10, 0x01, 0x05})
	f.Add(int64(16), []byte{0x00, 0x01, 0x02, 0x20, 0x03, 0x04, 0x24, 0x00, 0x01, 0x30, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96] // bound per-input work
		}
		r := rand.New(rand.NewSource(seed))
		rules := randRules(r)
		p, err := NewProgram(rules...)
		if err != nil {
			t.Fatalf("randRules produced an invalid program: %v", err)
		}
		edb := randEDB(r) // reference base data, never evaluated in place
		inc, err := NewIncremental(p, edb.Clone())
		if err != nil {
			t.Fatalf("NewIncremental: %v", err)
		}

		// decode one byte into a constant from the same small mixed-type
		// domain randConst draws from, so fuzz tuples collide with seeded
		// ones (collisions are where maintenance bugs live).
		constOf := func(b byte) any {
			if b%2 == 0 {
				return string(rune('a' + int(b/2)%4))
			}
			return int64(int(b/2) % 4)
		}
		tupleOf := func(pred string, a, b byte) Tuple {
			switch pred {
			case "edge":
				return Tuple{constOf(a), constOf(b)}
			case "attr":
				return Tuple{constOf(a), int64(int(b) % 10)}
			default:
				return Tuple{constOf(a)}
			}
		}

		delta := NewDelta()
		var tail []DeltaOp // realized base mutations since the last committed tick
		flush := func() {
			_, err := inc.Apply(delta)
			refC := edb.Clone()
			if _, errC := NewIncremental(p, refC); (err == nil) != (errC == nil) {
				t.Fatalf("Apply: %v, but NewIncremental on the same base data: %v", err, errC)
			}
			if err != nil {
				// Apply rolled its derived changes back; the tick's base
				// ops are the caller's to undo, on both sides.
				inc.DB().Undo(delta.Ops())
				edb.Undo(delta.Ops())
				refC = edb.Clone()
				if _, err := NewIncremental(p, refC); err != nil {
					t.Fatalf("NewIncremental after the rejected tick's undo: %v", err)
				}
			}
			delta = NewDelta()
			tail = nil
			if err := diffDatabases("incremental vs compiled", inc.DB(), refC); err != nil {
				t.Fatal(err)
			}
			refN := edb.Clone()
			if _, err := p.EvalNaive(refN); err != nil {
				t.Fatalf("EvalNaive: %v", err)
			}
			if err := diffDatabases("incremental vs naive", inc.DB(), refN); err != nil {
				t.Fatal(err)
			}
		}

		// reopen replaces the evaluator with one rebuilt from its own
		// serialized fixpoint — the datalog half of a durable restart. The
		// restored instance must match the original exactly and then keep
		// maintaining.
		reopen := func() {
			fx := inc.State()
			restored, err := RestoreIncremental(p, NewDatabase(), fx)
			if err != nil {
				t.Fatalf("RestoreIncremental: %v", err)
			}
			if err := diffDatabases("restored vs original", restored.DB(), inc.DB()); err != nil {
				t.Fatal(err)
			}
			inc = restored
		}
		// crash loses every base mutation since the last committed tick, in
		// both the evaluator's database and the reference EDB — the fate of
		// an unjournaled tail — before restarting from serialized state.
		crash := func() {
			for i := len(tail) - 1; i >= 0; i-- {
				op := tail[i]
				for _, db := range []*Database{edb, inc.DB()} {
					if op.Del {
						db.Get(op.Pred).Insert(op.T)
					} else {
						db.Get(op.Pred).Delete(op.T)
					}
				}
			}
			tail = nil
			delta = NewDelta()
			reopen()
		}

		sinceFlush := 0
		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			pred := edbPreds[int(op&3)%len(edbPreds)]
			var tup Tuple // an insert's; nil for a delete
			switch {
			case op&0x80 != 0:
				pred, tup = "attr", Tuple{constOf(a), "oops"}
			case op&4 == 0:
				tup = tupleOf(pred, a, b)
			}
			if tup != nil {
				if edb.Get(pred).Insert(tup) {
					if !inc.DB().Get(pred).Insert(tup) {
						t.Fatalf("mirrored insert diverged on %s%v", pred, tup)
					}
					delta.Insert(pred, tup)
					tail = append(tail, DeltaOp{Pred: pred, T: tup})
				}
			} else if existing := edb.Get(pred).Tuples(); len(existing) > 0 {
				tup := existing[(int(a)<<8|int(b))%len(existing)]
				edb.Get(pred).Delete(tup)
				if !inc.DB().Get(pred).Delete(tup) {
					t.Fatalf("mirrored delete diverged on %s%v", pred, tup)
				}
				delta.Delete(pred, tup)
				tail = append(tail, DeltaOp{Del: true, Pred: pred, T: tup})
			}
			sinceFlush++
			switch {
			case op&0x20 != 0:
				crash()
				sinceFlush = 0
			case op&0x10 != 0:
				flush()
				reopen()
				sinceFlush = 0
			case op&8 != 0 || sinceFlush >= 4:
				flush()
				sinceFlush = 0
			}
		}
		flush()
	})
}
