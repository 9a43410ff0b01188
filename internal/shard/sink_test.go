package shard_test

import (
	"math/rand"
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/shard"
	"hydro/internal/transducer"
)

// TestSinkTeesRuntimeTicksIntoDeployment wires a single-node transducer
// runtime to a 2-replica deployment through the DurabilitySink seam: every
// committed runtime tick (inserts and deletes alike) replays into the
// sharded cluster, and after the network settles the distributed fixpoint
// must match the runtime's local one byte for byte.
func TestSinkTeesRuntimeTicksIntoDeployment(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, map[string]int{"edge": 2}, 2, 9)

	rt := transducer.New("n1", 1)
	rt.SetDelay(func(r *rand.Rand) int { return 1 })
	rt.RegisterTable(transducer.TableSchema{Name: "edge", Arity: 2})
	rtProg, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterQueriesIncremental(rtProg); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetDurability(shard.NewSink(dep)); err != nil {
		t.Fatal(err)
	}
	rt.RegisterHandler("add", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("edge", msg.Payload)
	})
	rt.RegisterHandler("del", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Delete("edge", msg.Payload)
	})

	steps := []struct {
		mailbox string
		t       datalog.Tuple
	}{
		{"add", datalog.Tuple{"a", "b"}},
		{"add", datalog.Tuple{"b", "c"}},
		{"add", datalog.Tuple{"c", "a"}},
		{"del", datalog.Tuple{"b", "c"}},
		{"add", datalog.Tuple{"b", "d"}},
	}
	for _, s := range steps {
		rt.Inject(s.mailbox, s.t)
		rt.RunUntilIdle(10)
		if !dep.Settle(settleBudget) {
			t.Fatalf("deployment did not settle after %s %v", s.mailbox, s.t)
		}
		refDB := datalog.NewDatabase()
		for _, pred := range dep.Placement().Preds {
			rel := rt.Table(pred)
			if rel == nil {
				continue
			}
			nr := refDB.Ensure(pred, rel.Arity)
			for _, tp := range rel.Tuples() {
				nr.Insert(tp)
			}
		}
		want := shard.DumpDatabase(refDB, dep.Placement().Preds)
		if got := dep.DumpString(); got != want {
			t.Fatalf("sharded tee diverged after %s %v:\n%s\nwant:\n%s", s.mailbox, s.t, got, want)
		}
	}
}

// TestSinkCommittedPartialFailureNoDoubleSubmit covers the mid-loop Submit
// failure: with ticks [good, bad, good] staged, Committed submits the first
// tick, fails on the second, and must drop the submitted prefix from the
// stage even though it returns an error — retaining it would re-Submit the
// first tick on the next Committed call and double-apply it on the cluster.
// The failed tick and its successors stay staged for retry, in order.
func TestSinkCommittedPartialFailureNoDoubleSubmit(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, map[string]int{"edge": 2}, 2, 21)
	sink := shard.NewSink(dep)

	stage := func(pred string, tuple datalog.Tuple) {
		d := datalog.NewDelta()
		d.Insert(pred, tuple)
		if err := sink.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	stage("edge", datalog.Tuple{"a", "b"}) // submits fine
	stage("nope", datalog.Tuple{"x"})      // not a base relation: Submit errors
	stage("edge", datalog.Tuple{"b", "c"}) // stuck behind the failed tick

	if err := sink.Committed(nil); err == nil {
		t.Fatal("Committed should fail on the staged bad tick")
	}
	if got := dep.SubmittedTicks(); got != 1 {
		t.Fatalf("first Committed: submitted %d ticks, want 1", got)
	}

	// Second Committed retries from the failed tick — the submitted prefix
	// must NOT be replayed (before the fix SubmittedTicks jumped to 2 here).
	if err := sink.Committed(nil); err == nil {
		t.Fatal("retry Committed should still fail on the bad tick")
	}
	if got := dep.SubmittedTicks(); got != 1 {
		t.Fatalf("retry re-submitted the already-submitted prefix: %d ticks, want 1", got)
	}

	// Drop the poison tick (as the runtime's abort path would) and confirm
	// the retained successor still goes through, exactly once.
	sinkDropBadTick(t, sink)
	if err := sink.Committed(nil); err != nil {
		t.Fatalf("Committed after clearing the bad tick: %v", err)
	}
	if got := dep.SubmittedTicks(); got != 2 {
		t.Fatalf("after retry: submitted %d ticks, want 2", got)
	}
	if !dep.Settle(settleBudget) {
		t.Fatal("deployment did not settle")
	}
}

// sinkDropBadTick removes the head of the sink's stage by replaying the
// retained tail through a fresh Append/AbortLast cycle — the public-API way
// to discard the failed tick while keeping its successors.
func sinkDropBadTick(t *testing.T, sink *shard.Sink) {
	t.Helper()
	// The stage is [bad, good]. AbortLast pops "good"; abort again pops
	// "bad"; then re-stage "good" so only it remains.
	if err := sink.AbortLast(); err != nil {
		t.Fatal(err)
	}
	if err := sink.AbortLast(); err != nil {
		t.Fatal(err)
	}
	d := datalog.NewDelta()
	d.Insert("edge", datalog.Tuple{"b", "c"})
	if err := sink.Append(d); err != nil {
		t.Fatal(err)
	}
}
