package transducer

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/durable"
)

// reachQueries is a non-recursive join: reach(x, v) :- edge(x, y), attr(y, v).
func reachQueries(t *testing.T) *datalog.Program {
	t.Helper()
	p, err := datalog.NewProgram(datalog.Rule{
		Head: datalog.Atom{Pred: "reach", Args: []datalog.Term{datalog.V("x"), datalog.V("v")}},
		Body: []datalog.Literal{
			{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
			{Atom: datalog.Atom{Pred: "attr", Args: []datalog.Term{datalog.V("y"), datalog.V("v")}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// durableRuntime assembles the full boot path: registered tables, recovery
// from the durability directory, and the store attached as the tick loop's
// sink.
func durableRuntime(t *testing.T, fs durable.FS, p *datalog.Program) (*Runtime, *durable.Store) {
	t.Helper()
	store, err := durable.Open(durable.Options{FS: fs, SnapshotEveryRecords: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rt := New("n1", 1)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(TableSchema{Name: "edge", Arity: 2})
	rt.RegisterTable(TableSchema{Name: "attr", Arity: 2})
	rt.RegisterHandler("mut", func(tx *Tx, msg Message) {
		table, op := msg.Payload[0].(string), msg.Payload[1].(string)
		row := datalog.Tuple{msg.Payload[2], msg.Payload[3]}
		if op == "del" {
			tx.Delete(table, row)
		} else {
			tx.MergeTuple(table, row)
		}
	})
	if err := rt.RecoverQueriesIncremental(p, store.Recover); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetDurability(store); err != nil {
		t.Fatal(err)
	}
	return rt, store
}

func mutTick(t *testing.T, rt *Runtime, table, op string, a, b int64) {
	t.Helper()
	rt.Inject("mut", datalog.Tuple{table, op, a, b})
	rt.Tick()
}

// TestDurableRuntimeRecovers: a runtime journaling through a durable.Store
// resumes after a restart with tables and maintained fixpoint intact, and
// keeps maintaining incrementally.
func TestDurableRuntimeRecovers(t *testing.T) {
	fs := durable.NewFaultFS()
	rt, store := durableRuntime(t, fs, reachQueries(t))
	mutTick(t, rt, "edge", "ins", 1, 2)
	mutTick(t, rt, "attr", "ins", 2, 7)
	mutTick(t, rt, "edge", "ins", 5, 2)
	mutTick(t, rt, "edge", "del", 5, 2)
	if got := store.LastSeq(); got != 4 {
		t.Fatalf("LastSeq = %d, want 4 (one per effectful tick)", got)
	}
	if !rt.Table("reach").Contains(datalog.Tuple{int64(1), int64(7)}) {
		t.Fatalf("fixpoint wrong before restart: reach = %v", rt.Table("reach").Tuples())
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, store2 := durableRuntime(t, fs, reachQueries(t))
	defer store2.Close()
	if got := store2.LastSeq(); got != 4 {
		t.Fatalf("recovered LastSeq = %d, want 4", got)
	}
	if got := rt2.Table("edge").Len(); got != 1 {
		t.Fatalf("recovered edge table has %d rows, want 1: %v", got, rt2.Table("edge").Tuples())
	}
	if !rt2.Table("reach").Contains(datalog.Tuple{int64(1), int64(7)}) || rt2.Table("reach").Len() != 1 {
		t.Fatalf("recovered fixpoint wrong: reach = %v", rt2.Table("reach").Tuples())
	}
	// The recovered runtime keeps ticking durably.
	mutTick(t, rt2, "attr", "ins", 2, 8)
	if !rt2.Table("reach").Contains(datalog.Tuple{int64(1), int64(8)}) {
		t.Fatalf("recovered runtime stopped maintaining: reach = %v", rt2.Table("reach").Tuples())
	}
	if got := store2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq after resumed tick = %d, want 5", got)
	}
}

// TestRejectedTickKeepsServing: a tick the evaluator rejects — a sum over
// a non-numeric value — is rolled back whole — journal aborted, mutations
// undone, sends dropped — and the runtime keeps serving. The journal never
// sees the rejected tick, so recovery replays only the committed history.
func TestRejectedTickKeepsServing(t *testing.T) {
	fs := durable.NewFaultFS()
	rt, store := durableRuntime(t, fs, sumQueries(t))
	mutTick(t, rt, "edge", "ins", 1, 2)
	mutTick(t, rt, "attr", "ins", 2, 7)

	poisonTick(rt)
	if got := rt.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	if err := rt.LastRejection(); err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("LastRejection = %v, want the sum's failure", err)
	}
	if rt.Table("edge").Contains(datalog.Tuple{int64(3), int64(2)}) {
		t.Fatal("rejected tick's insert not rolled back")
	}
	if got := store.LastSeq(); got != 2 {
		t.Fatalf("LastSeq = %d, want 2 (rejected tick's record aborted)", got)
	}
	if got := rt.Stats().Sent; got != 0 {
		t.Fatalf("rejected tick leaked %d sends", got)
	}

	// Still serving: a good tick commits normally.
	mutTick(t, rt, "attr", "ins", 2, 9)
	if !rt.Table("reach").Contains(datalog.Tuple{int64(1), int64(9)}) {
		t.Fatalf("runtime stopped maintaining after rejection: reach = %v", rt.Table("reach").Tuples())
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery sees only the journaled history: three committed ticks, no
	// rejected edge.
	rt2, store2 := durableRuntime(t, fs, sumQueries(t))
	defer store2.Close()
	if got := store2.LastSeq(); got != 3 {
		t.Fatalf("recovered LastSeq = %d, want 3", got)
	}
	if rt2.Table("edge").Contains(datalog.Tuple{int64(3), int64(2)}) {
		t.Fatal("rejected tick's edge resurrected by recovery")
	}
	if rt2.Table("reach").Len() != 2 {
		t.Fatalf("recovered fixpoint wrong: reach = %v", rt2.Table("reach").Tuples())
	}
}

// sumQueries maintains reach(x, v) :- edge(x, y), attr(y, v) and sums
// total(x, sum v) :- reach(x, v): a non-numeric attr value that reaches
// the sum fails the batch after the join's component realized its part.
func sumQueries(t *testing.T) *datalog.Program {
	t.Helper()
	V := datalog.V
	p, err := datalog.NewProgram(reachQueries(t).Rules[0], datalog.Rule{
		Head:   datalog.Atom{Pred: "total", Args: []datalog.Term{V("x"), V("v")}},
		Body:   []datalog.Literal{{Atom: datalog.Atom{Pred: "reach", Args: []datalog.Term{V("x"), V("v")}}}},
		Agg:    datalog.AggSum,
		AggVar: "v",
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dumpRuntime renders every table and derived relation, rows sorted.
func dumpRuntime(rt *Runtime) string {
	var b strings.Builder
	for _, name := range rt.TableNames() {
		fmt.Fprintln(&b, name, sortedRows(rt.Table(name).Tuples()))
	}
	return b.String()
}

// poisonTick runs one tick whose batch stages a good edge — its reach rows
// are realized in the join's component — and attr(2, "oops"), which the
// sum after it fails on.
func poisonTick(rt *Runtime) {
	rt.RegisterHandler("poison", func(tx *Tx, msg Message) {
		tx.MergeTuple("edge", datalog.Tuple{int64(3), int64(2)})
		tx.MergeTuple("attr", datalog.Tuple{int64(2), "oops"})
		tx.Send("never", datalog.Tuple{int64(1)})
	})
	rt.Inject("poison", datalog.Tuple{})
	rt.Tick()
}

// TestPoisonTickRollsBack: a tick whose batch fails the evaluator midway —
// a sum over a non-numeric value, after an earlier component realized
// changes — is rejected like any other: every table and derived relation
// holds its pre-tick contents, the journal never keeps it, nothing is
// sent, and the next tick commits.
func TestPoisonTickRollsBack(t *testing.T) {
	rt, store := durableRuntime(t, durable.NewFaultFS(), sumQueries(t))
	defer store.Close()
	mutTick(t, rt, "edge", "ins", 1, 2)
	mutTick(t, rt, "attr", "ins", 2, 7)
	before := dumpRuntime(rt)
	poisonTick(rt)
	if got := rt.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	if err := rt.LastRejection(); err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("LastRejection = %v, want the sum's failure", err)
	}
	if after := dumpRuntime(rt); after != before {
		t.Fatalf("rejected tick left changes:\n%s\nwant:\n%s", after, before)
	}
	if got := store.LastSeq(); got != 2 {
		t.Fatalf("LastSeq = %d, want 2 (rejected tick's record aborted)", got)
	}
	if got := rt.Stats().Sent; got != 0 {
		t.Fatalf("rejected tick leaked %d sends", got)
	}
	mutTick(t, rt, "attr", "ins", 2, 9)
	if !rt.Table("total").Contains(datalog.Tuple{int64(1), int64(16)}) {
		t.Fatalf("runtime stopped maintaining after the rejection: total = %v", rt.Table("total").Tuples())
	}
}

// TestPoisonTickRecovers: the files a durable runtime leaves after a
// poison tick boot again, to the last committed tick — also when the
// process died before the rejected record's truncation reached the disk,
// so recovery replays it, sees it rejected again and drops it.
func TestPoisonTickRecovers(t *testing.T) {
	for _, lostAbort := range []bool{false, true} {
		fs := durable.NewFaultFS()
		rt, store := durableRuntime(t, fs, sumQueries(t))
		mutTick(t, rt, "edge", "ins", 1, 2)
		mutTick(t, rt, "attr", "ins", 2, 7)
		before := dumpRuntime(rt)
		if lostAbort {
			fs.CrashAfterOps(1) // the append's sync; the abort's truncate fails
		}
		poisonTick(rt)
		if err := rt.LastRejection(); lostAbort && !strings.Contains(err.Error(), "abort also failed") {
			t.Fatalf("LastRejection = %v, want the failed abort", err)
		}
		store.Close()
		fs.Revive()

		rt2, store2 := durableRuntime(t, fs, sumQueries(t))
		if got := store2.LastSeq(); got != 2 {
			t.Fatalf("lost abort %v: recovered LastSeq = %d, want 2", lostAbort, got)
		}
		if got := dumpRuntime(rt2); got != before {
			t.Fatalf("lost abort %v: recovered\n%s\nwant the pre-poison state:\n%s", lostAbort, got, before)
		}
		mutTick(t, rt2, "attr", "ins", 2, 9)
		if got := store2.LastSeq(); got != 3 {
			t.Fatalf("lost abort %v: LastSeq after a recovered tick = %d, want 3", lostAbort, got)
		}
		store2.Close()
	}
}

// TestDerivedWriteRejectsTick: a handler writing a derived relation is
// rejected before anything reaches the journal or the fixpoint, and the
// runtime keeps serving (this used to panic the node).
func TestDerivedWriteRejectsTick(t *testing.T) {
	fs := durable.NewFaultFS()
	rt, store := durableRuntime(t, fs, reachQueries(t))
	defer store.Close()
	mutTick(t, rt, "edge", "ins", 1, 2)

	rt.RegisterHandler("bad", func(tx *Tx, msg Message) {
		tx.MergeTuple("edge", datalog.Tuple{int64(4), int64(5)})
		tx.MergeTuple("reach", datalog.Tuple{int64(9), int64(9)})
	})
	rt.Inject("bad", datalog.Tuple{int64(0)})
	rt.Tick()
	if got := rt.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	if rt.Table("edge").Contains(datalog.Tuple{int64(4), int64(5)}) {
		t.Fatal("mutation staged before the derived write not rolled back")
	}
	if got := store.LastSeq(); got != 1 {
		t.Fatalf("LastSeq = %d, want 1 (rejected tick never journaled)", got)
	}
	mutTick(t, rt, "attr", "ins", 2, 7)
	if !rt.Table("reach").Contains(datalog.Tuple{int64(1), int64(7)}) {
		t.Fatal("runtime stopped maintaining after rejection")
	}
}

// TestAppendFailureRejectsTick: when the sink cannot journal a tick (disk
// full, injected crash), the tick is rolled back and the node keeps serving
// in-memory; after a restart the recovered state is the last journaled one.
func TestAppendFailureRejectsTick(t *testing.T) {
	fs := durable.NewFaultFS()
	rt, store := durableRuntime(t, fs, reachQueries(t))
	mutTick(t, rt, "edge", "ins", 1, 2)
	mutTick(t, rt, "attr", "ins", 2, 7)

	fs.CrashAfterBytes(4) // the next append tears mid-record
	mutTick(t, rt, "edge", "ins", 5, 2)
	if got := rt.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	if !errors.Is(rt.LastRejection(), durable.ErrCrashed) {
		t.Fatalf("LastRejection = %v, want ErrCrashed", rt.LastRejection())
	}
	if rt.Table("edge").Contains(datalog.Tuple{int64(5), int64(2)}) {
		t.Fatal("unjournaled mutation not rolled back")
	}
	// The store has latched failed: later effectful ticks are rejected too,
	// but the node itself keeps running.
	mutTick(t, rt, "edge", "ins", 6, 2)
	if got := rt.Stats().Rejected; got != 2 {
		t.Fatalf("Rejected = %d, want 2 (store failed, ticks refused)", got)
	}
	if store.Failed() == nil {
		t.Fatal("store must latch failure after the torn append")
	}

	// Restart: the torn record is truncated, the two committed ticks replay.
	fs.Revive()
	rt2, store2 := durableRuntime(t, fs, reachQueries(t))
	defer store2.Close()
	if got := store2.LastSeq(); got != 2 {
		t.Fatalf("recovered LastSeq = %d, want 2", got)
	}
	if !rt2.Table("reach").Contains(datalog.Tuple{int64(1), int64(7)}) || rt2.Table("reach").Len() != 1 {
		t.Fatalf("recovered fixpoint wrong: reach = %v", rt2.Table("reach").Tuples())
	}
}

// stubSink records the durability protocol calls the tick loop makes.
type stubSink struct {
	calls   []string
	lastOps int
}

func (s *stubSink) Append(d *datalog.Delta) error {
	s.calls = append(s.calls, "append")
	s.lastOps = len(d.Ops())
	return nil
}
func (s *stubSink) AbortLast() error {
	s.calls = append(s.calls, "abort")
	return nil
}
func (s *stubSink) Committed(inc *datalog.Incremental) error {
	if inc == nil {
		return fmt.Errorf("Committed called with nil evaluator")
	}
	s.calls = append(s.calls, "committed")
	return nil
}

// TestDurabilityProtocolOrder pins the sink contract: append before apply,
// committed after, and nothing for no-effect ticks — before any query
// program is registered (the runtime maintains the empty one) and after.
// An assign is a VarRelation row, so an assign-only tick is journaled.
func TestDurabilityProtocolOrder(t *testing.T) {
	rt := New("n1", 1)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(TableSchema{Name: "edge", Arity: 2})
	rt.RegisterHandler("add", func(tx *Tx, msg Message) { tx.MergeTuple("edge", msg.Payload) })
	rt.RegisterHandler("noop", func(tx *Tx, msg Message) {})
	rt.RegisterHandler("set", func(tx *Tx, msg Message) { tx.Assign("x", int64(1)) })
	rt.RegisterVar("x", int64(0))
	sink := &stubSink{}
	if err := rt.SetDurability(sink); err != nil {
		t.Fatal(err)
	}
	rt.Inject("add", datalog.Tuple{"z", "z"})
	rt.Tick()
	if got := fmt.Sprint(sink.calls); got != "[append committed]" {
		t.Fatalf("tick without a query program drove sink calls %v, want [append committed]", sink.calls)
	}
	if err := rt.RegisterQueriesIncremental(tcQueries(t)); err != nil {
		t.Fatal(err)
	}
	sink.calls = nil
	if err := rt.SetDurability(sink); err != nil {
		t.Fatal(err)
	}

	rt.Inject("add", datalog.Tuple{"a", "b"})
	rt.Tick()
	if got := fmt.Sprint(sink.calls); got != "[append committed]" {
		t.Fatalf("effectful tick drove sink calls %v, want [append committed]", sink.calls)
	}
	if sink.lastOps == 0 {
		t.Fatal("journaled delta carried no recorded ops")
	}

	sink.calls = nil
	rt.Inject("noop", datalog.Tuple{int64(0)})
	rt.Tick()
	if len(sink.calls) != 0 {
		t.Fatalf("no-effect tick drove sink calls %v", sink.calls)
	}
	rt.Inject("set", datalog.Tuple{int64(0)})
	rt.Tick()
	if got := fmt.Sprint(sink.calls); got != "[append committed]" {
		t.Fatalf("assign-only tick drove sink calls %v, want [append committed]", sink.calls)
	}
	if rt.Var("x") != int64(1) {
		t.Fatal("assign-only tick did not commit")
	}

	// Re-registering queries detaches the sink (its journal describes the
	// old evaluator's history).
	if err := rt.RegisterQueriesIncremental(tcQueries(t)); err != nil {
		t.Fatal(err)
	}
	sink.calls = nil
	rt.Inject("add", datalog.Tuple{"b", "c"})
	rt.Tick()
	if len(sink.calls) != 0 {
		t.Fatalf("detached sink still driven: %v", sink.calls)
	}
}
