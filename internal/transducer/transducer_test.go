package transducer

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hydro/internal/datalog"
)

func fixedDelay(r *rand.Rand) int { return 1 }

func newTestRuntime() *Runtime {
	rt := New("n1", 42)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(TableSchema{
		Name:  "people",
		Arity: 3, // pid, covid, vaccinated
		Key:   []int{0},
		Join:  orJoin,
	})
	return rt
}

// orJoin is people's join: the bool columns or, and a new key's row is the
// staged row itself, its join with (pid, false, false).
func orJoin(old, staged datalog.Tuple) datalog.Tuple {
	if old == nil {
		return staged
	}
	return datalog.Tuple{old[0], old[1].(bool) || staged[1].(bool), old[2].(bool) || staged[2].(bool)}
}

func TestMutationsDeferredToEndOfTick(t *testing.T) {
	rt := newTestRuntime()
	var sawDuringTick int
	rt.RegisterHandler("add", func(tx *Tx, msg Message) {
		tx.MergeTuple("people", datalog.Tuple{msg.Payload[0], false, false})
		// Within the tick the snapshot must not show this tick's inserts.
		sawDuringTick = len(tx.QueryWhere("people", nil, nil))
	})
	rt.Inject("add", datalog.Tuple{int64(1)})
	rt.Inject("add", datalog.Tuple{int64(2)})
	rt.Tick()
	if sawDuringTick != 0 {
		t.Fatalf("handler saw %d rows mid-tick, want 0 (snapshot semantics)", sawDuringTick)
	}
	if rt.Table("people").Len() != 2 {
		t.Fatalf("after tick: %d rows, want 2", rt.Table("people").Len())
	}
}

func TestFieldMergeMonotoneAndAutoCreate(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterHandler("diagnose", func(tx *Tx, msg Message) {
		tx.MergeTuple("people", datalog.Tuple{msg.Payload[0], true, false})
	})
	// Auto-create: merging into a missing row materializes the zero row.
	rt.Inject("diagnose", datalog.Tuple{int64(7)})
	rt.Tick()
	if !rt.Table("people").Contains(datalog.Tuple{int64(7), true, false}) {
		t.Fatalf("rows = %v", rt.Table("people").Tuples())
	}
	// Merging false over true must not regress (or-lattice).
	rt.RegisterHandler("undiagnose", func(tx *Tx, msg Message) {
		tx.MergeTuple("people", datalog.Tuple{msg.Payload[0], false, false})
	})
	rt.Inject("undiagnose", datalog.Tuple{int64(7)})
	rt.Tick()
	if !rt.Table("people").Contains(datalog.Tuple{int64(7), true, false}) {
		t.Fatal("or-lattice merge regressed")
	}
}

func TestSendsInvisibleUntilLaterTick(t *testing.T) {
	rt := newTestRuntime()
	var got []Message
	rt.RegisterHandler("ping", func(tx *Tx, msg Message) {
		tx.Send("pong", datalog.Tuple{"hello"})
	})
	rt.RegisterHandler("pong", func(tx *Tx, msg Message) {
		got = append(got, msg)
	})
	rt.Inject("ping", datalog.Tuple{int64(1)})
	rt.Tick() // handles ping, send staged
	if len(got) != 0 {
		t.Fatal("send visible in same tick")
	}
	rt.Tick() // delivery (delay=1) and handling
	if len(got) != 1 || got[0].Payload[0] != "hello" {
		t.Fatalf("pong got %v", got)
	}
}

func TestReplyCorrelation(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterHandler("ask", func(tx *Tx, msg Message) {
		tx.Reply("answer")
	})
	id := rt.Inject("ask", datalog.Tuple{})
	rt.Tick()
	rt.Tick()
	resp := rt.Drain("ask<response>")
	if len(resp) != 1 {
		t.Fatalf("responses = %v", resp)
	}
	if resp[0].Payload[0] != id || resp[0].Payload[1] != "answer" {
		t.Fatalf("payload = %v, want [%d answer]", resp[0].Payload, id)
	}
}

func TestAbortDiscardsEffects(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterVar("count", int64(0))
	rt.RegisterHandler("guarded", func(tx *Tx, msg Message) {
		tx.MergeTuple("people", datalog.Tuple{msg.Payload[0], false, false})
		tx.Assign("count", tx.ReadVar("count").(int64)+1)
		tx.Send("side", datalog.Tuple{"never"})
		if msg.Payload[0].(int64) < 0 {
			tx.Abort()
		}
	})
	rt.Inject("guarded", datalog.Tuple{int64(-5)}) // aborts
	rt.Inject("guarded", datalog.Tuple{int64(5)})  // commits
	rt.Tick()
	if rt.Table("people").Len() != 1 {
		t.Fatalf("people = %v", rt.Table("people").Tuples())
	}
	if rt.Var("count").(int64) != 1 {
		t.Fatalf("count = %v", rt.Var("count"))
	}
	if rt.Stats().Aborted != 1 {
		t.Fatalf("aborted = %d", rt.Stats().Aborted)
	}
	rt.Tick()
	if len(rt.Drain("side")) != 1 {
		t.Fatal("committed handler's send lost or aborted handler's send leaked")
	}
}

func TestQueriesRunToFixpointPerTick(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterTable(TableSchema{Name: "edge", Arity: 2})
	prog, err := datalog.NewProgram(
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
		t.Fatal(err)
	}
	if err := rt.RegisterQueriesIncremental(prog); err != nil {
		t.Fatal(err)
	}
	rt.RegisterHandler("add_edge", func(tx *Tx, msg Message) {
		tx.MergeTuple("edge", msg.Payload)
	})
	var reach []datalog.Tuple
	rt.RegisterHandler("probe", func(tx *Tx, msg Message) {
		reach = tx.QueryWhere("path", []int{0}, []any{msg.Payload[0]})
	})
	rt.Inject("add_edge", datalog.Tuple{"a", "b"})
	rt.Inject("add_edge", datalog.Tuple{"b", "c"})
	rt.Tick()
	rt.Inject("probe", datalog.Tuple{"a"})
	rt.Tick()
	if len(reach) != 2 {
		t.Fatalf("path(a, _) = %v, want 2 rows", reach)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []datalog.Tuple {
		rt := newTestRuntime()
		rt.RegisterHandler("add", func(tx *Tx, msg Message) {
			tx.MergeTuple("people", datalog.Tuple{msg.Payload[0], false, false})
			tx.Send("echo", msg.Payload)
		})
		rt.RegisterHandler("echo", func(tx *Tx, msg Message) {
			tx.MergeTuple("people", datalog.Tuple{msg.Payload[0], false, true})
		})
		for i := int64(0); i < 10; i++ {
			rt.Inject("add", datalog.Tuple{i})
		}
		rt.RunUntilIdle(50)
		return rt.Table("people").Tuples()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic row count")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAssignLastWriteWinsDeterministically(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterVar("x", int64(0))
	rt.RegisterHandler("seta", func(tx *Tx, msg Message) { tx.Assign("x", msg.Payload[0]) })
	rt.Inject("seta", datalog.Tuple{int64(1)})
	rt.Inject("seta", datalog.Tuple{int64(2)})
	rt.Tick()
	// Both staged in one tick: the later message in mailbox order wins;
	// the point is determinism, asserted by repetition.
	first := rt.Var("x")
	for i := 0; i < 5; i++ {
		rt2 := newTestRuntime()
		rt2.RegisterVar("x", int64(0))
		rt2.RegisterHandler("seta", func(tx *Tx, msg Message) { tx.Assign("x", msg.Payload[0]) })
		rt2.Inject("seta", datalog.Tuple{int64(1)})
		rt2.Inject("seta", datalog.Tuple{int64(2)})
		rt2.Tick()
		if rt2.Var("x") != first {
			t.Fatal("conflicting assigns resolved non-deterministically")
		}
	}
}

func TestDeleteAppliedAfterInserts(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterHandler("addrm", func(tx *Tx, msg Message) {
		tx.MergeTuple("people", datalog.Tuple{msg.Payload[0], false, false})
		tx.Delete("people", datalog.Tuple{msg.Payload[0], false, false})
	})
	rt.Inject("addrm", datalog.Tuple{int64(1)})
	rt.Tick()
	if rt.Table("people").Len() != 0 {
		t.Fatal("delete must apply after insert within the same tick")
	}
}

func TestRemoteRouting(t *testing.T) {
	rt := newTestRuntime()
	var remote []Message
	rt.Remote = func(node string, msg Message) {
		if node != "n2" {
			t.Fatalf("routed to %q", node)
		}
		remote = append(remote, msg)
	}
	rt.RegisterHandler("go", func(tx *Tx, msg Message) {
		tx.Send("n2/inbox", datalog.Tuple{"x"})
	})
	rt.Inject("go", datalog.Tuple{})
	rt.Tick()
	rt.Tick()
	if len(remote) != 1 || remote[0].Mailbox != "inbox" {
		t.Fatalf("remote = %v", remote)
	}
}

func TestIdleAndRunUntilIdle(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterHandler("a", func(tx *Tx, msg Message) { tx.Send("b", datalog.Tuple{}) })
	rt.RegisterHandler("b", func(tx *Tx, msg Message) {})
	if !rt.Idle() {
		t.Fatal("fresh runtime should be idle")
	}
	rt.Inject("a", datalog.Tuple{})
	if rt.Idle() {
		t.Fatal("pending message should make runtime busy")
	}
	n := rt.RunUntilIdle(20)
	if n >= 20 || !rt.Idle() {
		t.Fatalf("did not quiesce: %d ticks", n)
	}
}

// TestPeekReturnsCopy is the regression test for the mailbox aliasing bug:
// Peek used to return the live slice backing the mailbox, so callers could
// mutate queued messages (or have their view shifted by later deliveries).
func TestPeekReturnsCopy(t *testing.T) {
	rt := newTestRuntime()
	rt.Inject("box", datalog.Tuple{int64(1)})
	rt.Inject("box", datalog.Tuple{int64(2)})
	peeked := rt.Peek("box")
	if len(peeked) != 2 {
		t.Fatalf("peeked %d messages, want 2", len(peeked))
	}
	peeked[0].Payload[0] = int64(99) // element-level write through the copy
	peeked[1].Mailbox = "elsewhere"
	drained := rt.Drain("box")
	if drained[0].Payload[0] != int64(1) || drained[1].Mailbox != "box" {
		t.Fatalf("mutating the peeked slice reached the mailbox: %v", drained)
	}
	if rt.Peek("missing") != nil {
		t.Fatal("peek of a missing mailbox must be nil")
	}
}

func tcQueries(t testing.TB) *datalog.Program {
	prog, err := datalog.NewProgram(
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
		t.Fatal(err)
	}
	return prog
}

// sortedRows renders tuples as sorted strings: the oracle below derives from
// scratch, so it agrees with the maintained relation as a set, not slot by
// slot.
func sortedRows(rows []datalog.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// evalPath is the oracle of TestIncrementalTickMatchesFullEval: `path`
// re-derived by a from-scratch datalog seed (NewIncremental) over a copy
// of the runtime's base tables.
func evalPath(t *testing.T, rt *Runtime) []string {
	t.Helper()
	ref := datalog.NewDatabase()
	for _, name := range []string{"edge", "people"} {
		src := rt.Table(name)
		dst := ref.Ensure(name, src.Arity)
		for _, row := range src.Tuples() {
			dst.Insert(row)
		}
	}
	if _, err := datalog.NewIncremental(tcQueries(t), ref); err != nil {
		t.Fatal(err)
	}
	if rel := ref.Get("path"); rel != nil {
		return sortedRows(rel.Tuples())
	}
	return []string{}
}

// TestIncrementalTickMatchesFullEval runs a randomized op stream — edge
// merges, edge deletes, keyed upserts, and query probes — through the
// runtime and requires every probe result, and the maintained `path` at the
// end, to equal a from-scratch seed over the base tables as they stood when
// the probing tick began (handlers read the start-of-tick state), and the
// final base tables to equal a plain model of the op stream. The reference
// is datalog.Eval, which the three-way differential test ties to EvalNaive:
// this is the transducer-level leg of that property.
func TestIncrementalTickMatchesFullEval(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rt := New("n1", seed)
		rt.SetDelay(fixedDelay)
		rt.RegisterTable(TableSchema{Name: "edge", Arity: 2})
		rt.RegisterTable(TableSchema{
			Name: "people", Arity: 3, Key: []int{0}, Join: orJoin,
		})
		if err := rt.RegisterQueriesIncremental(tcQueries(t)); err != nil {
			t.Fatal(err)
		}
		var probes, want [][]string
		rt.RegisterHandler("add_edge", func(tx *Tx, msg Message) { tx.MergeTuple("edge", msg.Payload) })
		rt.RegisterHandler("del_edge", func(tx *Tx, msg Message) { tx.Delete("edge", msg.Payload) })
		rt.RegisterHandler("diagnose", func(tx *Tx, msg Message) {
			tx.MergeTuple("people", datalog.Tuple{msg.Payload[0], true, false})
		})
		rt.RegisterHandler("probe", func(tx *Tx, msg Message) {
			probes = append(probes, sortedRows(tx.QueryWhere("path", nil, nil)))
		})
		probe := func() {
			want = append(want, evalPath(t, rt))
			rt.Inject("probe", datalog.Tuple{})
		}
		edges, people := map[string]bool{}, map[string]bool{}
		r := rand.New(rand.NewSource(seed))
		for op := 0; op < 60; op++ {
			switch r.Intn(4) {
			case 0, 1:
				row := datalog.Tuple{int64(r.Intn(8)), int64(r.Intn(8))}
				edges[row.String()] = true
				rt.Inject("add_edge", row)
			case 2:
				row := datalog.Tuple{int64(r.Intn(8)), int64(r.Intn(8))}
				delete(edges, row.String())
				rt.Inject("del_edge", row)
			default:
				pid := int64(r.Intn(8))
				people[datalog.Tuple{pid, true, false}.String()] = true
				rt.Inject("diagnose", datalog.Tuple{pid})
			}
			if r.Intn(3) == 0 {
				probe()
			}
			rt.Tick()
		}
		probe()
		rt.Tick()
		if len(probes) != len(want) {
			t.Fatalf("seed %d: %d probes handled, want %d", seed, len(probes), len(want))
		}
		for i := range want {
			if fmt.Sprint(probes[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("seed %d probe %d: path diverges from the seed\nseed: %v\nincr: %v", seed, i, want[i], probes[i])
			}
		}
		if got, ref := sortedRows(rt.Table("path").Tuples()), evalPath(t, rt); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("seed %d: final path diverges from the seed\nseed: %v\nincr: %v", seed, ref, got)
		}
		for table, model := range map[string]map[string]bool{"edge": edges, "people": people} {
			got := sortedRows(rt.Table(table).Tuples())
			if len(got) != len(model) {
				t.Fatalf("seed %d: table %s: %d rows, model has %d: %v", seed, table, len(got), len(model), got)
			}
			for _, row := range got {
				if !model[row] {
					t.Fatalf("seed %d: table %s holds %s, the model does not", seed, table, row)
				}
			}
		}
	}
}

// TestRegisterQueriesReplacementPurgesStaleFixpoint is the regression test
// for the stale-fixpoint case: the evaluator materializes its derived
// relations directly into the runtime database, so replacing the program
// mid-stream — after ticks have populated the fixpoint — must purge those
// tuples, or the successor is rejected outright ("derived ... already holds
// base tuples") instead of rebuilding the correct fixpoint.
func TestRegisterQueriesReplacementPurgesStaleFixpoint(t *testing.T) {
	rt := New("n1", 1)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(TableSchema{Name: "edge", Arity: 2})
	if err := rt.RegisterQueriesIncremental(tcQueries(t)); err != nil {
		t.Fatal(err)
	}
	rt.RegisterHandler("add_edge", func(tx *Tx, msg Message) { tx.MergeTuple("edge", msg.Payload) })
	rt.Inject("add_edge", datalog.Tuple{"a", "b"})
	rt.Inject("add_edge", datalog.Tuple{"b", "c"})
	rt.Tick()
	if rt.Table("path").Len() != 3 {
		t.Fatalf("incremental fixpoint not materialized: path = %v", rt.Table("path").Tuples())
	}
	// Reverse-only program reusing the same head predicate: path(a,c) etc.
	// must be gone.
	revRules, err := datalog.NewProgram(datalog.Rule{
		Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("y"), datalog.V("x")}},
		Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterQueriesIncremental(revRules); err != nil {
		t.Fatalf("re-registration failed on predecessor's fixpoint: %v", err)
	}
	want := map[string]bool{`(b, a)`: true, `(c, b)`: true}
	got := rt.Table("path").Tuples()
	if len(got) != 2 || !want[got[0].String()] || !want[got[1].String()] {
		t.Fatalf("successor fixpoint wrong: path = %v", got)
	}
}

// TestIncrementalDeleteOfDerivedIsNoOp: derived relations belong to the
// evaluator, so tx.Delete on one is a silent no-op instead of corrupting
// the maintained fixpoint or crashing.
func TestIncrementalDeleteOfDerivedIsNoOp(t *testing.T) {
	rt := New("n1", 1)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(TableSchema{Name: "edge", Arity: 2})
	if err := rt.RegisterQueriesIncremental(tcQueries(t)); err != nil {
		t.Fatal(err)
	}
	rt.RegisterHandler("add_edge", func(tx *Tx, msg Message) { tx.MergeTuple("edge", msg.Payload) })
	rt.RegisterHandler("del_path", func(tx *Tx, msg Message) { tx.Delete("path", msg.Payload) })
	rt.Inject("add_edge", datalog.Tuple{"a", "b"})
	rt.Tick()
	rt.Inject("del_path", datalog.Tuple{"a", "b"})
	rt.Tick()
	if got := rt.Table("path").Tuples(); len(got) != 1 {
		t.Fatalf("derived delete must be a no-op, path = %v", got)
	}
}

// TestIncrementalRejectsTableCollision: a registered table that a query
// derives must be rejected, in either registration order.
func TestIncrementalRejectsTableCollision(t *testing.T) {
	rt := New("n1", 1)
	rt.RegisterTable(TableSchema{Name: "path", Arity: 2})
	if err := rt.RegisterQueriesIncremental(tcQueries(t)); err == nil {
		t.Fatal("table registered before queries must collide")
	}
	rt2 := New("n2", 1)
	if err := rt2.RegisterQueriesIncremental(tcQueries(t)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("table registered after incremental queries must panic on collision")
		}
	}()
	rt2.RegisterTable(TableSchema{Name: "path", Arity: 2})
}

func TestUnhandledMailboxAccumulates(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterHandler("fan", func(tx *Tx, msg Message) {
		tx.Send("alerts", datalog.Tuple{msg.Payload[0]})
	})
	rt.Inject("fan", datalog.Tuple{int64(1)})
	rt.Inject("fan", datalog.Tuple{int64(2)})
	rt.RunUntilIdle(10)
	if got := len(rt.Peek("alerts")); got != 2 {
		t.Fatalf("alerts mailbox has %d messages, want 2", got)
	}
}

// TestIdleToleratesEmptyMailboxSlice is the regression test for the Idle
// ordering bug: msgs[0] was indexed before the len(msgs) > 0 guard, so a
// present-but-empty mailbox slice panicked instead of reading as idle.
func TestIdleToleratesEmptyMailboxSlice(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterHandler("box", func(tx *Tx, msg Message) {})
	rt.mailboxes["box"] = []Message{} // what a drained-in-place mailbox looks like
	if !rt.Idle() {
		t.Fatal("empty mailbox slice must read as idle")
	}
	rt.Inject("box", datalog.Tuple{int64(1)})
	if rt.Idle() {
		t.Fatal("pending handled message must read as busy")
	}
}

// TestRunUntilIdleSkipsInitialTickWhenIdle: an already-idle runtime must
// not burn a tick (serving shells settle after every batch, and the old
// behavior inflated Stats.Ticks by one per call).
func TestRunUntilIdleSkipsInitialTickWhenIdle(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterHandler("a", func(tx *Tx, msg Message) {})
	if n := rt.RunUntilIdle(10); n != 0 {
		t.Fatalf("idle runtime ran %d ticks, want 0", n)
	}
	if got := rt.Stats().Ticks; got != 0 {
		t.Fatalf("idle RunUntilIdle must not tick, Ticks = %d", got)
	}
	rt.Inject("a", datalog.Tuple{})
	if n := rt.RunUntilIdle(10); n != 1 {
		t.Fatalf("one pending message needs 1 tick, got %d", n)
	}
}

// TestInjectBatchSingleTick: a whole batch is ingested by one tick — one
// snapshot, one atomic apply — with IDs assigned in batch order.
func TestInjectBatchSingleTick(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterTable(TableSchema{Name: "facts", Arity: 1})
	rt.RegisterHandler("a", func(tx *Tx, msg Message) { tx.MergeTuple("facts", msg.Payload) })
	rt.RegisterHandler("b", func(tx *Tx, msg Message) { tx.MergeTuple("facts", msg.Payload) })
	ids := rt.InjectBatch([]Injection{
		{Mailbox: "a", Payload: datalog.Tuple{int64(1)}},
		{Mailbox: "b", Payload: datalog.Tuple{int64(2)}},
		{Mailbox: "a", Payload: datalog.Tuple{int64(3)}},
	})
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs must be assigned in batch order: %v", ids)
		}
	}
	if handled := rt.Tick(); handled != 3 {
		t.Fatalf("one tick must ingest the whole batch, handled %d", handled)
	}
	if got := rt.Stats().Ticks; got != 1 {
		t.Fatalf("Ticks = %d, want 1", got)
	}
	if got := len(rt.Table("facts").Tuples()); got != 3 {
		t.Fatalf("facts has %d rows, want 3", got)
	}
}

// TestFullKeyMergeIsSetInsert: when a table's key names every column, a
// merge is a set insert — re-merging an equal row records no delta op, so
// the tick drives no durability call — while a new row is inserted.
func TestFullKeyMergeIsSetInsert(t *testing.T) {
	rt := New("n1", 1)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(TableSchema{Name: "contacts", Arity: 2, Key: []int{0, 1}})
	rt.RegisterHandler("add", func(tx *Tx, msg Message) { tx.MergeTuple("contacts", msg.Payload) })
	sink := &stubSink{}
	if err := rt.SetDurability(sink); err != nil {
		t.Fatal(err)
	}
	rt.Inject("add", datalog.Tuple{int64(1), int64(2)})
	rt.Tick()
	if got := fmt.Sprint(sink.calls); got != "[append committed]" || sink.lastOps != 1 {
		t.Fatalf("first merge: sink calls %v with %d ops, want [append committed] with 1", sink.calls, sink.lastOps)
	}
	sink.calls = nil
	rt.Inject("add", datalog.Tuple{int64(1), int64(2)})
	rt.Tick()
	if len(sink.calls) != 0 {
		t.Fatalf("re-merging an equal row drove sink calls %v, want none", sink.calls)
	}
	rt.Inject("add", datalog.Tuple{int64(1), int64(3)})
	rt.Tick()
	if got := rt.Table("contacts").Tuples(); fmt.Sprint(got) != "[(1, 2) (1, 3)]" {
		t.Fatalf("contacts = %v, want [(1, 2) (1, 3)]", got)
	}
}

// TestTickTimings: every tick records a per-phase breakdown.
func TestTickTimings(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterTable(TableSchema{Name: "facts", Arity: 1})
	rt.RegisterHandler("a", func(tx *Tx, msg Message) { tx.MergeTuple("facts", msg.Payload) })
	rt.Inject("a", datalog.Tuple{int64(1)})
	rt.Tick()
	tt := rt.LastTickTimings()
	if tt.Handled != 1 {
		t.Fatalf("timings.Handled = %d, want 1", tt.Handled)
	}
	if tt.Deliver < 0 || tt.Handlers < 0 || tt.Apply < 0 {
		t.Fatalf("negative phase timing: %+v", tt)
	}
	if !rt.Handles("a") || rt.Handles("missing") {
		t.Fatal("Handles must report handler registration")
	}
}

// TestSendAddressedToOwnNodeIsHandled: a send addressed "name/mailbox" to
// the runtime's own name reaches its local handler, with or without a
// transport plugged in, instead of stranding under the addressed name.
func TestSendAddressedToOwnNodeIsHandled(t *testing.T) {
	for _, withRemote := range []bool{false, true} {
		rt := newTestRuntime()
		if withRemote {
			rt.Remote = func(node string, msg Message) { t.Fatalf("self send routed to %q", node) }
		}
		got := 0
		rt.RegisterHandler("a", func(tx *Tx, msg Message) { tx.Send("n1/b", datalog.Tuple{"x"}) })
		rt.RegisterHandler("b", func(tx *Tx, msg Message) { got++ })
		rt.Inject("a", datalog.Tuple{})
		rt.RunUntilIdle(10)
		if got != 1 || len(rt.Peek("n1/b")) != 0 || rt.Stats().Handled != 2 {
			t.Fatalf("remote=%v: b handled %d, %d stuck under n1/b, %d handled in all",
				withRemote, got, len(rt.Peek("n1/b")), rt.Stats().Handled)
		}
	}
}
