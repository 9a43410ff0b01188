package transducer

import (
	"runtime"
	"testing"

	"hydro/internal/datalog"
)

// TestWarmFanoutTickAllocs is the allocation budget of a warm fan-out
// tick: 64 trace-like messages, each deriving its id's 256 rows through a
// prepared rule and sending them to an observation mailbox. Each
// derivation allocates once, its payload array: no executor, no word
// buffer grown afresh and no Tuple header per row. Beyond the
// derivations, the tick may allocate per message,
// never per row: no Message, in-flight entry or later delivery per row.
// `make tick-allocs` runs it; -race inflates the counts, so it skips there.
func TestWarmFanoutTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const msgs, rows = 64, 256
	// The per-message budget covers each message's Tx and its mailbox's
	// growth on Inject.
	const perMessage, perMessageBytes = 2, 512
	// A derivation of n rows of arity k (here 1) may allocate perDerive
	// times whatever n — its payload array; the plan executor and the word
	// buffer are the database's, made by the warm-up tick — and n·k
	// interface words plus perDeriveBytes: the allocator's rounding of the
	// payload array up to its size class.
	const arity, perDerive, perDeriveBytes = 1, 1, 2048

	rt := New("n1", 1)
	rt.RegisterTable(TableSchema{Name: "reach", Arity: 2})
	reach := rt.Table("reach")
	for id := int64(0); id < msgs; id++ {
		for p := int64(0); p < rows; p++ {
			reach.Insert(datalog.Tuple{id, p})
		}
	}
	pr, err := datalog.PrepareRule(datalog.Rule{
		Head: datalog.Atom{Pred: "__send", Args: []datalog.Term{datalog.V("p")}},
		Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "reach", Args: []datalog.Term{datalog.V("id"), datalog.V("p")}}}},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([]datalog.Tuple, msgs)
	bound := make([]map[string]any, msgs)
	for id := range payloads {
		payloads[id] = datalog.Tuple{int64(id)}
		bound[id] = map[string]any{"id": int64(id)}
	}
	rt.RegisterHandler("trace", func(tx *Tx, msg Message) {
		out, err := tx.DerivePrepared(pr, bound[msg.Payload[0].(int64)])
		if err != nil {
			tx.Abort()
			return
		}
		tx.SendAll("trace_response", out)
	})
	sent := 0
	rt.SetObservationSink(func(_ string, m []Message) { sent += len(m) })
	tick := func() {
		for _, p := range payloads {
			rt.Inject("trace", p)
		}
		rt.Tick()
	}
	tick() // warm: plans, indexes and the runtime's reused buffers
	if sent != msgs*rows {
		t.Fatalf("warm-up tick sent %d rows, want %d", sent, msgs*rows)
	}

	deriveAll := func() {
		for _, b := range bound {
			if _, err := pr.Derive(rt.db, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	derive, got := testing.AllocsPerRun(20, deriveAll), testing.AllocsPerRun(20, tick)
	t.Logf("tick: %.0f allocs; its %d derivations alone: %.0f", got, msgs, derive)
	if derive > msgs*perDerive {
		t.Fatalf("%d warm derivations of %d rows allocate %.0f times, over their budget of %d each",
			msgs, rows, derive, perDerive)
	}
	if budget := derive + msgs*perMessage; got > budget {
		t.Fatalf("warm fan-out tick allocates %.0f times, over its budget of %.0f (derivations %.0f + %d per message)",
			got, budget, derive, perMessage)
	}
	// The same budget in bytes: a Message per row would be 1 MB a tick.
	deriveBytes, gotBytes := bytesPerRun(20, deriveAll), bytesPerRun(20, tick)
	t.Logf("tick: %.0f bytes; its derivations alone: %.0f", gotBytes, deriveBytes)
	if budget := float64(msgs * (rows*arity*16 + perDeriveBytes)); deriveBytes > budget {
		t.Fatalf("%d warm derivations of %d rows allocate %.0f bytes, over their budget of %.0f (16 B a value + %d each)",
			msgs, rows, deriveBytes, budget, perDeriveBytes)
	}
	if budget := deriveBytes + msgs*perMessageBytes; gotBytes > budget {
		t.Fatalf("warm fan-out tick allocates %.0f bytes, over its budget of %.0f (derivations %.0f + %d per message)",
			gotBytes, budget, deriveBytes, perMessageBytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
