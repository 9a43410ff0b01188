package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/hydrolysis"
	"hydro/internal/transducer"
)

func fixedDelay(r *rand.Rand) int { return 1 }

func tcProgram(t testing.TB) *datalog.Program {
	t.Helper()
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

// newGraphRuntime builds the serving fixture: an incremental transitive-
// closure graph with handlers for fact ingestion (add_edge), reads
// (count_paths), cascades (fanout → alert), a non-monotone counter (incr),
// and a poison pill that writes a derived head (rejected tick).
func newGraphRuntime(t testing.TB, seed int64) *transducer.Runtime {
	t.Helper()
	rt := transducer.New("srv", seed)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(transducer.TableSchema{Name: "edge", Arity: 2})
	rt.RegisterVar("count", int64(0))
	if err := rt.RegisterQueriesIncremental(tcProgram(t)); err != nil {
		t.Fatal(err)
	}
	rt.RegisterHandler("add_edge", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("edge", msg.Payload)
		tx.Reply("ok")
	})
	rt.RegisterHandler("count_paths", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Reply(int64(len(tx.QueryWhere("path", nil, nil))))
	})
	rt.RegisterHandler("incr", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Assign("count", tx.ReadVar("count").(int64)+1)
	})
	rt.RegisterHandler("fanout", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Send("alert", msg.Payload)
	})
	rt.RegisterHandler("poison", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("path", msg.Payload)
	})
	return rt
}

// holdLoop parks the serve loop inside a Sync callback so a test can stage
// submissions deterministically; the returned release function unparks it.
func holdLoop(t *testing.T, s *Server) (release func()) {
	t.Helper()
	entered := make(chan struct{})
	hold := make(chan struct{})
	go s.Sync(func(*transducer.Runtime) {
		close(entered)
		<-hold
	})
	<-entered
	return func() { close(hold) }
}

func mustSubmit(t *testing.T, s *Server, mailbox string, payload datalog.Tuple) *Pending {
	t.Helper()
	p, err := s.Submit(Request{Mailbox: mailbox, Payload: payload})
	if err != nil {
		t.Fatalf("submit %s: %v", mailbox, err)
	}
	return p
}

func TestServeBatchesBySize(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	s := New(rt, Config{MaxBatch: 4, MaxWait: time.Second, QueueDepth: 16})
	defer s.Close()
	release := holdLoop(t, s)
	var ps []*Pending
	for i := 0; i < 8; i++ {
		ps = append(ps, mustSubmit(t, s, "add_edge", datalog.Tuple{int64(i), int64(i + 1)}))
	}
	release()
	for _, p := range ps {
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Timing.BatchSize != 4 {
			t.Fatalf("BatchSize = %d, want 4", r.Timing.BatchSize)
		}
	}
	m := s.Metrics()
	if m.Batches != 2 || m.SizeFlushes != 2 {
		t.Fatalf("batches=%d sizeFlushes=%d, want 2/2", m.Batches, m.SizeFlushes)
	}
	if got := len(rt0Tuples(t, s, "edge")); got != 8 {
		t.Fatalf("edge has %d rows, want 8", got)
	}
}

// rt0Tuples reads a table through Sync (the server still owns the runtime).
func rt0Tuples(t *testing.T, s *Server, table string) []datalog.Tuple {
	t.Helper()
	var out []datalog.Tuple
	if err := s.Sync(func(rt *transducer.Runtime) { out = rt.Table(table).Tuples() }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServeDeadlineFlush(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	s := New(rt, Config{MaxBatch: 64, MaxWait: 2 * time.Millisecond})
	defer s.Close()
	release := holdLoop(t, s)
	ps := []*Pending{
		mustSubmit(t, s, "add_edge", datalog.Tuple{int64(1), int64(2)}),
		mustSubmit(t, s, "add_edge", datalog.Tuple{int64(2), int64(3)}),
		mustSubmit(t, s, "add_edge", datalog.Tuple{int64(3), int64(4)}),
	}
	release()
	for _, p := range ps {
		if r := p.Wait(); r.Err != nil || r.Timing.BatchSize != 3 {
			t.Fatalf("resp = %+v, want batch of 3", r)
		}
	}
	if m := s.Metrics(); m.DeadlineFlushes != 1 || m.SizeFlushes != 0 {
		t.Fatalf("deadline=%d size=%d, want 1/0", m.DeadlineFlushes, m.SizeFlushes)
	}
}

func TestServeShedBackpressure(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	s := New(rt, Config{MaxBatch: 2, QueueDepth: 2, Policy: Shed, MaxWait: time.Millisecond})
	defer s.Close()
	release := holdLoop(t, s)
	p1 := mustSubmit(t, s, "add_edge", datalog.Tuple{int64(1), int64(2)})
	p2 := mustSubmit(t, s, "add_edge", datalog.Tuple{int64(2), int64(3)})
	if got := s.Metrics().QueueDepth; got != 2 {
		t.Fatalf("queue gauge = %d, want 2", got)
	}
	if _, err := s.Submit(Request{Mailbox: "add_edge", Payload: datalog.Tuple{int64(3), int64(4)}}); !errors.Is(err, ErrOverload) {
		t.Fatalf("full queue must shed, got %v", err)
	}
	release()
	p1.Wait()
	p2.Wait()
	m := s.Metrics()
	// The gauge counts admission attempts holding or seeking a slot (the
	// increment lands before the channel send so it can never go
	// transiently negative), so the refused third submit shows in the
	// high-water mark.
	if m.Shed != 1 || m.Submitted != 2 || m.QueueHighWater != 3 {
		t.Fatalf("shed=%d submitted=%d highwater=%d, want 1/2/3", m.Shed, m.Submitted, m.QueueHighWater)
	}
	if got := s.Metrics().QueueDepth; got != 0 {
		t.Fatalf("drained queue gauge = %d, want 0", got)
	}
}

func TestServeBlockBackpressure(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	s := New(rt, Config{MaxBatch: 1, QueueDepth: 1, Policy: Block})
	defer s.Close()
	release := holdLoop(t, s)
	p1 := mustSubmit(t, s, "add_edge", datalog.Tuple{int64(1), int64(2)})
	blocked := make(chan *Pending)
	go func() {
		p, err := s.Submit(Request{Mailbox: "add_edge", Payload: datalog.Tuple{int64(2), int64(3)}})
		if err != nil {
			t.Error(err)
		}
		blocked <- p
	}()
	select {
	case <-blocked:
		t.Fatal("submit into a full queue must block under the Block policy")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	p2 := <-blocked
	if r := p1.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := p2.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
}

// TestServeRejectedBatchRetryIsolation: a poison request must cost only its
// own tick — its batchmates commit exactly as they would have serially.
func TestServeRejectedBatchRetryIsolation(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	s := New(rt, Config{MaxBatch: 8, MaxWait: 20 * time.Millisecond, QueueDepth: 16})
	defer s.Close()
	release := holdLoop(t, s)
	pGood1 := mustSubmit(t, s, "add_edge", datalog.Tuple{int64(1), int64(2)})
	pPoison := mustSubmit(t, s, "poison", datalog.Tuple{int64(9), int64(9)})
	pGood2 := mustSubmit(t, s, "add_edge", datalog.Tuple{int64(2), int64(3)})
	release()
	if r := pGood1.Wait(); r.Err != nil {
		t.Fatalf("innocent batchmate failed: %v", r.Err)
	}
	if r := pGood2.Wait(); r.Err != nil {
		t.Fatalf("innocent batchmate failed: %v", r.Err)
	}
	r := pPoison.Wait()
	if r.Err == nil || !r.Timing.Rejected {
		t.Fatalf("poison request must fail, got %+v", r)
	}
	if got := len(rt0Tuples(t, s, "edge")); got != 2 {
		t.Fatalf("edge has %d rows, want 2", got)
	}
	// path closure over 1→2→3 has 3 tuples; the poison write never landed.
	if got := len(rt0Tuples(t, s, "path")); got != 3 {
		t.Fatalf("path has %d rows, want 3", got)
	}
	m := s.Metrics()
	if m.RejectedBatches != 1 || m.Retried != 3 || m.Failed != 1 {
		t.Fatalf("rejected=%d retried=%d failed=%d, want 1/3/1", m.RejectedBatches, m.Retried, m.Failed)
	}
}

// newSumRuntime is the graph fixture plus attr and a sum over what each
// node reaches: total(x, sum v) :- path(x, y), attr(y, v). A put of a
// non-numeric value fails the sum's component after path's committed.
func newSumRuntime(t *testing.T) *transducer.Runtime {
	t.Helper()
	V := datalog.V
	prog, err := datalog.NewProgram(append(tcProgram(t).Rules, datalog.Rule{
		Head: datalog.Atom{Pred: "total", Args: []datalog.Term{V("x"), V("v")}},
		Body: []datalog.Literal{
			{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{V("x"), V("y")}}},
			{Atom: datalog.Atom{Pred: "attr", Args: []datalog.Term{V("y"), V("v")}}},
		},
		Agg:    datalog.AggSum,
		AggVar: "v",
	})...)
	if err != nil {
		t.Fatal(err)
	}
	rt := transducer.New("srv", 1)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(transducer.TableSchema{Name: "edge", Arity: 2})
	rt.RegisterTable(transducer.TableSchema{Name: "attr", Arity: 2})
	if err := rt.RegisterQueriesIncremental(prog); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"edge", "attr"} {
		rt.RegisterHandler("put_"+table, func(tx *transducer.Tx, msg transducer.Message) {
			tx.MergeTuple(table, msg.Payload)
			tx.Reply("ok")
		})
	}
	return rt
}

// TestServePoisonEvaluationIsolated: a request whose write fails the
// evaluator midway through its batch's maintenance — a sum over a
// non-numeric value — resolves alone with Err, and its batchmates commit
// exactly as they do served one per tick.
func TestServePoisonEvaluationIsolated(t *testing.T) {
	reqs := []Request{
		{Mailbox: "put_edge", Payload: datalog.Tuple{int64(1), int64(2)}},
		{Mailbox: "put_attr", Payload: datalog.Tuple{int64(2), int64(5)}},
		{Mailbox: "put_attr", Payload: datalog.Tuple{int64(2), "oops"}},
		{Mailbox: "put_edge", Payload: datalog.Tuple{int64(2), int64(3)}},
		{Mailbox: "put_attr", Payload: datalog.Tuple{int64(3), int64(4)}},
	}
	const poison = 2
	dump := func(s *Server) string {
		var out string
		if err := s.Sync(func(rt *transducer.Runtime) { out = canonicalState(rt, nil) }); err != nil {
			t.Fatal(err)
		}
		return out
	}

	serial := New(newSumRuntime(t), Config{MaxBatch: 1, QueueDepth: 16})
	defer serial.Close()
	for i, req := range reqs {
		p, err := serial.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if r := p.Wait(); (r.Err != nil) != (i == poison) {
			t.Fatalf("serial request %d: Err = %v", i, r.Err)
		}
	}

	batched := New(newSumRuntime(t), Config{MaxBatch: 8, MaxWait: 20 * time.Millisecond, QueueDepth: 16})
	defer batched.Close()
	release := holdLoop(t, batched)
	ps := make([]*Pending, len(reqs))
	for i, req := range reqs {
		ps[i] = mustSubmit(t, batched, req.Mailbox, req.Payload)
	}
	release()
	for i, p := range ps {
		r := p.Wait()
		if i == poison {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "non-numeric") || !r.Timing.Rejected {
				t.Fatalf("poison request must fail alone with the sum's error, got %+v", r)
			}
		} else if r.Err != nil {
			t.Fatalf("innocent batchmate %d failed: %v", i, r.Err)
		}
	}
	if got, want := dump(batched), dump(serial); got != want {
		t.Fatalf("batched state:\n%s\nwant the serial one:\n%s", got, want)
	}
	if m := batched.Metrics(); m.RejectedBatches != 1 || m.Retried != uint64(len(reqs)) || m.Failed != 1 {
		t.Fatalf("rejected=%d retried=%d failed=%d, want 1/%d/1", m.RejectedBatches, m.Retried, m.Failed, len(reqs))
	}
}

// TestServeSerialMailboxes: non-monotone handlers lose updates when
// batched (every invocation reads the same snapshot); registering their
// mailbox as serial on the runtime restores the serial schedule.
func TestServeSerialMailboxes(t *testing.T) {
	readCount := func(s *Server) int64 {
		var v int64
		if err := s.Sync(func(rt *transducer.Runtime) { v = rt.Var("count").(int64) }); err != nil {
			t.Fatal(err)
		}
		return v
	}

	// Batched: both incr invocations read count=0 from the shared
	// snapshot — the lost update batching would silently introduce.
	sB := New(newGraphRuntime(t, 1), Config{MaxBatch: 8, MaxWait: 20 * time.Millisecond, QueueDepth: 16})
	releaseB := holdLoop(t, sB)
	b1 := mustSubmit(t, sB, "incr", datalog.Tuple{})
	b2 := mustSubmit(t, sB, "incr", datalog.Tuple{})
	releaseB()
	b1.Wait()
	b2.Wait()
	if got := readCount(sB); got != 1 {
		t.Fatalf("batched non-monotone count = %d, want the lost-update 1", got)
	}
	sB.Close()

	// Serial: the runtime marks the mailbox order-sensitive, so each
	// request ticks alone and the counter is exact.
	rtS := newGraphRuntime(t, 1)
	rtS.RegisterSerial("incr")
	sS := New(rtS, Config{MaxBatch: 8, MaxWait: 20 * time.Millisecond, QueueDepth: 16})
	releaseS := holdLoop(t, sS)
	s1 := mustSubmit(t, sS, "incr", datalog.Tuple{})
	s2 := mustSubmit(t, sS, "incr", datalog.Tuple{})
	releaseS()
	s1.Wait()
	s2.Wait()
	if got := readCount(sS); got != 2 {
		t.Fatalf("serial count = %d, want 2", got)
	}
	if m := sS.Metrics(); m.SerialFlushes != 2 {
		t.Fatalf("serialFlushes = %d, want 2", m.SerialFlushes)
	}
	sS.Close()
}

func TestServeReplyCorrelation(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	s := New(rt, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	defer s.Close()
	for _, e := range [][2]int64{{1, 2}, {2, 3}} {
		if r := mustSubmit(t, s, "add_edge", datalog.Tuple{e[0], e[1]}).Wait(); r.Err != nil {
			t.Fatal(r.Err)
		} else if len(r.Reply) != 1 || r.Reply[0] != "ok" {
			t.Fatalf("add_edge reply = %v", r.Reply)
		}
	}
	r := mustSubmit(t, s, "count_paths", datalog.Tuple{}).Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Reply) != 1 || r.Reply[0] != int64(3) {
		t.Fatalf("count_paths reply = %v, want [3]", r.Reply)
	}
}

func TestServeDrainMailboxes(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	var alerts []datalog.Tuple
	s := New(rt, Config{
		MaxBatch: 4, MaxWait: time.Millisecond,
		DrainMailboxes: []string{"alert"},
		OnDrain: func(mailbox string, msgs []transducer.Message) {
			for _, m := range msgs {
				alerts = append(alerts, m.Payload)
			}
		},
	})
	defer s.Close()
	if r := mustSubmit(t, s, "fanout", datalog.Tuple{int64(7)}).Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	// OnDrain runs on the serve loop; synchronize before reading.
	var n int
	s.Sync(func(*transducer.Runtime) { n = len(alerts) })
	if n != 1 || alerts[0][0] != int64(7) {
		t.Fatalf("alerts = %v, want [[7]]", alerts)
	}
}

// TestServeUnlistedObservationReachesOnDrain: every committed observation
// that is not a reply goes to OnDrain — no mailbox list names it — and
// none stays behind in the runtime's mailboxes, where nothing drains it
// while the server runs.
func TestServeUnlistedObservationReachesOnDrain(t *testing.T) {
	var boxes []string
	s := New(newGraphRuntime(t, 1), Config{
		MaxBatch: 4, MaxWait: time.Millisecond,
		OnDrain: func(mailbox string, msgs []transducer.Message) {
			for range msgs {
				boxes = append(boxes, mailbox)
			}
		},
	})
	defer s.Close()
	if r := mustSubmit(t, s, "fanout", datalog.Tuple{int64(7)}).Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	// OnDrain runs on the serve loop; synchronize before reading.
	var got []string
	var left int
	s.Sync(func(rt *transducer.Runtime) { got, left = boxes, len(rt.Peek("alert")) })
	if len(got) != 1 || got[0] != "alert" || left != 0 {
		t.Fatalf("OnDrain saw %v with %d alerts left in the runtime, want [alert] and 0", got, left)
	}
}

// TestServeReplyOnlyBatchOneTick: replies and observation outputs commit
// in the tick that sent them, so a batch whose handlers only reply, read
// and emit outputs costs exactly one tick — no settle tick delivers them.
func TestServeReplyOnlyBatchOneTick(t *testing.T) {
	s := New(newGraphRuntime(t, 1), Config{
		MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 16,
		DrainMailboxes: []string{"alert"},
	})
	defer s.Close()
	release := holdLoop(t, s)
	var ps []*Pending
	for i := int64(0); i < 3; i++ {
		ps = append(ps,
			mustSubmit(t, s, "add_edge", datalog.Tuple{i, i + 1}),
			mustSubmit(t, s, "count_paths", datalog.Tuple{}),
			mustSubmit(t, s, "fanout", datalog.Tuple{i}))
	}
	release()
	for i, p := range ps {
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if i%3 == 0 && (len(r.Reply) != 1 || r.Reply[0] != "ok") {
			t.Fatalf("add_edge reply = %v, want [ok]", r.Reply)
		}
	}
	if m := s.Metrics(); m.Ticks != m.Batches || m.Batches == 0 {
		t.Fatalf("ticks=%d batches=%d: a reply-only batch must cost exactly one tick", m.Ticks, m.Batches)
	}
}

// TestServeOnDrainPayloadsOutliveCall: OnDrain's slice is borrowed for the
// call, but the payload tuples are the receiver's to keep — they hold their
// values through every later batch.
func TestServeOnDrainPayloadsOutliveCall(t *testing.T) {
	var kept []datalog.Tuple
	s := New(newGraphRuntime(t, 1), Config{
		MaxBatch: 2, MaxWait: time.Millisecond, QueueDepth: 16,
		DrainMailboxes: []string{"alert"},
		OnDrain: func(_ string, msgs []transducer.Message) {
			for _, m := range msgs {
				kept = append(kept, m.Payload)
			}
		},
	})
	defer s.Close()
	const n = 10
	for i := int64(0); i < n; i++ {
		if r := mustSubmit(t, s, "fanout", datalog.Tuple{i}).Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	var got []datalog.Tuple
	s.Sync(func(*transducer.Runtime) { got = kept })
	if len(got) != n {
		t.Fatalf("kept %d alerts, want %d", len(got), n)
	}
	for i, p := range got {
		if len(p) != 1 || p[0] != int64(i) {
			t.Fatalf("alert %d = %v after later batches, want [%d]", i, p, i)
		}
	}
}

func TestServeNoHandlerAndClosed(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	s := New(rt, Config{})
	if _, err := s.Submit(Request{Mailbox: "nope", Payload: datalog.Tuple{}}); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("unroutable mailbox must fail fast, got %v", err)
	}
	s.Close()
	if _, err := s.Submit(Request{Mailbox: "add_edge", Payload: datalog.Tuple{int64(1), int64(2)}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server must refuse, got %v", err)
	}
	s.Close() // idempotent
}

// TestServeCloseDrains: every request admitted before Close is served.
func TestServeCloseDrains(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	s := New(rt, Config{MaxBatch: 4, MaxWait: time.Hour, QueueDepth: 64})
	release := holdLoop(t, s)
	var ps []*Pending
	for i := 0; i < 10; i++ {
		ps = append(ps, mustSubmit(t, s, "add_edge", datalog.Tuple{int64(i), int64(i + 1)}))
	}
	release()
	s.Close()
	for _, p := range ps {
		if r := p.Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := len(s.Runtime().Table("edge").Tuples()); got != 10 {
		t.Fatalf("edge has %d rows after close, want 10", got)
	}
}

// TestServeTimingPhasesSum: every response's timing has non-negative
// phases, a positive eval, and a total that is exactly their sum.
func TestServeTimingPhasesSum(t *testing.T) {
	s := New(newGraphRuntime(t, 1), Config{MaxBatch: 4, MaxWait: time.Millisecond})
	defer s.Close()
	for i := 0; i < 6; i++ {
		r := mustSubmit(t, s, "add_edge", datalog.Tuple{int64(i), int64(i + 1)}).Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		tt := r.Timing
		if tt.QueueNs < 0 || tt.FlushNs < 0 || tt.EvalNs <= 0 || tt.RespondNs < 0 {
			t.Fatalf("implausible phases: %+v", tt)
		}
		if tt.TotalNs != tt.QueueNs+tt.FlushNs+tt.EvalNs+tt.RespondNs {
			t.Fatalf("total != sum of phases: %+v", tt)
		}
	}
}

// TestServeCascadeReplyNotDrained: a reply from a handler a cascade
// reached (a sends to b, b replies) is marked a reply by the runtime, so
// it never reaches OnDrain, though no request was addressed to b; the
// cascade's plain output does.
func TestServeCascadeReplyNotDrained(t *testing.T) {
	c, err := hydrolysis.Compile(`
on a(x: int) {
    send b(x)
    send out(x)
}
on b(x: int) {
    reply x
}
`, hydrolysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	var drained []string
	s := New(rt, Config{OnDrain: func(box string, msgs []transducer.Message) {
		for _, m := range msgs {
			drained = append(drained, fmt.Sprint(box, m.Payload))
		}
	}})
	if r := mustSubmit(t, s, "a", datalog.Tuple{int64(7)}).Wait(); r.Err != nil || r.Reply != nil {
		t.Fatalf("a: reply %v, err %v; want neither", r.Reply, r.Err)
	}
	s.Close()
	if !s.Runtime().Idle() {
		t.Fatal("the cascade did not settle")
	}
	if got := fmt.Sprint(drained); got != "[out(7)]" {
		t.Fatalf("OnDrain saw %s, want only [out(7)]", got)
	}
}
