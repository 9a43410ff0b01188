package transducer

import (
	"fmt"
	"math/rand"
	"testing"

	"hydro/internal/datalog"
)

// sinkLog is an observation sink that keeps a copy of every message it is
// handed, by mailbox (msgs is borrowed for the call).
type sinkLog map[string][]Message

func (l sinkLog) observe(box string, msgs []Message) { l[box] = append(l[box], msgs...) }

// rowsOf flattens rows of one arity into a derived set.
func rowsOf(rows ...datalog.Tuple) datalog.Rows {
	var vals []any
	for _, r := range rows {
		vals = append(vals, r...)
	}
	arity := 0
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	return datalog.NewRows(len(rows), arity, vals)
}

// TestObservationSendTiming pins which sends skip the delay: a send to a
// local mailbox no handler reads (an output, a reply) is visible right
// after the tick that committed it and draws no delay; a send to a handled
// mailbox or a "node/" address keeps its drawn delay.
func TestObservationSendTiming(t *testing.T) {
	const delay = 3
	cases := []struct {
		name string
		send func(tx *Tx)
		// visible reports whether the send has arrived; visibleAfter is the
		// tick after which it first must.
		visible      func(rt *Runtime, remote []Message) bool
		visibleAfter uint64
		draws        int
	}{
		{
			name:         "observation send",
			send:         func(tx *Tx) { tx.SendAll("out", rowsOf(datalog.Tuple{int64(1)}, datalog.Tuple{int64(2)})) },
			visible:      func(rt *Runtime, _ []Message) bool { return len(rt.Peek("out")) == 2 },
			visibleAfter: 1,
		},
		{
			name:         "reply",
			send:         func(tx *Tx) { tx.Reply("ok") },
			visible:      func(rt *Runtime, _ []Message) bool { return len(rt.Peek(ResponseMailbox("go"))) == 1 },
			visibleAfter: 1,
		},
		{
			name:         "handled send",
			send:         func(tx *Tx) { tx.Send("pong", datalog.Tuple{int64(1)}) },
			visible:      func(rt *Runtime, _ []Message) bool { return rt.Table("ponged").Len() == 1 },
			visibleAfter: 1 + delay,
			draws:        1,
		},
		{
			name:         "remote send",
			send:         func(tx *Tx) { tx.Send("n2/inbox", datalog.Tuple{int64(1)}) },
			visible:      func(_ *Runtime, remote []Message) bool { return len(remote) == 1 },
			visibleAfter: 1 + delay,
			draws:        1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := newTestRuntime()
			draws := 0
			rt.SetDelay(func(*rand.Rand) int { draws++; return delay })
			var remote []Message
			rt.Remote = func(_ string, msg Message) { remote = append(remote, msg) }
			rt.RegisterTable(TableSchema{Name: "ponged", Arity: 1})
			rt.RegisterHandler("go", func(tx *Tx, msg Message) { c.send(tx) })
			rt.RegisterHandler("pong", func(tx *Tx, msg Message) { tx.MergeTuple("ponged", msg.Payload) })
			rt.Inject("go", datalog.Tuple{})
			for tick := uint64(1); tick <= 1+delay; tick++ {
				rt.Tick()
				if got, want := c.visible(rt, remote), tick >= c.visibleAfter; got != want {
					t.Fatalf("after tick %d: visible = %v, want %v", tick, got, want)
				}
			}
			if draws != c.draws {
				t.Fatalf("%d delay draws, want %d", draws, c.draws)
			}
			if !rt.Idle() {
				t.Fatal("runtime not idle once the send arrived")
			}
		})
	}
}

// TestDroppedSendsNeverObserved: an aborted invocation's sends and a
// rejected tick's sends reach neither an observation sink nor the mailbox,
// while a committed invocation's sends in the same tick do.
func TestDroppedSendsNeverObserved(t *testing.T) {
	for _, withSink := range []bool{false, true} {
		t.Run(fmt.Sprintf("sink=%v", withSink), func(t *testing.T) {
			rt := newTestRuntime()
			rt.RegisterTable(TableSchema{Name: "edge", Arity: 2})
			if err := rt.RegisterQueriesIncremental(tcQueries(t)); err != nil {
				t.Fatal(err)
			}
			log := sinkLog{}
			if withSink {
				rt.SetObservationSink(log.observe)
			}
			observed := func() []Message {
				if withSink {
					return log["out"]
				}
				return rt.Peek("out")
			}
			rt.RegisterHandler("send", func(tx *Tx, msg Message) {
				tx.Send("out", msg.Payload)
				tx.Reply("ok")
				if msg.Payload[0] == "abort" {
					tx.Abort()
				}
			})
			rt.RegisterHandler("poison", func(tx *Tx, msg Message) {
				tx.MergeTuple("path", datalog.Tuple{int64(1), int64(1)})
			})

			rt.Inject("send", datalog.Tuple{"abort"})
			rt.Inject("send", datalog.Tuple{"commit"})
			rt.Tick()
			if got := observed(); len(got) != 1 || got[0].Payload[0] != "commit" {
				t.Fatalf("after the abort tick: observed %v, want only the committed send", got)
			}

			rt.Inject("send", datalog.Tuple{"rejected"})
			rt.Inject("poison", datalog.Tuple{})
			rt.Tick()
			if rt.Stats().Rejected != 1 {
				t.Fatalf("Rejected = %d, want 1", rt.Stats().Rejected)
			}
			if got := observed(); len(got) != 1 {
				t.Fatalf("after the rejected tick: observed %v, want only the first tick's send", got)
			}
			wantReplies := 1
			if withSink {
				wantReplies = 0 // the sink took the one committed reply
			}
			if got := len(rt.Peek(ResponseMailbox("send"))); got != wantReplies {
				t.Fatalf("%d replies in the mailbox, want %d", got, wantReplies)
			}
			if got := rt.Stats().Sent; got != 2 {
				t.Fatalf("Sent = %d, want the committed send and reply", got)
			}
		})
	}
}

// TestSendIDsFollowStagingOrder: committed sends take IDs row by row in
// staging order whichever path they take — observed now or delayed — and
// each row counts once in Stats.Sent, as when every row was its own
// Message.
func TestSendIDsFollowStagingOrder(t *testing.T) {
	rt := newTestRuntime()
	log := sinkLog{}
	rt.SetObservationSink(log.observe)
	var delayed []Message
	rt.RegisterHandler("pong", func(tx *Tx, msg Message) { delayed = append(delayed, msg) })
	rt.RegisterHandler("go", func(tx *Tx, msg Message) {
		tx.Send("out", datalog.Tuple{"a"})
		tx.SendAll("out", rowsOf(datalog.Tuple{"b"}, datalog.Tuple{"c"}))
		tx.Send("pong", datalog.Tuple{"d"})
		tx.Reply("e")
		tx.SendAll("pong", rowsOf(datalog.Tuple{"f"}, datalog.Tuple{"g"}))
		tx.SendAll("out", rowsOf()) // an empty derived set stages nothing
	})
	id := rt.Inject("go", datalog.Tuple{})
	rt.RunUntilIdle(10)

	got := map[string]uint64{}
	for _, m := range append(append(log["out"], log[ResponseMailbox("go")]...), delayed...) {
		if m.From != rt.Name {
			t.Fatalf("message %v: From = %q, want %q", m, m.From, rt.Name)
		}
		v := m.Payload[len(m.Payload)-1].(string)
		got[v] = m.ID
	}
	for i, v := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		if got[v] != id+1+uint64(i) {
			t.Fatalf("send %q has ID %d, want %d (IDs: %v)", v, got[v], id+1+uint64(i), got)
		}
	}
	if s := rt.Stats().Sent; s != 7 {
		t.Fatalf("Sent = %d, want 7", s)
	}
}

// TestObservationSinkRemoval: with a sink installed the mailbox stays
// empty; setting it back to nil restores mailbox delivery.
func TestObservationSinkRemoval(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterHandler("go", func(tx *Tx, msg Message) { tx.Send("out", msg.Payload) })
	log := sinkLog{}
	rt.SetObservationSink(log.observe)
	rt.Inject("go", datalog.Tuple{int64(1)})
	rt.Tick()
	if len(log["out"]) != 1 || len(rt.Peek("out")) != 0 {
		t.Fatalf("with a sink: sink got %v, mailbox %v", log, rt.Peek("out"))
	}
	rt.SetObservationSink(nil)
	rt.Inject("go", datalog.Tuple{int64(2)})
	rt.Tick()
	if got := rt.Drain("out"); len(log["out"]) != 1 || len(got) != 1 || got[0].Payload[0] != int64(2) {
		t.Fatalf("sink removed: sink got %v, mailbox %v", log, got)
	}
}

// TestDerivedPayloadsOutliveTheTick: a sink that keeps a tick's messages
// sees the same payloads after the next tick and after more derivations on
// the same database — the word buffer a derivation emits into is reused,
// the payload array its rows decode into never is.
func TestDerivedPayloadsOutliveTheTick(t *testing.T) {
	rt := newTestRuntime()
	rt.RegisterTable(TableSchema{Name: "reach", Arity: 2})
	for id := int64(0); id < 3; id++ {
		for p := int64(0); p < 4; p++ {
			rt.Table("reach").Insert(datalog.Tuple{id, fmt.Sprintf("p%d.%d", id, p)})
		}
	}
	pr, err := datalog.PrepareRule(datalog.Rule{
		Head: datalog.Atom{Pred: "__send", Args: []datalog.Term{datalog.V("id"), datalog.V("p")}},
		Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "reach", Args: []datalog.Term{datalog.V("id"), datalog.V("p")}}}},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	rt.RegisterHandler("trace", func(tx *Tx, msg Message) {
		rows, err := tx.DerivePrepared(pr, map[string]any{"id": msg.Payload[0]})
		if err != nil {
			t.Fatal(err)
		}
		tx.SendAll("out", rows)
	})
	log := sinkLog{}
	rt.SetObservationSink(log.observe)
	rt.Inject("trace", datalog.Tuple{int64(0)})
	rt.Tick()
	kept := log["out"]
	want := "[(0, p0.0) (0, p0.1) (0, p0.2) (0, p0.3)]"
	payloads := func() string {
		var ps []datalog.Tuple
		for _, m := range kept {
			ps = append(ps, m.Payload)
		}
		return fmt.Sprint(ps)
	}
	if got := payloads(); got != want {
		t.Fatalf("tick 1 sent %s, want %s", got, want)
	}
	rt.Inject("trace", datalog.Tuple{int64(1)})
	rt.Tick()
	if got := payloads(); got != want {
		t.Fatalf("after tick 2, tick 1's payloads read %s, want %s", got, want)
	}
	for id := int64(0); id < 3; id++ {
		if _, err := pr.Derive(rt.db, map[string]any{"id": 2 - id}); err != nil {
			t.Fatal(err)
		}
	}
	if got := payloads(); got != want {
		t.Fatalf("after more derivations, tick 1's payloads read %s, want %s", got, want)
	}
}
