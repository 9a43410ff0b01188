package consensus

import (
	"testing"

	"hydro/internal/simnet"
)

// Regression tests for two proposer-state races found in review: a
// timeout-requeued command double-driven after re-winning phase 1, and
// the same-ballot noop seal that could replace a value a quorum already
// accepted. Both are staged directly against node internals because the
// interleavings need exact message orderings the network fuzzers only
// rarely produce.

// TestPromiseFiltersRequeuedPendingAgainstQuorumSlots stages the phase-1
// race: a command this node was driving is re-queued into pending by the
// non-leader timeout path, then the node re-wins phase 1 and the promise
// quorum reports that same command accepted at a slot. The command must
// be re-driven ONLY at its quorum-reported slot — assigning the pending
// copy a second fresh slot under the same ballot would let one decide
// abandon the other copy's slot with no safe way to seal it.
func TestPromiseFiltersRequeuedPendingAgainstQuorumSlots(t *testing.T) {
	net := newNet(31)
	g := NewGroup(net, 3, 31)
	n := g.Nodes["p0"]

	e := entry{ID: "p0#1", Value: "v"}
	n.pending = []entry{e} // as left by the non-leader timeout re-queue
	n.ballot = Ballot(3)   // round 1, index 0
	n.leader = false
	n.phase1Votes = map[string]promiseMsg{}

	acc := map[int]acceptedVal{0: {Ballot: 1, Value: e}}
	n.handle(0, simnet.Message{From: "p1", To: "p0", Payload: promiseMsg{Ballot: n.ballot, Accepted: acc}})
	n.handle(0, simnet.Message{From: "p2", To: "p0", Payload: promiseMsg{Ballot: n.ballot, Accepted: acc}})

	if !n.leader {
		t.Fatal("quorum of promises did not elect the proposer")
	}
	if len(n.pending) != 0 {
		t.Fatalf("quorum-reported command left in pending: %v", n.pending)
	}
	slots := 0
	for s, cur := range n.inFlight {
		if cur.ID != e.ID {
			t.Fatalf("unexpected in-flight value at slot %d: %+v", s, cur)
		}
		slots++
	}
	if slots != 1 {
		t.Fatalf("command driven at %d slots, want exactly 1 (inFlight=%v)", slots, n.inFlight)
	}
	if cur, ok := n.inFlight[0]; !ok || cur.ID != e.ID {
		t.Fatalf("command not re-driven at its quorum-reported slot 0: %v", n.inFlight)
	}
}

// TestDecideElsewhereDoesNotReplaceInFlightValue stages the noop-seal
// hazard: the leader is driving command e at slot 0 when a decide for e
// arrives at a different slot (another leader re-proposed it there). The
// in-flight copy must keep driving slot 0 unchanged — replacing it with a
// noop at the SAME ballot would put two values under one (ballot, slot),
// and late accepted votes for e could then be credited to a noop no
// quorum accepted. The duplicate decide is harmless: the learner dedupes
// by proposal ID.
func TestDecideElsewhereDoesNotReplaceInFlightValue(t *testing.T) {
	net := newNet(32)
	g := NewGroup(net, 3, 32)
	n := g.Nodes["p0"]

	e := entry{ID: "p9#1", Value: "v"}
	n.ballot = Ballot(3)
	n.leader = true
	n.nextSlot = 1
	n.inFlight = map[int]entry{0: e}
	n.acceptVotes = map[int]map[string]bool{0: {}}

	n.handle(0, simnet.Message{From: "p1", To: "p0", Payload: decideMsg{Slot: 5, Value: e}})

	cur, ok := n.inFlight[0]
	if !ok {
		t.Fatal("in-flight slot 0 abandoned after duplicate decide")
	}
	if cur.ID != e.ID {
		t.Fatalf("in-flight value at slot 0 replaced: got %+v, want %+v", cur, e)
	}
	if _, isNoop := cur.Value.(noop); isNoop {
		t.Fatal("slot 0 noop-sealed at the same ballot")
	}

	// The slot still decides with the duplicate value once votes arrive.
	n.handle(0, simnet.Message{From: "p1", To: "p0", Payload: acceptedMsg{Ballot: n.ballot, Slot: 0, ID: e.ID}})
	n.handle(0, simnet.Message{From: "p2", To: "p0", Payload: acceptedMsg{Ballot: n.ballot, Slot: 0, ID: e.ID}})
	net.Drain(10000)
	if got, ok := n.log[0]; !ok || got.ID != e.ID {
		t.Fatalf("slot 0 did not decide with the duplicate value: %v", n.log)
	}
	// Dedup at read time: one copy across both slots.
	count := 0
	for _, v := range g.Log("p0") {
		if v == "v" {
			count++
		}
	}
	if count > 1 {
		t.Fatalf("duplicate command surfaced %d times in Log", count)
	}
}

// TestAcceptedVoteWithWrongIDNotCounted pins the vote-identity guard: an
// accepted vote naming a value the slot is no longer driving must not
// count toward the current value's quorum.
func TestAcceptedVoteWithWrongIDNotCounted(t *testing.T) {
	net := newNet(33)
	g := NewGroup(net, 3, 33)
	n := g.Nodes["p0"]

	e := entry{ID: "p0#1", Value: "v"}
	n.ballot = Ballot(3)
	n.leader = true
	n.nextSlot = 1
	n.inFlight = map[int]entry{0: e}
	n.acceptVotes = map[int]map[string]bool{0: {}}

	// Two stale votes for a different value: quorum-sized, must not decide.
	n.handle(0, simnet.Message{From: "p1", To: "p0", Payload: acceptedMsg{Ballot: n.ballot, Slot: 0, ID: "p0#stale"}})
	n.handle(0, simnet.Message{From: "p2", To: "p0", Payload: acceptedMsg{Ballot: n.ballot, Slot: 0, ID: "p0#stale"}})
	net.Drain(10000)
	if _, decided := n.log[0]; decided {
		t.Fatal("slot decided from votes for a different value")
	}
	if len(n.acceptVotes[0]) != 0 {
		t.Fatalf("stale votes credited: %v", n.acceptVotes[0])
	}

	// Matching votes still decide.
	n.handle(0, simnet.Message{From: "p1", To: "p0", Payload: acceptedMsg{Ballot: n.ballot, Slot: 0, ID: e.ID}})
	n.handle(0, simnet.Message{From: "p2", To: "p0", Payload: acceptedMsg{Ballot: n.ballot, Slot: 0, ID: e.ID}})
	net.Drain(10000)
	if got, ok := n.log[0]; !ok || got.ID != e.ID {
		t.Fatalf("matching votes did not decide the slot: %v", n.log)
	}
}

// TestPromiseCarriesOnlyUndecidedSlots pins the size of a promise: an
// acceptor answers a prepare with the accepted values at or above the
// proposer's contiguous decided prefix, not with its whole accepted map —
// which grows with the log (when every coordinator of a sharded deployment
// still ran phase 1 per tick, whole-map promises were 41 % of
// covid-sharded's allocation).
func TestPromiseCarriesOnlyUndecidedSlots(t *testing.T) {
	net := newNet(41)
	g := NewGroup(net, 3, 41)
	const decided = 50
	for i := 0; i < decided; i++ {
		g.Propose("p0", i)
	}
	net.Drain(100000)
	p0, p1 := g.Nodes["p0"], g.Nodes["p1"]
	if p0.applied != decided || len(p1.accepted) < decided {
		t.Fatalf("setup: p0 applied %d slots, p1 accepted %d; want %d", p0.applied, len(p1.accepted), decided)
	}
	// One more value p1 accepted that nobody has decided yet.
	open := entry{ID: "p2#1", Value: "open"}
	p1.accepted[decided] = acceptedVal{Ballot: p1.promised, Value: open}

	var got []promiseMsg
	net.SetHandler("p0", func(_ simnet.Time, msg simnet.Message) {
		if pm, ok := msg.Payload.(promiseMsg); ok {
			got = append(got, pm)
		}
	})
	prepare := func(decidedPrefix int) promiseMsg {
		got = nil
		p1.handle(0, simnet.Message{From: "p0", To: "p1", Payload: prepareMsg{Ballot: p1.promised + 3, Decided: decidedPrefix}})
		net.Drain(1000)
		if len(got) != 1 {
			t.Fatalf("prepare answered with %d promises, want 1", len(got))
		}
		return got[0]
	}
	pm := prepare(p0.applied)
	if av, ok := pm.Accepted[decided]; len(pm.Accepted) != 1 || !ok || av.Value.ID != open.ID {
		t.Fatalf("promise to a proposer holding %d decided slots carries %d entries (%v), want only the open slot %d",
			p0.applied, len(pm.Accepted), pm.Accepted, decided)
	}
	// A proposer that holds nothing decided still gets everything.
	if pm := prepare(0); len(pm.Accepted) != len(p1.accepted) {
		t.Fatalf("promise to an empty proposer carries %d of %d accepted slots", len(pm.Accepted), len(p1.accepted))
	}
}

// TestLearnReturnsSuffix pins catch-up to the asker's tail: a learn
// request carrying the asker's applied prefix k is answered with the
// decided slots at or above k only, and the zero request with every slot.
func TestLearnReturnsSuffix(t *testing.T) {
	net := newNet(43)
	g := NewGroup(net, 3, 43)
	const decided = 20
	for i := 0; i < decided; i++ {
		g.Propose("p0", i)
	}
	net.Drain(100000)
	p0 := g.Nodes["p0"]
	if len(p0.log) != decided {
		t.Fatalf("setup: p0 decided %d slots, want %d", len(p0.log), decided)
	}
	var got []learnRsp
	net.SetHandler("p1", func(_ simnet.Time, msg simnet.Message) {
		if rsp, ok := msg.Payload.(learnRsp); ok {
			got = append(got, rsp)
		}
	})
	learn := func(req learnReq) map[int]entry {
		got = nil
		p0.handle(0, simnet.Message{From: "p1", To: "p0", Payload: req})
		net.Drain(1000)
		if len(got) != 1 {
			t.Fatalf("learn request answered %d times, want 1", len(got))
		}
		return got[0].Slots
	}
	const k = 15
	slots := learn(learnReq{Applied: k})
	if len(slots) != decided-k {
		t.Fatalf("learnReq{Applied: %d} answered %d slots, want %d", k, len(slots), decided-k)
	}
	for s := range slots {
		if s < k {
			t.Fatalf("learnReq{Applied: %d} answered slot %d", k, s)
		}
	}
	if slots := learn(learnReq{}); len(slots) != decided {
		t.Fatalf("learnReq{} answered %d of %d slots", len(slots), decided)
	}
}
