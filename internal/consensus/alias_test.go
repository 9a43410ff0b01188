package consensus

import (
	"testing"
)

// Regression tests for live-slice/map aliasing in Group accessors:
// mutating anything an accessor returns must never reach node state.
// (The bug class: an accessor returning an internal slice lets a chaos
// test's shuffle corrupt the live quorum.)

func decideThree(t *testing.T) *Group {
	t.Helper()
	net := newNet(99)
	g := NewGroup(net, 3, 99)
	g.Propose("p0", "a")
	g.Propose("p1", "b")
	g.Propose("p2", "c")
	net.Drain(50000)
	if got := len(agreeOnPrefix(t, g)); got != 3 {
		t.Fatalf("decided %d of 3", got)
	}
	return g
}

func TestNamesReturnsCopy(t *testing.T) {
	g := decideThree(t)
	names := g.Names()
	names[0] = "corrupted"
	if got := g.Names()[0]; got != "p0" {
		t.Fatalf("Names aliases internal state: %q", got)
	}
	// The nodes' shared peer slice must also be unreachable.
	if g.Nodes["p0"].peers[0] != "p0" {
		t.Fatal("peer slice corrupted through Names")
	}
}

func TestLogReturnsCopy(t *testing.T) {
	g := decideThree(t)
	log := g.Log("p0")
	for i := range log {
		log[i] = "corrupted"
	}
	for i, v := range g.Log("p0") {
		if v == "corrupted" {
			t.Fatalf("Log aliases internal state at slot %d", i)
		}
	}
}

// TestPromiseSnapshotNotAliased pins that an acceptor's promise carries a
// snapshot of its accepted map: a promise in flight must not see values
// the acceptor accepts after sending it.
func TestPromiseSnapshotNotAliased(t *testing.T) {
	net := newNet(5)
	g := NewGroup(net, 3, 5)
	n := g.Nodes["p1"]
	n.promised = 1
	n.accepted[0] = acceptedVal{Ballot: 1, Value: entry{ID: "x#1", Value: "x"}}
	snap := map[int]acceptedVal{}
	for s, av := range n.accepted {
		snap[s] = av
	}
	// Mutating the acceptor after snapshotting must not change the snapshot
	// (this is exactly what the prepare handler builds and sends).
	n.accepted[1] = acceptedVal{Ballot: 2, Value: entry{ID: "y#1", Value: "y"}}
	if len(snap) != 1 {
		t.Fatalf("promise snapshot aliases acceptor state: %v", snap)
	}
}
