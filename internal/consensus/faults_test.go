package consensus

import (
	"fmt"
	"testing"

	"hydro/internal/simnet"
)

// Fault-injection tests: Paxos safety and liveness under lossy and
// partitioned networks, beyond the clean-network tests in paxos_test.go.

func TestDecidesUnderMessageLoss(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 21, MinLatency: 10, MaxLatency: 100, DropRate: 0.15})
	g := NewGroup(net, 3, 21)
	for i := 0; i < 5; i++ {
		g.Propose("p0", fmt.Sprintf("v%d", i))
		net.Drain(40000) // timeouts retransmit through the loss
	}
	net.Drain(400000)
	log := agreeOnPrefix(t, g)
	seen := map[string]bool{}
	for _, v := range log {
		if seen[v.(string)] {
			t.Fatalf("duplicate decision for %v despite dedup: %v", v, log)
		}
		seen[v.(string)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("decided %d distinct values, want 5: %v", len(seen), log)
	}
}

func TestSafetyAcrossPartitionAndHeal(t *testing.T) {
	net := newNet(22)
	g := NewGroup(net, 5, 22)
	g.Propose("p0", "before")
	net.Drain(100000)

	// Partition p0,p1 away from p2,p3,p4: only the majority side can make
	// progress.
	for _, a := range []string{"p0", "p1"} {
		for _, b := range []string{"p2", "p3", "p4"} {
			net.Partition(a, b)
		}
	}
	g.Propose("p0", "minority-side") // cannot decide yet
	g.Propose("p2", "majority-side") // can decide
	net.Drain(30000)
	if len(g.Log("p2")) < 2 {
		t.Fatalf("majority side stalled: %v", g.Log("p2"))
	}
	minorityLog := g.Log("p0")
	for _, v := range minorityLog {
		if v == "minority-side" {
			t.Fatal("minority partition decided a value")
		}
	}

	// Heal: the minority's proposal must eventually decide, and all logs
	// must agree (no divergent history from the partition era).
	for _, a := range []string{"p0", "p1"} {
		for _, b := range []string{"p2", "p3", "p4"} {
			net.Heal(a, b)
		}
	}
	net.Drain(800000)
	log := agreeOnPrefix(t, g)
	found := map[string]bool{}
	for _, v := range log {
		found[v.(string)] = true
	}
	for _, want := range []string{"before", "minority-side", "majority-side"} {
		if !found[want] {
			t.Fatalf("value %q lost across partition/heal: %v", want, log)
		}
	}
}

func TestRepeatedLeaderCrashes(t *testing.T) {
	net := newNet(23)
	g := NewGroup(net, 5, 23)
	// Crash each would-be leader in turn; with 5 nodes we can lose 2.
	g.Propose("p0", "a")
	net.Drain(100000)
	net.SetDown("p0", true)
	g.Propose("p1", "b")
	net.Drain(300000)
	net.SetDown("p1", true)
	g.Propose("p2", "c")
	net.Drain(600000)
	log := agreeOnPrefix(t, g)
	found := map[string]bool{}
	for _, v := range log {
		found[v.(string)] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !found[want] {
			t.Fatalf("value %q lost across leader crashes: %v", want, log)
		}
	}
}

// TestRecoveredProposerResumesInFlightValue: a node that goes down before
// its value reaches an accept quorum loses its retry timer (simnet
// discards the timers of a down node). Once it is back and asks a peer
// for the decided log, it must drive the value again on its own, without
// any new proposal to wake it.
func TestRecoveredProposerResumesInFlightValue(t *testing.T) {
	net := newNet(24)
	g := NewGroup(net, 3, 24)
	g.Propose("p0", "first")
	net.Drain(100000)
	g.Propose("p0", "second") // accepts leave p0 …
	net.SetDown("p0", true)   // … and are dropped with its timer
	net.Drain(100000)
	for _, name := range g.Names() {
		if n := len(g.Log(name)); n != 1 {
			t.Fatalf("%s decided %d values while the proposer was down, want 1", name, n)
		}
	}
	net.SetDown("p0", false)
	g.Nodes["p0"].RequestLearn("p1")
	net.Drain(100000)
	log := agreeOnPrefix(t, g)
	if len(log) != 2 || log[1] != "second" {
		t.Fatalf("log = %v, want [first second]", log)
	}
	for _, name := range g.Names() {
		if n := len(g.Log(name)); n != 2 {
			t.Fatalf("%s decided %d values, want 2: %v", name, n, g.Log(name))
		}
	}
}
