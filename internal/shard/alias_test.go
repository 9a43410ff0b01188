package shard_test

import (
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/shard"
)

// Aliasing regressions at the deployment API: accessors return copies,
// and Submit snapshots the caller's ops and their tuples.

func TestReplicasAndCoordinatorsReturnCopies(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, tcEDB, 3, 11)
	reps := dep.Replicas()
	coords := dep.Coordinators()
	origRep, origCoord := reps[0], coords[0]
	reps[0] = "corrupted"
	coords[0] = "corrupted"
	if dep.Replicas()[0] != origRep {
		t.Fatal("Replicas aliases the live routing table")
	}
	if dep.Coordinators()[0] != origCoord {
		t.Fatal("Coordinators aliases the live routing table")
	}
	// The deployment must still route: a tick settles and the leader
	// lookup still resolves against intact names.
	if dep.Leader() != origCoord {
		t.Fatalf("leader lookup broken: %s", dep.Leader())
	}
	if err := dep.Submit([]datalog.DeltaOp{ins("edge", "a", "b")}); err != nil {
		t.Fatal(err)
	}
	if !dep.Settle(settleBudget) {
		t.Fatal("tick did not settle after mutating accessor results")
	}
}

// TestSubmitCopiesOps mutates the caller's ops slice after Submit but
// before the tick is driven: the committed result must reflect the
// original ops. (Admission copies the slice onto the replicated queue —
// an aliased buffer would let the caller retroactively rewrite a decree.)
func TestSubmitCopiesOps(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, tcEDB, 2, 12)
	ref := newOracle(t, prog, tcEDB)

	ops := []datalog.DeltaOp{ins("edge", "a", "b"), ins("edge", "b", "c")}
	ref.tick(t, ops)
	if err := dep.Submit(ops); err != nil {
		t.Fatal(err)
	}
	ops[0] = del("edge", "zz", "zz")
	ops[1] = ins("edge", "x", "y")
	if !dep.Settle(settleBudget) {
		t.Fatal("tick did not settle")
	}
	if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
		t.Fatalf("mutating the ops buffer changed the committed tick:\n%s\nwant:\n%s", got, want)
	}
}

// TestSubmitCopiesTuples rewrites a value inside one of the caller's
// tuples after Submit: the copy must reach the tuples, not only the ops
// slice, because a tick can wait in a coordinator's inbox across an
// election before it is proposed.
func TestSubmitCopiesTuples(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, tcEDB, 2, 14)
	ref := newOracle(t, prog, tcEDB)

	ops := []datalog.DeltaOp{ins("edge", "a", "b"), ins("edge", "b", "c")}
	ref.tick(t, ops)
	if err := dep.Submit(ops); err != nil {
		t.Fatal(err)
	}
	ops[0].T[1] = "zz"
	ops[1].T[0] = "yy"
	if !dep.Settle(settleBudget) {
		t.Fatal("tick did not settle")
	}
	if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
		t.Fatalf("mutating a submitted tuple changed the committed tick:\n%s\nwant:\n%s", got, want)
	}
}

func TestControlStatesIsSnapshot(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, tcEDB, 2, 13)
	if err := dep.Submit([]datalog.DeltaOp{ins("edge", "a", "b")}); err != nil {
		t.Fatal(err)
	}
	if !dep.Settle(settleBudget) {
		t.Fatal("tick did not settle")
	}
	states := dep.ControlStates()
	states[0] = shard.ControlState{Epoch: 999}
	if dep.ControlStates()[0].Epoch != 1 {
		t.Fatal("ControlStates aliases live coordinator state")
	}
}
