package shard_test

import (
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/shard"
)

// TestShardedChurnWithinTickShipsNothing pins the net-change bookkeeping
// replicas keep per tick: a tuple inserted and retracted inside one tick,
// and a present tuple retracted and re-inserted, cancel — no component
// sees an input change, so the coordinator drives no exchange round and no
// recompute for that tick, and the fixpoint is untouched. failoverRules
// puts both a sharded recursive component (path) and a mirrored
// non-monotone one (dead) downstream of the churned relations.
func TestShardedChurnWithinTickShipsNothing(t *testing.T) {
	prog, err := datalog.NewProgram(failoverRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, tcEDB, 3, 7)
	ref := newOracle(t, prog, tcEDB)
	evaluated := map[uint64]bool{} // ticks that reached an exchange round (recompute included)
	dep.SetStageHook(func(_ string, tick, _ uint64, stg int) {
		if stg == shard.StageRound {
			evaluated[tick] = true
		}
	})

	ticks := [][]datalog.DeltaOp{
		{ins("edge", "a", "b"), ins("edge", "b", "c"), ins("node", "a"), ins("node", "c")},
		{ // every op is undone within the tick, in both directions, on both kinds of relation
			ins("edge", "c", "d"), del("edge", "c", "d"),
			del("edge", "a", "b"), ins("edge", "a", "b"),
			ins("node", "d"), del("node", "d"),
			del("node", "a"), ins("node", "a"),
		},
		{del("edge", "b", "c")}, // the deployment still evaluates real changes afterwards
	}
	for i, ops := range ticks {
		if err := dep.Submit(ops); err != nil {
			t.Fatalf("tick %d: Submit: %v", i, err)
		}
		if !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not settle", i)
		}
		ref.tick(t, ops)
		if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
			t.Fatalf("tick %d diverged:\nsharded:\n%s\nsingle-node:\n%s", i, got, want)
		}
	}
	// Coordinator ticks are numbered from 1.
	if !evaluated[1] || !evaluated[3] {
		t.Fatalf("ticks with real changes should drive evaluation stages: %v", evaluated)
	}
	if evaluated[2] {
		t.Fatal("a tick whose ops cancel out drove an exchange round or a recompute")
	}
}
