package shard_test

import (
	"strings"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/shard"
)

// sumProgram is total(x, sum v) :- attr(x, v): a tick inserting a
// non-numeric v fails the component's evaluation.
func sumProgram(t *testing.T) *datalog.Program {
	V := datalog.V
	prog, err := datalog.NewProgram(datalog.Rule{
		Head:   datalog.Atom{Pred: "total", Args: []datalog.Term{V("x"), V("v")}},
		Body:   []datalog.Literal{{Atom: datalog.Atom{Pred: "attr", Args: []datalog.Term{V("x"), V("v")}}}},
		Agg:    datalog.AggSum,
		AggVar: "v",
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

var (
	sumGood = []datalog.DeltaOp{ins("attr", int64(1), int64(5)), ins("attr", int64(2), int64(7))}
	sumBad  = []datalog.DeltaOp{ins("attr", int64(1), "oops")}
)

// failSumTick commits sumGood as tick 1, submits sumBad as tick 2 and then
// sumGood again, and runs the simulation until it is idle. It returns
// tick 1's dump and the attempts started by the time tick 2 failed.
func failSumTick(t *testing.T, cl *cluster.Cluster, dep *shard.Deployment) (committed string, attempts uint64) {
	t.Helper()
	if err := dep.Submit(sumGood); err != nil || !dep.Settle(settleBudget) {
		t.Fatalf("tick 1 did not commit: %v", err)
	}
	committed = dep.DumpString()
	if err := dep.Submit(sumBad); err != nil || dep.Settle(settleBudget) {
		t.Fatalf("the failing tick committed (Submit: %v)", err)
	}
	if err := dep.Submit(sumGood); err != nil { // queued behind the failed tick: never driven
		t.Fatal(err)
	}
	attempts = dep.Metrics().Attempts
	for i := 0; i < 50_000 && cl.Net.Step(); i++ {
	}
	if got := dep.CommittedTicks(); got != 1 {
		t.Fatalf("committed %d ticks, want the deployment stopped after tick 1", got)
	}
	if got := dep.DumpString(); got != committed {
		t.Fatalf("replicas kept the failed tick's changes:\n%s\nwant tick 1's state:\n%s", got, committed)
	}
	if err := dep.CheckMirrors(); err != nil {
		t.Fatal(err)
	}
	return committed, attempts
}

// TestShardedEvalErrorNeverCommits: a tick whose component fails to
// evaluate — a sum over a non-numeric value — never commits. Every replica
// rolls it back (the groups the bad row never touched included), the
// deployment stops at that tick and says why through Err, and no watchdog
// keeps restarting it. The single-node evaluator fails on the same ops and
// rolls back: once the caller undoes its base ops, it holds exactly what
// the deployment committed.
func TestShardedEvalErrorNeverCommits(t *testing.T) {
	prog := sumProgram(t)
	cl, dep := newDeployment(t, prog, tcEDB, 2, 31)
	ref := newOracle(t, prog, tcEDB)
	ref.tick(t, sumGood)
	want := ref.dump(dep.Placement().Preds)
	delta := datalog.NewDelta()
	ref.inc.DB().Get("attr").Insert(sumBad[0].T)
	delta.Insert("attr", sumBad[0].T)
	if _, err := ref.inc.Apply(delta); err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("single node: Apply = %v, want the sum's failure", err)
	}
	ref.inc.DB().Undo(delta.Ops())
	committed, attempts := failSumTick(t, cl, dep)
	if committed != want {
		t.Fatalf("tick 1 diverged:\n%s\nwant:\n%s", committed, want)
	}
	if got := ref.dump(dep.Placement().Preds); got != committed {
		t.Fatalf("single node after rollback:\n%s\nwant the deployment's committed state:\n%s", got, committed)
	}
	if err := dep.Err(); err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("Err() = %v, want the sum's failure", err)
	}
	if got := dep.Metrics().Attempts; got != attempts {
		t.Fatalf("attempts went %d → %d: the failed tick is being retried", attempts, got)
	}
}

// TestShardedEvalErrorFencesFailedAttempt: the coordinator gives up on the
// first failing ack while the same stage's requests to other replicas may
// still be in flight, and the rollback can overtake them. A request of the
// failed attempt that arrives after the rollback must find no attempt to
// run: no panic, nothing re-applied. Link latencies differ per seed, so
// the sweep delivers requests on both sides of the rollback.
func TestShardedEvalErrorFencesFailedAttempt(t *testing.T) {
	prog := sumProgram(t)
	for seed := int64(1); seed <= 30; seed++ {
		cl, dep := newDeployment(t, prog, tcEDB, 3, seed)
		failSumTick(t, cl, dep)
		if dep.Err() == nil {
			t.Fatalf("seed %d: Err() = nil after the failed tick", seed)
		}
	}
}

// TestShardedDeleteShipsCandidatesNotExtent: deleting one edge near the
// end of a 200-edge chain over-deletes the 980 paths through it. The
// rederive support-checks those candidates on every replica instead of
// re-driving the whole closure extent, so the tick ships at most one
// over-deletion per candidate plus one candidate per replica — not the
// 19 120 surviving paths.
func TestShardedDeleteShipsCandidatesNotExtent(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	var chain []datalog.DeltaOp
	for i := int64(0); i < 200; i++ {
		chain = append(chain, ins("edge", i, i+1))
	}
	cut := []datalog.DeltaOp{del("edge", int64(195), int64(196))}
	for _, n := range []int{1, 3} {
		_, dep := newDeployment(t, prog, tcEDB, n, 41)
		ref := newOracle(t, prog, tcEDB)
		var shipped, paths [2]uint64
		for i, ops := range [][]datalog.DeltaOp{chain, cut} {
			before := dep.RowsExchanged()
			if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
				t.Fatalf("n=%d tick %d did not commit: %v", n, i, err)
			}
			ref.tick(t, ops)
			if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
				t.Fatalf("n=%d tick %d diverged from single-node", n, i)
			}
			shipped[i] = dep.RowsExchanged() - before
			paths[i] = uint64(ref.inc.DB().Get("path").Len())
		}
		if over := paths[0] - paths[1]; over != 980 || shipped[1] > uint64(n+1)*over {
			t.Fatalf("n=%d: the cut removed %d paths (want 980) and shipped %d rows, want ≤ %d (the extent is %d)",
				n, over, shipped[1], uint64(n+1)*over, paths[1])
		}
	}
}

// TestShardedMirroredRecursionShipsNoKnownRows: nonlinear closure mirrors
// path, so every replica holds the same copy and already knows a row it
// holds, or one it has deleted. Rounds re-derive known paths all the time;
// none of them may cross the exchange again. On one replica every
// realized path change therefore ships exactly once: a 40-edge chain
// inserts 820 paths, and cutting edge (20,21) deletes 420 (each over-deleted
// path is its own candidate there, so none ships twice). Three replicas
// must still converge to the single-node fixpoint.
func TestShardedMirroredRecursionShipsNoKnownRows(t *testing.T) {
	V := datalog.V
	atom := func(p, a, b string) datalog.Literal {
		return datalog.Literal{Atom: datalog.Atom{Pred: p, Args: []datalog.Term{V(a), V(b)}}}
	}
	prog, err := datalog.NewProgram(
		datalog.Rule{Head: atom("path", "x", "y").Atom, Body: []datalog.Literal{atom("edge", "x", "y")}},
		datalog.Rule{Head: atom("path", "x", "z").Atom, Body: []datalog.Literal{atom("path", "x", "y"), atom("path", "y", "z")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var chain []datalog.DeltaOp
	for i := int64(0); i < 40; i++ {
		chain = append(chain, ins("edge", i, i+1))
	}
	ticks := [][]datalog.DeltaOp{chain, {del("edge", int64(20), int64(21))}, {ins("edge", int64(20), int64(21))}}
	for _, n := range []int{1, 3} {
		_, dep := newDeployment(t, prog, tcEDB, n, 41)
		if !dep.Placement().Specs["path"].Mirrored {
			t.Fatalf("n=%d: nonlinear closure left path sharded", n)
		}
		ref := newOracle(t, prog, tcEDB)
		for i, ops := range ticks {
			before, paths := dep.RowsExchanged(), ref.inc.DB().Get("path").Len()
			if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
				t.Fatalf("n=%d tick %d did not commit: %v", n, i, err)
			}
			ref.tick(t, ops)
			if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
				t.Fatalf("n=%d tick %d diverged from single-node", n, i)
			}
			changed := ref.inc.DB().Get("path").Len() - paths
			if changed < 0 {
				changed = -changed
			}
			if shipped := dep.RowsExchanged() - before; n == 1 && shipped != uint64(changed) {
				t.Fatalf("tick %d shipped %d rows for %d path changes", i, shipped, changed)
			}
		}
	}
}

// TestShardedMirroredRecursionDerivesInPlace: nonlinear closure mirrors
// path and keeps edge sharded, so on 3 replicas each edge's path row ships
// from its owner to the other two, while the recursive rule, whose body is
// all mirrored, runs on every replica and ships nothing: each tick, a
// 40-edge chain, the cut of one edge and its return, delivers two rows per
// edge op, the deployment matches the single-node fixpoint, and each
// replica holds only the edge rows it owns.
func TestShardedMirroredRecursionDerivesInPlace(t *testing.T) {
	prog := nonlinearTC(t)
	var chain []datalog.DeltaOp
	for i := int64(0); i < 40; i++ {
		chain = append(chain, ins("edge", i, i+1))
	}
	_, dep := newDeployment(t, prog, tcEDB, 3, 41)
	var delivered uint64
	dep.CountDelivered(&delivered)
	ref := newOracle(t, prog, tcEDB)
	for i, ops := range [][]datalog.DeltaOp{chain, {del("edge", int64(20), int64(21))}, {ins("edge", int64(20), int64(21))}} {
		before := delivered
		if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not commit: %v", i, err)
		}
		ref.tick(t, ops)
		if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
			t.Fatalf("tick %d diverged from single-node", i)
		}
		if err := dep.CheckOwners(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if got := delivered - before; got != uint64(2*len(ops)) {
			t.Fatalf("tick %d delivered %d rows for %d edge ops, want 2 each", i, got, len(ops))
		}
	}
}

// TestShardedLongTickCommitsInOneAttempt: unary reachability from one root
// over a chain takes a round per link, so on 3 replicas at DefaultConfig
// latencies the tick that adds the root, and the one that cuts the chain
// at the root, each step their rounds for longer than the coordinator's
// stall watchdog. Replicas whose rounds still close say so, so no such
// tick is taken for a stall: each commits in one attempt and matches the
// single-node oracle.
func TestShardedLongTickCommitsInOneAttempt(t *testing.T) {
	const links = 4000
	prog, err := datalog.NewProgram(
		rule(atom("reach", "x"), atom("root", "x")),
		rule(atom("reach", "y"), atom("reach", "x"), atom("edge", "x", "y")),
	)
	if err != nil {
		t.Fatal(err)
	}
	edb := map[string]int{"root": 1, "edge": 2}
	var chain []datalog.DeltaOp
	for i := int64(0); i < links; i++ {
		chain = append(chain, ins("edge", i, i+1))
	}
	ticks := [][]datalog.DeltaOp{chain, {ins("root", int64(0))}, {del("edge", int64(0), int64(1))}}
	cl, dep := newDeployment(t, prog, edb, 3, 23)
	ref := newOracle(t, prog, edb)
	long := 0
	for i, ops := range ticks {
		start := cl.Net.Now()
		if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not commit: %v\n%s", i, err, dep.DebugString())
		}
		if cl.Net.Now()-start > shard.DefaultRetryAfter {
			long++
		}
		ref.tick(t, ops)
		if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
			t.Fatalf("tick %d diverged from the single-node oracle", i)
		}
	}
	if long != 2 {
		t.Fatalf("%d ticks outlasted the stall watchdog, want the root's and the cut's", long)
	}
	if m := dep.Metrics(); m.Attempts != uint64(len(ticks)) {
		t.Fatalf("%d attempts for %d ticks: a long tick was restarted", m.Attempts, len(ticks))
	}
}

// TestShardedDRedTaxOnExchangingClosure pins the DRed tax where a closure
// still exchanges: on 3 replicas of the closure over link, ticks that also
// delete an edge and restore the one deleted the tick before cost more
// exchange rounds and more virtual time than insert-only ticks of the same
// inserts, their over-delete rounds and the round that support-checks the
// candidates on every replica.
func TestShardedDRedTaxOnExchangingClosure(t *testing.T) {
	prog, err := datalog.NewProgram(linkRules...)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(deletes bool) (rounds uint64, elapsed int64) {
		cl, dep := newDeployment(t, prog, tcEDB, 3, 5)
		edge := func(k int, del bool) datalog.DeltaOp {
			return datalog.DeltaOp{Del: del, Pred: "edge", T: datalog.Tuple{int64(k), int64(k + 1)}}
		}
		next, victim := 0, -1
		for i := 0; i < 12; i++ {
			var ops []datalog.DeltaOp
			if deletes && i > 0 {
				if victim >= 0 {
					ops = append(ops, edge(victim, false))
				}
				victim = next - 2
				ops = append(ops, edge(victim, true))
			}
			for j := 0; j < 2; j++ {
				ops = append(ops, edge(next, false))
				next++
			}
			r0, start := dep.Metrics().Rounds, cl.Net.Now()
			if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
				t.Fatalf("tick %d did not commit: %v", i, err)
			}
			if i >= 6 {
				rounds += dep.Metrics().Rounds - r0
				elapsed += int64(cl.Net.Now() - start)
			}
		}
		return rounds, elapsed
	}
	monoRounds, monoTime := cost(false)
	delRounds, delTime := cost(true)
	if monoRounds == 0 || delRounds <= monoRounds || delTime <= monoTime {
		t.Fatalf("inserts: %d rounds in %d µs; with deletes: %d rounds in %d µs", monoRounds, monoTime, delRounds, delTime)
	}
}
