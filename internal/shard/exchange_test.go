package shard_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/shard"
	"hydro/internal/simnet"
)

// nonlinearTC is transitive closure joining path with itself, which
// mirrors path: every row a round ships goes to every replica.
func nonlinearTC(t *testing.T) *datalog.Program {
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
	return prog
}

// steppedShipped folds ops into inc through datalog's round API, as a lone
// replica steps its tick, and returns how many rows its rounds ship.
func steppedShipped(t *testing.T, inc *datalog.Incremental, comps int, ops []datalog.DeltaOp) (shipped uint64) {
	t.Helper()
	d := datalog.NewDelta()
	for _, op := range ops {
		rel := inc.DB().Get(op.Pred)
		if op.Del {
			if rel.Delete(op.T) {
				d.Delete(op.Pred, op.T)
			}
		} else if rel.Insert(op.T) {
			d.Insert(op.Pred, op.T)
		}
	}
	tk, err := inc.Begin(d, datalog.Site{})
	for ci, del := tk.Next(0); err == nil && ci < comps; ci, del = tk.Next(ci + 1) {
		tk.Start(ci, del)
		for quiet, last := false, false; err == nil && !(quiet && last); {
			var rows [1]datalog.Batch
			var cands datalog.Batch
			if last, err = tk.Round(quiet, rows[:], &cands); err == nil {
				shipped += uint64(rows[0].Len() + cands.Len())
				quiet = tk.Accept(&cands, &rows[0]) == 0
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return shipped
}

// TestRowsShippedIsWhatTheExchangeDelivered: Metrics().RowsShipped counts
// each row an exchange round hands a replica, the sender included. On one
// replica that is what a lone stepped datalog.Tick ships for the same
// batches of the closure over link, which exchanges. A copy of edge that a
// self-join mirrors is derived from sharded edge rows and so exchanges,
// and the self-join, whose body is all mirrored, is local: on N replicas
// every shipped row has N copies, N−1 of which the network delivers.
func TestRowsShippedIsWhatTheExchangeDelivered(t *testing.T) {
	var chain []datalog.DeltaOp
	for i := int64(0); i < 30; i++ {
		chain = append(chain, ins("edge", i, i+1))
	}
	ticks := [][]datalog.DeltaOp{chain, {del("edge", int64(15), int64(16))}, {ins("edge", int64(15), int64(16))}}

	tc, err := datalog.NewProgram(linkRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, tc, tcEDB, 1, 7)
	ref := newOracle(t, tc, tcEDB)
	for i, ops := range ticks {
		before := dep.Metrics().RowsShipped
		if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not commit: %v", i, err)
		}
		if got, want := dep.Metrics().RowsShipped-before, steppedShipped(t, ref.inc, len(tc.Components()), ops); got != want || got == 0 {
			t.Fatalf("tick %d: one replica shipped %d rows, a stepped tick %d", i, got, want)
		}
	}

	copied, err := datalog.NewProgram(
		rule(atom("copy", "x", "y"), atom("edge", "x", "y")),
		rule(atom("hop2", "x", "z"), atom("copy", "x", "y"), atom("copy", "y", "z")),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3} {
		_, dep := newDeployment(t, copied, tcEDB, n, 7)
		if !dep.Placement().Specs["copy"].Mirrored || !slices.Equal(dep.Placement().Local, []bool{false, true}) {
			t.Fatalf("n=%d: placement %+v, local %v: want copy mirrored and exchanging, hop2 local", n, dep.Placement().Specs, dep.Placement().Local)
		}
		var delivered uint64
		dep.CountDelivered(&delivered)
		for i, ops := range ticks {
			if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
				t.Fatalf("n=%d tick %d did not commit: %v", n, i, err)
			}
		}
		if shipped := dep.Metrics().RowsShipped; shipped == 0 || shipped*uint64(n-1) != delivered*uint64(n) {
			t.Fatalf("n=%d: %d rows shipped, %d delivered by the network", n, shipped, delivered)
		}
	}
}

// TestShardedDictionariesDisagree: a row leaves its replica as words whose
// dictionary values travel in its batch's values table, and the receiver
// rebases them into its own dictionary. So replicas that interned the same
// strings in different orders still agree: three of them, each having
// interned the node names in its own order before the first tick, converge
// to the single-node fixpoint through a string chain's inserts, a cut
// (DRed's candidates travel as their own batch) and its repair, with path
// sharded (tcRules) and mirrored (nonlinear closure).
func TestShardedDictionariesDisagree(t *testing.T) {
	var names []any
	for i := 0; i < 24; i++ {
		names = append(names, fmt.Sprintf("n%02d", i))
	}
	var chain []datalog.DeltaOp
	for i := 0; i+1 < len(names); i++ {
		chain = append(chain, ins("edge", names[i], names[i+1]))
	}
	ticks := [][]datalog.DeltaOp{chain, {del("edge", "n10", "n11")}, {ins("edge", "n10", "n11"), del("edge", "n03", "n04")}}
	tc, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []*datalog.Program{tc, nonlinearTC(t)} {
		_, dep := newDeployment(t, prog, tcEDB, 3, 9)
		for i := 0; i < 3; i++ {
			order := slices.Clone(names)
			if i%2 == 1 {
				slices.Reverse(order)
			}
			dep.Intern(i, "edge", slices.Concat(order[8*i:], order[:8*i])...)
		}
		ref := newOracle(t, prog, tcEDB)
		for i, ops := range ticks {
			if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
				t.Fatalf("tick %d did not commit: %v", i, err)
			}
			ref.tick(t, ops)
			if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
				t.Fatalf("tick %d diverged from single-node:\n%s\nwant:\n%s", i, got, want)
			}
		}
	}
}

// covidDeployment deploys compiled COVID on n replicas of a fresh
// simulated cluster and returns its query program too.
func covidDeployment(t *testing.T, n int) (*datalog.Program, *shard.Deployment) {
	t.Helper()
	compiled, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{"covid_predict": func(args []any) any { return 0.5 }},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.NewTopology(3, 2, 2, cluster.ClassSmall), simnet.DefaultConfig(1))
	dep, err := compiled.InstantiateSharded(cl, "covid", n, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return compiled.Queries, dep
}

// TestShardedCovidShipsItsClosureOnce: compiled COVID's closure is
// decomposable and local, so on 3 replicas each transitive row is derived
// on its owner from the owner's own copy of contacts: over a seeded stream
// of symmetric zipf contacts no row is shipped at all.
func TestShardedCovidShipsItsClosureOnce(t *testing.T) {
	_, dep := covidDeployment(t, 3)
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, 199)
	for i := 0; i < 120; i++ {
		var ops []datalog.DeltaOp
		for k := 0; k < 4; k++ {
			a, b := int64(zipf.Uint64()), int64(zipf.Uint64())
			ops = append(ops, ins("contacts", a, b), ins("contacts", b, a))
		}
		if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not commit: %v", i, err)
		}
	}
	if closure, shipped := len(dep.Dump()["transitive"]), dep.Metrics().RowsShipped; closure == 0 || shipped != 0 {
		t.Fatalf("shipped %d rows for %d transitive rows, want none", shipped, closure)
	}
}

// TestShardedLocalComponentShipsNothing: COVID's closure is a local
// component, so at 3 shards a tick that inserts contacts, and one that
// deletes one (DRed, its candidates checked where they live), step no
// exchange round and ship no row, the deployment matches the single-node
// fixpoint, and each replica holds only the closure rows it owns.
func TestShardedLocalComponentShipsNothing(t *testing.T) {
	prog, dep := covidDeployment(t, 3)
	if !slices.Equal(dep.Placement().Local, []bool{true}) {
		t.Fatalf("placement Local %v, want COVID's one component local", dep.Placement().Local)
	}
	var delivered uint64
	dep.CountDelivered(&delivered)
	ref := newOracle(t, prog, map[string]int{"contacts": 2})
	for i, ops := range [][]datalog.DeltaOp{
		{ins("contacts", int64(1), int64(2)), ins("contacts", int64(2), int64(3)), ins("contacts", int64(3), int64(4))},
		{del("contacts", int64(2), int64(3)), ins("contacts", int64(4), int64(1))},
	} {
		if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not commit: %v", i, err)
		}
		ref.tick(t, ops)
		if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
			t.Fatalf("tick %d diverged from single-node:\n%s\nwant:\n%s", i, got, want)
		}
		if err := dep.CheckOwners(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if m := dep.Metrics(); m.Rounds != 0 || m.RowsShipped != 0 || delivered != 0 {
		t.Fatalf("%d rounds, %d rows shipped, %d delivered: want none", m.Rounds, m.RowsShipped, delivered)
	}
}
