package shard_test

import (
	"fmt"
	"slices"
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/shard"
)

// A tick's rounds are the replicas' own: each replica receives one prepare
// and one commit from the coordinator and nothing else, and between them
// steps the rounds of the components some replica's batch touches,
// choosing each next round from the batches it accepted.

// watchTicks submits ticks to dep one at a time, settling each and
// comparing the dump with the single-node oracle's, and returns per tick
// what tickRounds reads off what the replicas received and stepped.
func watchTicks(t *testing.T, dep *shard.Deployment, prog *datalog.Program, edb map[string]int, ticks [][]datalog.DeltaOp) []map[int]bool {
	t.Helper()
	var seen []shard.Received
	dep.WatchReplicas(func(q shard.Received) { seen = append(seen, q) })
	ref := newOracle(t, prog, edb)
	var out []map[int]bool
	for i, ops := range ticks {
		seen = seen[:0]
		if err := dep.Submit(ops); err != nil || !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not commit: %v\n%s", i, err, dep.DebugString())
		}
		ref.tick(t, ops)
		if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
			t.Fatalf("tick %d diverged:\n%s\nwant:\n%s", i, got, want)
		}
		out = append(out, tickRounds(t, len(dep.Replicas()), seen))
	}
	return out
}

// tickRounds checks what the replicas received and stepped in one tick:
// every replica the same, a prepare first, a commit last and component
// rounds between, components ascending and each one's rounds numbered
// from 0. It returns the delete flag of each started component's round 0.
func tickRounds(t *testing.T, n int, seen []shard.Received) map[int]bool {
	t.Helper()
	seqs := make([][]shard.Received, n)
	for _, q := range seen {
		i := q.Replica
		q.Replica = 0
		seqs[i] = append(seqs[i], q)
	}
	for i, seq := range seqs {
		if !slices.Equal(seq, seqs[0]) {
			t.Fatalf("replica %d received %+v, replica 0 %+v", i, seq, seqs[0])
		}
	}
	seq := seqs[0]
	if len(seq) < 2 || seq[0].Kind != shard.StagePrepare || seq[len(seq)-1].Kind != shard.StageCommit {
		t.Fatalf("received %+v: want a prepare first and a commit last", seq)
	}
	started, comp, round := map[int]bool{}, -1, 0
	for _, q := range seq[1 : len(seq)-1] {
		if q.Kind != shard.Exchange {
			t.Fatalf("received %+v: a request of kind %d within the tick, want component rounds only", seq, q.Kind)
		}
		if q.Comp != comp {
			if q.Comp < comp {
				t.Fatalf("received %+v: component %d after %d", seq, q.Comp, comp)
			}
			comp, round = q.Comp, 0
			started[comp] = q.HasDel
		}
		if q.Round != round {
			t.Fatalf("received %+v: component %d round %d, want %d", seq, comp, q.Round, round)
		}
		round++
	}
	return started
}

// compOf returns the index of the component of prog that derives head.
func compOf(t *testing.T, prog *datalog.Program, head string) int {
	t.Helper()
	for i, c := range prog.Components() {
		if slices.Contains(c.Heads, head) {
			return i
		}
	}
	t.Fatalf("no component derives %s", head)
	return -1
}

func atom(pred string, vars ...string) datalog.Atom {
	a := datalog.Atom{Pred: pred}
	for _, v := range vars {
		a.Args = append(a.Args, datalog.V(v))
	}
	return a
}

func rule(head datalog.Atom, body ...datalog.Atom) datalog.Rule {
	r := datalog.Rule{Head: head}
	for _, b := range body {
		r.Body = append(r.Body, datalog.Literal{Atom: b})
	}
	return r
}

// TestShardedTickIsPrepareRoundsCommit: one tick of transitive closure
// over link, which exchanges, costs each of 1, 3 and 5 replicas one
// prepare, the rounds of link's and path's components and one commit,
// inserting and then deleting.
func TestShardedTickIsPrepareRoundsCommit(t *testing.T) {
	prog, err := datalog.NewProgram(linkRules...)
	if err != nil {
		t.Fatal(err)
	}
	link, path := compOf(t, prog, "link"), compOf(t, prog, "path")
	ticks := [][]datalog.DeltaOp{
		{ins("edge", "a", "b"), ins("edge", "b", "c"), ins("edge", "c", "d")},
		{del("edge", "b", "c"), ins("edge", "d", "a")},
	}
	for _, n := range []int{1, 3, 5} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			_, dep := newDeployment(t, prog, tcEDB, n, 7)
			got := watchTicks(t, dep, prog, tcEDB, ticks)
			if want := []map[int]bool{{link: false, path: false}, {link: true, path: true}}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round-0 delete flags per tick %v, want %v", got, want)
			}
		})
	}
}

// TestShardedTickSkipsUntouchedComponents: in a chain of three components
// on 3 replicas, each of which exchanges (q's head is not on its join
// variable), a tick that changes only the last one's base input runs
// rounds of the last component alone.
func TestShardedTickSkipsUntouchedComponents(t *testing.T) {
	prog, err := datalog.NewProgram(
		rule(atom("p", "x"), atom("a", "x")),
		rule(atom("q", "y"), atom("p", "x"), atom("b", "x", "y")),
		rule(atom("r", "x", "y"), atom("q", "x"), atom("c", "x", "y")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if compOf(t, prog, "p") != 0 || compOf(t, prog, "q") != 1 || compOf(t, prog, "r") != 2 {
		t.Fatalf("components %+v, want p, q, r", prog.Components())
	}
	edb := map[string]int{"a": 1, "b": 2, "c": 2}
	_, dep := newDeployment(t, prog, edb, 3, 11)
	got := watchTicks(t, dep, prog, edb, [][]datalog.DeltaOp{
		{ins("a", 1), ins("a", 2), ins("b", 1, 1), ins("b", 2, 2), ins("c", 1, 10)},
		{ins("c", 2, 20), ins("c", 1, 11), del("c", 1, 10)},
	})
	if want := []map[int]bool{{0: false, 1: false, 2: false}, {2: true}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("round-0 delete flags per tick %v, want %v", got, want)
	}
}

// TestShardedRederivedDRedStartsDownstreamInsertOnly: cutting edge (b,c)
// makes the closure over link, which exchanges, over-delete path(b,c) and
// path(a,c) by DRed. When another route re-derives both, the component
// downstream, which the tick's new mark also touches, loses nothing and
// runs insert rounds only; when path(b,c) is lost, it runs DRed. The mark
// is on path's second column, which keeps path hashed there.
func TestShardedRederivedDRedStartsDownstreamInsertOnly(t *testing.T) {
	prog, err := datalog.NewProgram(append(append([]datalog.Rule{}, linkRules...),
		rule(atom("out", "x", "y"), atom("path", "x", "y"), atom("mark", "y")))...)
	if err != nil {
		t.Fatal(err)
	}
	link, path, out := compOf(t, prog, "link"), compOf(t, prog, "path"), compOf(t, prog, "out")
	edb := map[string]int{"edge": 2, "mark": 1}
	base := []datalog.DeltaOp{ins("edge", "a", "b"), ins("edge", "b", "c"), ins("edge", "a", "c"), ins("mark", "a"), ins("mark", "b")}
	cut := []datalog.DeltaOp{del("edge", "b", "c"), ins("mark", "c")}
	for _, tc := range []struct {
		name  string
		setup []datalog.DeltaOp
		lost  bool
	}{
		{"rederived", append([]datalog.DeltaOp{ins("edge", "b", "x"), ins("edge", "x", "c")}, base...), false},
		{"one-lost", base, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, dep := newDeployment(t, prog, edb, 3, 13)
			got := watchTicks(t, dep, prog, edb, [][]datalog.DeltaOp{tc.setup, cut})[1]
			if want := map[int]bool{link: true, path: true, out: tc.lost}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round-0 delete flags %v, want %v", got, want)
			}
		})
	}
}

// TestShardedLocalDeletesReachOnlyReaders: a tick that cuts an edge of
// the local closure over edge, and adds a road to the closure over link, a
// copy of road, which exchanges and reads nothing of path, starts link's
// and reach's components insert-only: path's possible deletions reach only
// the components that read it.
func TestShardedLocalDeletesReachOnlyReaders(t *testing.T) {
	prog, err := datalog.NewProgram(append(append([]datalog.Rule{}, tcRules...),
		rule(atom("link", "x", "y"), atom("road", "x", "y")),
		rule(atom("reach", "x", "y"), atom("link", "x", "y")),
		rule(atom("reach", "x", "z"), atom("reach", "x", "y"), atom("link", "y", "z")))...)
	if err != nil {
		t.Fatal(err)
	}
	path, link, reach := compOf(t, prog, "path"), compOf(t, prog, "link"), compOf(t, prog, "reach")
	edb := map[string]int{"edge": 2, "road": 2}
	_, dep := newDeployment(t, prog, edb, 3, 19)
	if pl := dep.Placement().Local; !pl[path] || pl[link] || pl[reach] || path > link {
		t.Fatalf("components path %d, link %d, reach %d, local %v: want path local and first", path, link, reach, pl)
	}
	got := watchTicks(t, dep, prog, edb, [][]datalog.DeltaOp{
		{ins("edge", "a", "b"), ins("edge", "b", "c"), ins("road", "a", "b")},
		{del("edge", "b", "c"), ins("road", "b", "c")},
	})[1]
	if want := map[int]bool{link: false, reach: false}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("round-0 delete flags %v, want %v", got, want)
	}
}

// TestShardedNegationInsertStartsReaderWithDRed: alive, node without dead,
// is non-monotone and so local, and its reader seen, hashed on the column
// alive does not bind, exchanges. A tick that only inserts into dead
// deletes alive(1), so seen's component must start with DRed.
func TestShardedNegationInsertStartsReaderWithDRed(t *testing.T) {
	notDead := datalog.Literal{Atom: atom("dead", "x"), Negated: true}
	prog, err := datalog.NewProgram(
		datalog.Rule{Head: atom("alive", "x"), Body: []datalog.Literal{{Atom: atom("node", "x")}, notDead}},
		rule(atom("seen", "y"), atom("alive", "x"), atom("e", "x", "y")),
	)
	if err != nil {
		t.Fatal(err)
	}
	alive, seen := compOf(t, prog, "alive"), compOf(t, prog, "seen")
	edb := map[string]int{"node": 1, "dead": 1, "e": 2}
	_, dep := newDeployment(t, prog, edb, 3, 23)
	if pl := dep.Placement().Local; !pl[alive] || pl[seen] {
		t.Fatalf("local %v: want alive's component local and seen's exchanging", pl)
	}
	got := watchTicks(t, dep, prog, edb, [][]datalog.DeltaOp{
		{ins("node", 1), ins("node", 2), ins("e", 1, 10), ins("e", 2, 20)},
		{ins("dead", 1)},
	})[1]
	if want := map[int]bool{seen: true}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("round-0 delete flags %v, want %v", got, want)
	}
}

// TestShardedSmallerNamedComponentStarts: a tick that inserts into the
// first of two independent components on one replica and deletes from the
// second on another starts the first with no deletion, and then the
// second with one: each delete flag comes from the replicas that name its
// component.
func TestShardedSmallerNamedComponentStarts(t *testing.T) {
	prog, err := datalog.NewProgram(rule(atom("p", "x"), atom("a", "x")), rule(atom("q", "x"), atom("b", "x")))
	if err != nil {
		t.Fatal(err)
	}
	first, second := "a", "b"
	if compOf(t, prog, "p") > compOf(t, prog, "q") {
		first, second = second, first
	}
	edb := map[string]int{"a": 1, "b": 1}
	_, dep := newDeployment(t, prog, edb, 3, 17)
	owner := func(pred string, v int64) int { return dep.Placement().Owner(pred, datalog.Tuple{v}) }
	gone := int64(0) // a row of second whose owner is not first's row 0's
	for owner(second, gone) == owner(first, 0) {
		gone++
	}
	if owner(first, 0) < 0 || owner(second, gone) < 0 {
		t.Fatalf("placement %+v mirrors %s or %s", dep.Placement().Specs, first, second)
	}
	got := watchTicks(t, dep, prog, edb, [][]datalog.DeltaOp{
		{ins(second, gone), ins(second, gone+1)},
		{ins(first, 0), del(second, gone)},
	})[1]
	if want := map[int]bool{0: false, 1: true}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("round-0 delete flags %v, want %v", got, want)
	}
}
