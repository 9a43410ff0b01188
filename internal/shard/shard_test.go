package shard_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/shard"
	"hydro/internal/simnet"
)

// settleBudget bounds one Settle call; healthy ticks need a few hundred
// deliveries, so hitting this means the protocol is stuck.
const settleBudget = 400_000

var tcRules = []datalog.Rule{
	{
		Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}},
		Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
	},
	{
		Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("z")}},
		Body: []datalog.Literal{
			{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
			{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("y"), datalog.V("z")}}},
		},
	},
}

var tcEDB = map[string]int{"edge": 2, "node": 1, "attr": 2}

// linkRules is transitive closure over link, a copy of edge: a closure over
// a derived input is not decomposed (link and path co-hashed on y), so its
// derived rows cross between replicas in exchange rounds.
var linkRules = func() []datalog.Rule {
	V := datalog.V
	atom := func(p, a, b string) datalog.Atom { return datalog.Atom{Pred: p, Args: []datalog.Term{V(a), V(b)}} }
	return []datalog.Rule{
		{Head: atom("link", "x", "y"), Body: []datalog.Literal{{Atom: atom("edge", "x", "y")}}},
		{Head: atom("path", "x", "y"), Body: []datalog.Literal{{Atom: atom("link", "x", "y")}}},
		{Head: atom("path", "x", "z"), Body: []datalog.Literal{{Atom: atom("path", "x", "y")}, {Atom: atom("link", "y", "z")}}},
	}
}()

// newDeployment builds an n-replica deployment of prog on a fresh
// simulated cluster, replicas placed by cluster.Topology.SpreadAcross.
func newDeployment(t testing.TB, prog *datalog.Program, edb map[string]int, n int, seed int64) (*cluster.Cluster, *shard.Deployment) {
	t.Helper()
	return newDeploymentWith(t, shard.Deploy, prog, edb, n, seed)
}

// newDeploymentWith is newDeployment through deploy: shard.Deploy, or the
// chaos suite's shard.DeployOneCoordinator oracle.
func newDeploymentWith(t testing.TB, deploy func(*cluster.Cluster, string, *datalog.Program, map[string]int, []string, shard.Options) (*shard.Deployment, error),
	prog *datalog.Program, edb map[string]int, n int, seed int64) (*cluster.Cluster, *shard.Deployment) {
	t.Helper()
	topo := cluster.NewTopology(3, 2, 2, cluster.ClassSmall)
	cl := cluster.New(topo, simnet.DefaultConfig(seed))
	machines, err := topo.SpreadAcross(cluster.AZ, n)
	if err != nil {
		t.Fatalf("SpreadAcross(%d): %v", n, err)
	}
	dep, err := deploy(cl, fmt.Sprintf("dep%d", n), prog, edb, machines, shard.Options{})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return cl, dep
}

// oracle maintains the single-node reference fixpoint: the same program
// under datalog.Incremental, fed realized versions of the same raw ops.
type oracle struct {
	inc *datalog.Incremental
}

func newOracle(t testing.TB, prog *datalog.Program, edb map[string]int) *oracle {
	t.Helper()
	db := datalog.NewDatabase()
	for pred, ar := range edb {
		db.Ensure(pred, ar)
	}
	inc, err := datalog.NewIncremental(prog, db)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	return &oracle{inc: inc}
}

func (o *oracle) tick(t testing.TB, ops []datalog.DeltaOp) {
	t.Helper()
	delta := datalog.NewDelta()
	for _, op := range ops {
		rel := o.inc.DB().Get(op.Pred)
		if op.Del {
			if rel.Delete(op.T) {
				delta.Delete(op.Pred, op.T)
			}
		} else if rel.Insert(op.T) {
			delta.Insert(op.Pred, op.T)
		}
	}
	if _, err := o.inc.Apply(delta); err != nil {
		t.Fatalf("oracle Apply: %v", err)
	}
}

func (o *oracle) dump(preds []string) string {
	return shard.DumpDatabase(o.inc.DB(), preds)
}

func ins(pred string, vals ...any) datalog.DeltaOp {
	return datalog.DeltaOp{Pred: pred, T: datalog.Tuple(vals)}
}

func del(pred string, vals ...any) datalog.DeltaOp {
	return datalog.DeltaOp{Del: true, Pred: pred, T: datalog.Tuple(vals)}
}

// TestShardedTCMatchesSingleNode drives the transitive-closure workload
// through a 3-replica deployment tick by tick — inserts building a chain
// across shard boundaries, then deletions that retract closure tuples
// owned by other replicas (cross-shard DRed traffic) — and requires
// byte-identical dumps against the single-node incremental fixpoint after
// every tick, each replica holding only the rows it owns. It runs three
// closures: over the base edge, which placement decomposes (edge mirrored,
// path sharded on the x its recursion carries); over a derived link, which
// stays on the anchored placement (link and path co-hashed on y), so
// derived rows cross between replicas; and hub, whose base rule reads only
// mirrored edge, so every replica derives its rows and keeps those it
// owns, while its recursion over link exchanges.
func TestShardedTCMatchesSingleNode(t *testing.T) {
	ticks := [][]datalog.DeltaOp{
		{ins("edge", "a", "b"), ins("edge", "b", "c"), ins("edge", "c", "d")},
		{ins("edge", "d", "e"), ins("edge", "e", "f"), ins("edge", "f", "a")}, // closes a cycle
		{ins("edge", "b", "g"), del("edge", "c", "d")},                        // cut mid-chain
		{del("edge", "f", "a"), del("edge", "a", "b")},                        // delete-heavy
		{ins("edge", "a", "b"), ins("edge", "c", "d")},                        // rebuild
	}
	for _, tc := range []struct {
		name  string
		rules []datalog.Rule
		want  map[string]shard.Spec // a mirrored spec's column is not compared
	}{
		{"edge", tcRules, map[string]shard.Spec{"edge": {Mirrored: true}, "path": {Col: 0}}},
		{"link", linkRules, map[string]shard.Spec{"link": {Col: 0}, "path": {Col: 1}}},
		{"hub", append(append([]datalog.Rule{}, tcRules...),
			rule(atom("link", "x", "y"), atom("edge", "x", "y")),
			rule(atom("hub", "x", "y"), atom("edge", "x", "y")),
			rule(atom("hub", "x", "z"), atom("hub", "x", "y"), atom("link", "y", "z"))),
			map[string]shard.Spec{"edge": {Mirrored: true}, "link": {Col: 0}, "hub": {Col: 1}}},
	} {
		prog, err := datalog.NewProgram(tc.rules...)
		if err != nil {
			t.Fatal(err)
		}
		_, dep := newDeployment(t, prog, tcEDB, 3, 42)
		ref := newOracle(t, prog, tcEDB)
		var crossed uint64
		dep.CountDelivered(&crossed)
		for i, ops := range ticks {
			if err := dep.Submit(ops); err != nil {
				t.Fatalf("%s tick %d: Submit: %v", tc.name, i, err)
			}
			if !dep.Settle(settleBudget) {
				t.Fatalf("%s tick %d did not settle", tc.name, i)
			}
			ref.tick(t, ops)
			want := ref.dump(dep.Placement().Preds)
			if got := dep.DumpString(); got != want {
				t.Fatalf("%s tick %d diverged:\nsharded:\n%s\nsingle-node:\n%s", tc.name, i, got, want)
			}
			if err := dep.CheckMirrors(); err != nil {
				t.Fatalf("%s tick %d: %v", tc.name, i, err)
			}
			if err := dep.CheckOwners(); err != nil {
				t.Fatalf("%s tick %d: %v", tc.name, i, err)
			}
		}
		for pred, want := range tc.want {
			if s := dep.Placement().Specs[pred]; s.Mirrored != want.Mirrored || !s.Mirrored && s.Col != want.Col {
				t.Fatalf("%s: %s placed %+v, want %+v", tc.name, pred, s, want)
			}
		}
		// The exchange guard: over the derived link, closure rows cross
		// between replicas.
		if tc.name == "link" && crossed == 0 {
			t.Fatalf("link: no row crossed between replicas")
		}
	}
}

// randConst draws from a small mixed-type domain so keys collide across
// ticks (collisions are where maintenance bugs live).
func randConst(r *rand.Rand) any {
	if r.Intn(2) == 0 {
		return string(rune('a' + r.Intn(4)))
	}
	return int64(r.Intn(4))
}

// randShardRules mirrors the datalog package's randRules shapes: a
// transitive closure with randomized recursion (linear closures are
// decomposed: p1 sharded on the column its recursion carries, edge
// mirrored; nonlinear ones exercise the mirrored fallback), optional joins
// and filters, optional stratified negation, and an optional aggregate
// layer.
func randShardRules(r *rand.Rand) []datalog.Rule {
	V, C := datalog.V, datalog.C
	lit := func(pred string, args ...datalog.Term) datalog.Literal {
		return datalog.Literal{Atom: datalog.Atom{Pred: pred, Args: args}}
	}
	neg := func(pred string, args ...datalog.Term) datalog.Literal {
		return datalog.Literal{Atom: datalog.Atom{Pred: pred, Args: args}, Negated: true}
	}
	rules := []datalog.Rule{{
		Head: datalog.Atom{Pred: "p1", Args: []datalog.Term{V("x"), V("y")}},
		Body: []datalog.Literal{lit("edge", V("x"), V("y"))},
	}}
	switch r.Intn(3) {
	case 0: // left-recursive
		rules = append(rules, datalog.Rule{
			Head: datalog.Atom{Pred: "p1", Args: []datalog.Term{V("x"), V("z")}},
			Body: []datalog.Literal{lit("p1", V("x"), V("y")), lit("edge", V("y"), V("z"))},
		})
	case 1: // right-recursive
		rules = append(rules, datalog.Rule{
			Head: datalog.Atom{Pred: "p1", Args: []datalog.Term{V("x"), V("z")}},
			Body: []datalog.Literal{lit("edge", V("x"), V("y")), lit("p1", V("y"), V("z"))},
		})
	default: // nonlinear — defeats co-hashing, exercises mirrored evaluation
		rules = append(rules, datalog.Rule{
			Head: datalog.Atom{Pred: "p1", Args: []datalog.Term{V("x"), V("z")}},
			Body: []datalog.Literal{lit("p1", V("x"), V("y")), lit("p1", V("y"), V("z"))},
		})
	}
	if r.Intn(2) == 0 {
		rules = append(rules, datalog.Rule{
			Head: datalog.Atom{Pred: "sym", Args: []datalog.Term{V("x"), V("y")}},
			Body: []datalog.Literal{lit("edge", V("x"), V("y")), lit("edge", V("y"), V("x"))},
		})
	}
	if r.Intn(2) == 0 {
		rules = append(rules, datalog.Rule{
			Head:    datalog.Atom{Pred: "p2", Args: []datalog.Term{V("x"), V("v")}},
			Body:    []datalog.Literal{lit("p1", V("x"), V("y")), lit("attr", V("y"), V("v"))},
			Filters: []datalog.Filter{{Op: datalog.OpGe, L: V("v"), R: C(int64(r.Intn(5)))}},
		})
	}
	if r.Intn(2) == 0 {
		rules = append(rules, datalog.Rule{
			Head: datalog.Atom{Pred: "q", Args: []datalog.Term{V("x")}},
			Body: []datalog.Literal{lit("node", V("x")), neg("p1", C(randConst(r)), V("x"))},
		})
	}
	switch r.Intn(4) {
	case 0:
		rules = append(rules, datalog.Rule{
			Head:   datalog.Atom{Pred: "fanout", Args: []datalog.Term{V("x"), V("y")}},
			Body:   []datalog.Literal{lit("p1", V("x"), V("y"))},
			Agg:    datalog.AggCount,
			AggVar: "y",
		})
	case 1:
		rules = append(rules, datalog.Rule{
			Head:   datalog.Atom{Pred: "wsum", Args: []datalog.Term{V("x"), V("v")}},
			Body:   []datalog.Literal{lit("p1", V("x"), V("y")), lit("attr", V("y"), V("v"))},
			Agg:    datalog.AggSum,
			AggVar: "v",
		})
	case 2:
		rules = append(rules, datalog.Rule{
			Head:   datalog.Atom{Pred: "best", Args: []datalog.Term{V("x"), V("v")}},
			Body:   []datalog.Literal{lit("attr", V("x"), V("v"))},
			Agg:    datalog.AggMax,
			AggVar: "v",
		})
	}
	return rules
}

// shadow tracks base-relation contents while generating ops, so deletes
// target tuples that actually exist.
type shadow struct {
	rels map[string][]datalog.Tuple
}

func newShadow() *shadow { return &shadow{rels: map[string][]datalog.Tuple{}} }

func (s *shadow) apply(op datalog.DeltaOp) {
	key := func(t datalog.Tuple) string { return fmt.Sprint(t...) }
	cur := s.rels[op.Pred]
	if op.Del {
		for i, t := range cur {
			if key(t) == key(op.T) {
				s.rels[op.Pred] = append(append([]datalog.Tuple{}, cur[:i]...), cur[i+1:]...)
				return
			}
		}
		return
	}
	for _, t := range cur {
		if key(t) == key(op.T) {
			return
		}
	}
	s.rels[op.Pred] = append(cur, op.T)
}

func randBaseTuple(r *rand.Rand, pred string) datalog.Tuple {
	switch pred {
	case "edge":
		return datalog.Tuple{randConst(r), randConst(r)}
	case "attr":
		return datalog.Tuple{randConst(r), int64(r.Intn(10))}
	default:
		return datalog.Tuple{randConst(r)}
	}
}

// randTicks generates a tick sequence: a seeding tick, then churn ticks
// whose delete probability rises toward the end (delete-heavy DRed tail).
func randTicks(r *rand.Rand) [][]datalog.DeltaOp {
	preds := []string{"edge", "edge", "attr", "node"} // edge-biased
	sh := newShadow()
	var ticks [][]datalog.DeltaOp
	seedN := 8 + r.Intn(7)
	var seed []datalog.DeltaOp
	for i := 0; i < seedN; i++ {
		op := ins(preds[r.Intn(len(preds))])
		op.T = randBaseTuple(r, op.Pred)
		sh.apply(op)
		seed = append(seed, op)
	}
	ticks = append(ticks, seed)
	nTicks := 6 + r.Intn(4)
	for ti := 0; ti < nTicks; ti++ {
		pDel := 0.25
		if ti >= nTicks-3 {
			pDel = 0.6
		}
		var ops []datalog.DeltaOp
		for k := 0; k < 1+r.Intn(5); k++ {
			pred := preds[r.Intn(len(preds))]
			if r.Float64() < pDel && len(sh.rels[pred]) > 0 {
				victim := sh.rels[pred][r.Intn(len(sh.rels[pred]))]
				op := datalog.DeltaOp{Del: true, Pred: pred, T: victim}
				sh.apply(op)
				ops = append(ops, op)
				continue
			}
			op := datalog.DeltaOp{Pred: pred, T: randBaseTuple(r, pred)}
			sh.apply(op)
			ops = append(ops, op)
		}
		ticks = append(ticks, ops)
	}
	return ticks
}

// shardCounts returns the shard counts under test; the CI sharded matrix
// overrides via SHARD_COUNTS (e.g. "1,4").
func shardCounts(t testing.TB) []int {
	env := os.Getenv("SHARD_COUNTS")
	if env == "" {
		return []int{1, 2, 4}
	}
	var out []int
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			t.Fatalf("bad SHARD_COUNTS %q", env)
		}
		out = append(out, n)
	}
	return out
}

// TestShardedDeterminism50Seeds is the 50-seed determinism gate: for each
// seed, a random program (TC shapes, negation, aggregates) and a random
// delete-heavy tick sequence run at every shard count, and every count's
// per-tick relation dumps must be byte-identical to the single-node
// incremental fixpoint (and therefore to each other).
func TestShardedDeterminism50Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed sweep")
	}
	counts := shardCounts(t)
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rules := randShardRules(rand.New(rand.NewSource(seed)))
			ticks := randTicks(rand.New(rand.NewSource(seed ^ 0x5eed)))
			prog, err := datalog.NewProgram(rules...)
			if err != nil {
				t.Fatalf("bad random program: %v", err)
			}
			_ = prog // program validity checked once up front
			want := make([]string, len(ticks))
			for _, n := range counts {
				cprog, err := datalog.NewProgram(rules...)
				if err != nil {
					t.Fatal(err)
				}
				_, dep := newDeployment(t, cprog, tcEDB, n, 1000+seed)
				refRun := newOracle(t, cprog, tcEDB)
				for i, ops := range ticks {
					if err := dep.Submit(ops); err != nil {
						t.Fatalf("n=%d tick %d: %v", n, i, err)
					}
					if !dep.Settle(settleBudget) {
						t.Fatalf("n=%d tick %d did not settle", n, i)
					}
					refRun.tick(t, ops)
					w := refRun.dump(dep.Placement().Preds)
					if want[i] == "" {
						want[i] = w
					} else if want[i] != w {
						t.Fatalf("oracle itself diverged at tick %d", i)
					}
					if got := dep.DumpString(); got != w {
						t.Fatalf("n=%d tick %d diverged from single-node:\n%s\nwant:\n%s", n, i, got, w)
					}
				}
				if err := dep.CheckMirrors(); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

// TestShardedRandomProgramsLocalAndExchanging: the programs
// TestShardedDeterminism50Seeds draws place both local and exchanging
// components, so the sweep runs both.
func TestShardedRandomProgramsLocalAndExchanging(t *testing.T) {
	kinds := map[bool]int{}
	for seed := int64(0); seed < 50; seed++ {
		prog, err := datalog.NewProgram(randShardRules(rand.New(rand.NewSource(seed)))...)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := shard.NewPlacement(prog, tcEDB, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, local := range pl.Local {
			kinds[local]++
		}
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("%d local and %d exchanging components over 50 seeds, want both", kinds[true], kinds[false])
	}
}

// TestPlacementTCStaysSharded pins the placement analysis: the linear TC
// shape is decomposable, so path stays hash-partitioned on the x its
// recursive rule carries and edge is mirrored, while a program with
// negation mirrors the negated closure.
func TestPlacementTCStaysSharded(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := shard.NewPlacement(prog, tcEDB, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Specs["edge"].Mirrored || pl.Specs["path"].Mirrored || pl.Specs["path"].Col != 0 {
		t.Fatalf("TC: edge=%+v path=%+v, want edge mirrored and path sharded on column 0",
			pl.Specs["edge"], pl.Specs["path"])
	}

	negRules := append(append([]datalog.Rule{}, tcRules...), datalog.Rule{
		Head: datalog.Atom{Pred: "dead", Args: []datalog.Term{datalog.V("x")}},
		Body: []datalog.Literal{
			{Atom: datalog.Atom{Pred: "node", Args: []datalog.Term{datalog.V("x")}}},
			{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("x")}}, Negated: true},
		},
	})
	nprog, err := datalog.NewProgram(negRules...)
	if err != nil {
		t.Fatal(err)
	}
	npl, err := shard.NewPlacement(nprog, tcEDB, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"path", "node", "dead"} {
		if !npl.Specs[pred].Mirrored {
			t.Fatalf("%s should be mirrored under negation", pred)
		}
	}
}

// TestDeclaredPartitionHonored pins that hlang-style declared partition
// columns override the compiled hints for rule-free tables.
func TestDeclaredPartitionHonored(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	edb := map[string]int{"edge": 2, "node": 1, "attr": 2, "people": 4}
	pl, err := shard.NewPlacement(prog, edb, 3, map[string]int{"people": 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := pl.Specs["people"]; s.Mirrored || s.Col != 1 {
		t.Fatalf("declared partition ignored: %+v", s)
	}
}

// TestPlacementJoinVotes pins the join-column vote NewPlacement places
// undeclared predicates by: a single-literal body votes for nothing (the
// whole-tuple hash), the TC shape's decomposition overrides the vote (edge
// mirrored, path on column 0), and in a three-literal body the first
// co-literal in body order decides, not the planner's join order.
func TestPlacementJoinVotes(t *testing.T) {
	V := datalog.V
	lit := func(pred string, args ...datalog.Term) datalog.Literal {
		return datalog.Literal{Atom: datalog.Atom{Pred: pred, Args: args}}
	}
	place := func(edb map[string]int, rules ...datalog.Rule) map[string]shard.Spec {
		t.Helper()
		prog, err := datalog.NewProgram(rules...)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := shard.NewPlacement(prog, edb, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pl.Specs
	}

	copyRule := datalog.Rule{Head: datalog.Atom{Pred: "path", Args: []datalog.Term{V("x"), V("y")}}, Body: []datalog.Literal{lit("edge", V("x"), V("y"))}}
	if s := place(tcEDB, copyRule); s["edge"].Col != -1 || s["path"].Col != -1 {
		t.Fatalf("single-literal body: edge=%+v path=%+v, want column -1", s["edge"], s["path"])
	}
	if s := place(tcEDB, tcRules...); !s["edge"].Mirrored || s["path"].Mirrored || s["path"].Col != 0 {
		t.Fatalf("TC: edge=%+v path=%+v, want edge mirrored and path on column 0", s["edge"], s["path"])
	}

	// p(x,z) :- a(x,y), b(y,z), c(x,y). The planner drives a's delta into
	// c first (both of c's columns are bound), which would vote for x;
	// body order reaches b first, which reads y: column 1. Swapping b and
	// c moves a's vote to x, column 0.
	abc := map[string]int{"a": 2, "b": 2, "c": 2}
	head := datalog.Atom{Pred: "p", Args: []datalog.Term{V("x"), V("z")}}
	a, b, c := lit("a", V("x"), V("y")), lit("b", V("y"), V("z")), lit("c", V("x"), V("y"))
	if s := place(abc, datalog.Rule{Head: head, Body: []datalog.Literal{a, b, c}}); s["a"].Col != 1 {
		t.Fatalf("a(x,y), b(y,z), c(x,y): a=%+v, want column 1 (b's y)", s["a"])
	}
	if s := place(abc, datalog.Rule{Head: head, Body: []datalog.Literal{a, c, b}}); s["a"].Col != 0 {
		t.Fatalf("a(x,y), c(x,y), b(y,z): a=%+v, want column 0 (c's x)", s["a"])
	}
}

// TestPlacementDecomposable pins NewPlacement's decomposition rule, which
// shards a linear recursion's head on the column its recursive rules carry
// and mirrors its base inputs, on a right-linear closure (the left-linear
// one is TestPlacementTCStaysSharded's) and on one program per condition
// that it must not decompose; those keep the anchored placement (a
// mirrored spec keeps its voted column).
func TestPlacementDecomposable(t *testing.T) {
	V := datalog.V
	lit := func(pred string, args ...string) datalog.Literal {
		terms := make([]datalog.Term, len(args))
		for i, a := range args {
			terms[i] = V(a)
		}
		return datalog.Literal{Atom: datalog.Atom{Pred: pred, Args: terms}}
	}
	rule := func(head datalog.Literal, body ...datalog.Literal) datalog.Rule {
		return datalog.Rule{Head: head.Atom, Body: body}
	}
	blocked := lit("blocked", "x", "y")
	blocked.Negated = true
	for _, tc := range []struct {
		name  string
		rules []datalog.Rule
		want  map[string]shard.Spec
	}{
		{"right-linear", []datalog.Rule{
			rule(lit("path", "x", "y"), lit("edge", "x", "y")),
			rule(lit("path", "x", "z"), lit("edge", "x", "y"), lit("path", "y", "z")),
		}, map[string]shard.Spec{"path": {Col: 1}, "edge": {Mirrored: true, Col: 1}}},
		{"negated", []datalog.Rule{
			rule(lit("path", "x", "y"), lit("edge", "x", "y"), blocked),
			rule(lit("path", "x", "z"), lit("path", "x", "y"), lit("edge", "y", "z")),
		}, map[string]shard.Spec{"path": {Mirrored: true, Col: 1}, "edge": {Mirrored: true, Col: 0}, "blocked": {Mirrored: true, Col: -1}}},
		{"nonlinear", []datalog.Rule{
			rule(lit("path", "x", "y"), lit("edge", "x", "y")),
			rule(lit("path", "x", "z"), lit("path", "x", "y"), lit("path", "y", "z")),
		}, map[string]shard.Spec{"path": {Mirrored: true, Col: 0}, "edge": {Col: -1}}},
		{"same-generation", []datalog.Rule{
			rule(lit("sg", "x", "y"), lit("flat", "x", "y")),
			rule(lit("sg", "x", "y"), lit("up", "x", "a"), lit("sg", "a", "b"), lit("down", "b", "y")),
		}, map[string]shard.Spec{"sg": {Col: 0}, "up": {Col: 1}, "down": {Mirrored: true, Col: 0}, "flat": {Col: -1}}},
		{"derived-input", []datalog.Rule{
			rule(lit("link", "x", "y"), lit("edge", "x", "y")),
			rule(lit("path", "x", "y"), lit("link", "x", "y")),
			rule(lit("path", "x", "z"), lit("path", "x", "y"), lit("link", "y", "z")),
		}, map[string]shard.Spec{"path": {Col: 1}, "link": {Col: 0}, "edge": {Col: -1}}},
		{"two-heads", []datalog.Rule{
			rule(lit("odd", "x", "y"), lit("edge", "x", "y")),
			rule(lit("odd", "x", "z"), lit("even", "x", "y"), lit("edge", "y", "z")),
			rule(lit("even", "x", "z"), lit("odd", "x", "y"), lit("edge", "y", "z")),
		}, map[string]shard.Spec{"odd": {Col: 1}, "even": {Col: 1}, "edge": {Col: 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := datalog.NewProgram(tc.rules...)
			if err != nil {
				t.Fatal(err)
			}
			edb := map[string]int{"edge": 2, "blocked": 2, "flat": 2, "up": 2, "down": 2}
			pl, err := shard.NewPlacement(prog, edb, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			for pred, want := range tc.want {
				if got := pl.Specs[pred]; got != want {
					t.Errorf("%s placed %+v, want %+v", pred, got, want)
				}
			}
		})
	}
}

// TestPlacementLocal pins which components NewPlacement marks local, per
// component in Components order: those where, in every rule, each sharded
// body literal holds the head's partition variable at its own partition
// column, and a mirrored head reads only mirrored relations. One program
// per clause: a decomposed closure over base edge (on 3 replicas and on
// 1), a negation, which mirrors the closure it reads, and an aggregate
// (everything mirrored), a join over mirrored edge, a join anchored on the
// head's column and one that is not, a mirrored head over a sharded body
// (nonlinear closure), and a body literal on a column hash against one
// hashed whole (Col −1).
func TestPlacementLocal(t *testing.T) {
	dead := datalog.Rule{
		Head: datalog.Atom{Pred: "dead", Args: []datalog.Term{datalog.V("x")}},
		Body: []datalog.Literal{
			{Atom: datalog.Atom{Pred: "node", Args: []datalog.Term{datalog.V("x")}}},
			{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("x")}}, Negated: true},
		},
	}
	best := datalog.Rule{Head: atom("best", "x", "v"), Body: []datalog.Literal{{Atom: atom("attr", "x", "v")}}, Agg: datalog.AggMax, AggVar: "v"}
	sym := rule(atom("sym", "x", "y"), atom("edge", "x", "y"), atom("edge", "y", "x"))
	p := rule(atom("p", "x"), atom("node", "x"))
	copyEdge := []datalog.Rule{rule(atom("copy", "x", "y"), atom("edge", "x", "y"))}
	for _, tc := range []struct {
		name     string
		rules    []datalog.Rule
		n        int
		declared map[string]int
		want     map[string]bool // per head, its component's Local
	}{
		{"decomposed", tcRules, 3, nil, map[string]bool{"path": true}},
		{"decomposed-one-replica", tcRules, 1, nil, map[string]bool{"path": true}},
		{"mirrored-by-negation", append(append([]datalog.Rule{}, tcRules...), dead), 3, nil, map[string]bool{"path": true, "dead": true}},
		{"aggregate", []datalog.Rule{best}, 3, nil, map[string]bool{"best": true}},
		{"mirrored-join", append(append([]datalog.Rule{}, tcRules...), sym), 3, nil, map[string]bool{"path": true, "sym": true}},
		{"anchored-join", []datalog.Rule{p, rule(atom("q", "x"), atom("p", "x"), atom("attr", "x", "v"))}, 3, map[string]int{"q": 0}, map[string]bool{"p": false, "q": true}},
		{"unanchored-join", []datalog.Rule{p, rule(atom("q", "v"), atom("p", "x"), atom("attr", "x", "v"))}, 3, map[string]int{"q": 0}, map[string]bool{"p": false, "q": false}},
		{"nonlinear", nonlinearTC(t).Rules, 3, nil, map[string]bool{"path": false}},
		{"derived-input", linkRules, 3, nil, map[string]bool{"link": false, "path": false}},
		{"column-hash", copyEdge, 3, map[string]int{"copy": 0, "edge": 0}, map[string]bool{"copy": true}},
		{"whole-tuple-hash", copyEdge, 3, map[string]int{"copy": 0, "edge": -1}, map[string]bool{"copy": false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := datalog.NewProgram(tc.rules...)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := shard.NewPlacement(prog, tcEDB, tc.n, tc.declared)
			if err != nil {
				t.Fatal(err)
			}
			if len(pl.Local) != len(prog.Components()) {
				t.Fatalf("Local %v for %d components", pl.Local, len(prog.Components()))
			}
			for head, want := range tc.want {
				if got := pl.Local[compOf(t, prog, head)]; got != want {
					t.Errorf("%s's component local %v, want %v (placement %+v)", head, got, want, pl.Specs)
				}
			}
		})
	}
}
