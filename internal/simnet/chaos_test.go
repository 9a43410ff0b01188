// Chaos tests: the soak properties must survive infrastructure failure,
// not just delivery-order scrambling. Replicas run the applications in
// cross-tick incremental mode under seed-random latencies while whole
// failure domains go down mid-run and recover; after clients re-deliver
// (the ops are idempotent), every replica — including the one that lost
// in-flight traffic — must reconverge to the reference fixpoint.
package simnet_test

import (
	"fmt"
	"sort"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/shard"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// covidReplicaState renders one replica's observable quiesced state:
// tables plus post-quiescence trace probes (the way applications observe
// the derived transitive closure).
func covidReplicaState(rt *transducer.Runtime) string {
	for pid := int64(0); pid < 10; pid += 3 {
		rt.Inject("trace", datalog.Tuple{pid})
	}
	rt.RunUntilIdle(50)
	var traces []string
	for _, m := range rt.Drain("trace_response") {
		traces = append(traces, fmt.Sprint(m.Payload))
	}
	sort.Strings(traces)
	return fmt.Sprint(
		rt.Table("people").Tuples(),
		rt.Table("contacts").Tuples(),
		traces,
	)
}

// TestCovidChaosFailRecoverReconverges: three COVID replicas (incremental
// mode, one per AZ) receive the soak op set over a lossy-ordered network;
// mid-delivery an entire AZ fails, taking its undelivered traffic with it.
// After recovery the client re-broadcasts the full idempotent op set, and
// every replica — the failed one included — must reach exactly the
// reference fixpoint computed on an undisturbed runtime.
func TestCovidChaosFailRecoverReconverges(t *testing.T) {
	compile := func() *hydrolysis.Compiled {
		c, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
			UDFs: map[string]hydrolysis.UDF{
				"covid_predict": func(args []any) any { return 0.5 },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Reference: one undisturbed replica fed directly.
	ref, err := compile().Instantiate("ref", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range covidOpSet() {
		ref.Inject(op.box, op.payload)
	}
	ref.RunUntilIdle(200)
	baseline := covidReplicaState(ref)

	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		topo := cluster.NewTopology(3, 1, 1, cluster.ClassSmall)
		cl := cluster.New(topo, simnet.Config{Seed: seed, MinLatency: 50, MaxLatency: 8000})
		var machines []string
		for _, m := range topo.Machines {
			rt, err := compile().Instantiate(m.ID, seed)
			if err != nil {
				t.Fatal(err)
			}
			cl.Host(m.ID, rt)
			machines = append(machines, m.ID)
		}
		cl.Net.AddNode("client", func(now simnet.Time, msg simnet.Message) {})
		broadcast := func() {
			for _, op := range covidOpSet() {
				for _, m := range machines {
					cl.Net.Send("client", m, transducer.Message{Mailbox: op.box, Payload: op.payload, From: "external"})
				}
			}
		}

		broadcast()
		cl.RunRounds(3, 500) // some traffic lands, most is still in flight
		failed := cl.FailDomain(cluster.AZ, "az2")
		if len(failed) != 1 {
			t.Fatalf("seed %d: failed machines = %v, want exactly az2's", seed, failed)
		}
		cl.RunRounds(20, 500) // the survivors drain while az2 drops traffic
		if cl.Net.Stats().Blocked == 0 {
			t.Fatalf("seed %d: failure window dropped no traffic — the chaos test isn't chaotic", seed)
		}
		for _, m := range failed {
			cl.Recover(m)
		}
		broadcast() // idempotent redelivery covers everything az2 lost
		for i := 0; i < 100; i++ {
			cl.Round(500)
		}
		for _, m := range machines {
			rt := cl.Runtime(m)
			rt.RunUntilIdle(200)
			if got := covidReplicaState(rt); got != baseline {
				t.Fatalf("seed %d: replica %s did not reconverge after fail/recover\nbaseline: %s\ngot:      %s",
					seed, m, baseline, got)
			}
		}
	}
}

// chaosGraphRuntime builds an incremental transducer maintaining the
// transitive closure of an edge table, with idempotent add/del handlers —
// the delete path exercises DRed maintenance under chaos.
func chaosGraphRuntime(t *testing.T, name string, seed int64) *transducer.Runtime {
	t.Helper()
	rt := transducer.New(name, seed)
	rt.RegisterTable(transducer.TableSchema{Name: "edge", Arity: 2})
	prog, err := datalog.NewProgram(
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}},
			Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
		},
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("z")}},
			Body: []datalog.Literal{
				{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
				{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("y"), datalog.V("z")}}},
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterQueriesIncremental(prog); err != nil {
		t.Fatal(err)
	}
	rt.RegisterHandler("add_edge", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("edge", msg.Payload)
	})
	rt.RegisterHandler("del_edge", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Delete("edge", msg.Payload)
	})
	return rt
}

// TestIncrementalDeleteChaosReconverges: replicated incremental closures
// under retraction traffic with a mid-run failure. Phase one builds chained
// and cyclic edges on every replica and quiesces; phase two retracts a
// cross-section of them (cycle cuts included) while one replica fails,
// recovers, and has the retractions re-delivered. Every replica's
// maintained fixpoint must equal a from-scratch evaluation of the final
// edge set — deletions under chaos may not leave phantom paths behind.
func TestIncrementalDeleteChaosReconverges(t *testing.T) {
	var adds, dels []datalog.Tuple
	for i := int64(0); i < 12; i++ { // chain 0..12
		adds = append(adds, datalog.Tuple{i, i + 1})
	}
	for i := int64(20); i < 26; i++ { // cycle 20..25→20
		adds = append(adds, datalog.Tuple{i, i + 1})
	}
	adds = append(adds, datalog.Tuple{int64(26), int64(20)},
		datalog.Tuple{int64(3), int64(21)}) // bridge into the cycle
	// Retract a mid-chain edge, the bridge, and cut the cycle.
	dels = append(dels,
		datalog.Tuple{int64(5), int64(6)},
		datalog.Tuple{int64(3), int64(21)},
		datalog.Tuple{int64(23), int64(24)},
	)

	// Reference fixpoint over the final edge set.
	refDB := datalog.NewDatabase()
	edge := refDB.Ensure("edge", 2)
	for _, tup := range adds {
		edge.Insert(tup)
	}
	for _, tup := range dels {
		edge.Delete(tup)
	}
	refProg, err := datalog.NewProgram(
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}},
			Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
		},
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("z")}},
			Body: []datalog.Literal{
				{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
				{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("y"), datalog.V("z")}}},
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datalog.NewIncremental(refProg, refDB); err != nil {
		t.Fatal(err)
	}
	wantPath := fmt.Sprint(refDB.Get("path").Tuples())
	wantEdge := fmt.Sprint(refDB.Get("edge").Tuples())

	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		topo := cluster.NewTopology(2, 1, 1, cluster.ClassSmall)
		cl := cluster.New(topo, simnet.Config{Seed: seed, MinLatency: 50, MaxLatency: 4000})
		var machines []string
		for _, m := range topo.Machines {
			cl.Host(m.ID, chaosGraphRuntime(t, m.ID, seed))
			machines = append(machines, m.ID)
		}
		cl.Net.AddNode("client", func(now simnet.Time, msg simnet.Message) {})
		send := func(box string, tuples []datalog.Tuple) {
			for _, tup := range tuples {
				for _, m := range machines {
					cl.Net.Send("client", m, transducer.Message{Mailbox: box, Payload: tup, From: "external"})
				}
			}
		}

		// Phase one: build the graph everywhere and quiesce (adds and
		// deletes must not race — retraction order against insertion is not
		// confluent).
		send("add_edge", adds)
		for i := 0; i < 60; i++ {
			cl.Round(500)
		}
		for _, m := range machines {
			cl.Runtime(m).RunUntilIdle(100)
		}

		// Phase two: retraction traffic with a mid-run failure.
		send("del_edge", dels)
		cl.RunRounds(2, 500)
		failed := cl.FailDomain(cluster.AZ, "az2")
		cl.RunRounds(15, 500)
		for _, m := range failed {
			cl.Recover(m)
		}
		send("del_edge", dels) // idempotent redelivery
		for i := 0; i < 60; i++ {
			cl.Round(500)
		}
		for _, m := range machines {
			rt := cl.Runtime(m)
			rt.RunUntilIdle(100)
			if got := fmt.Sprint(rt.Table("edge").Tuples()); got != wantEdge {
				t.Fatalf("seed %d: replica %s edge set diverged\nwant: %s\ngot:  %s", seed, m, wantEdge, got)
			}
			if got := fmt.Sprint(rt.Table("path").Tuples()); got != wantPath {
				t.Fatalf("seed %d: replica %s maintained closure diverged from reference\nwant: %s\ngot:  %s", seed, m, wantPath, got)
			}
		}
	}
}

// ---- Sharded-dataflow chaos: the distributed fixpoint under churn ----

var shardTCRules = []datalog.Rule{
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

// shardOracle folds realized versions of the same raw ops into a
// single-node incremental fixpoint.
type shardOracle struct {
	inc *datalog.Incremental
}

func newShardOracle(t *testing.T, rules []datalog.Rule, edb map[string]int) *shardOracle {
	t.Helper()
	prog, err := datalog.NewProgram(rules...)
	if err != nil {
		t.Fatal(err)
	}
	db := datalog.NewDatabase()
	for pred, ar := range edb {
		db.Ensure(pred, ar)
	}
	inc, err := datalog.NewIncremental(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	return &shardOracle{inc: inc}
}

func (o *shardOracle) tick(t *testing.T, ops []datalog.DeltaOp) {
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
		t.Fatal(err)
	}
}

func edgeIns(a, b int64) datalog.DeltaOp {
	return datalog.DeltaOp{Pred: "edge", T: datalog.Tuple{a, b}}
}

func edgeDel(a, b int64) datalog.DeltaOp {
	return datalog.DeltaOp{Del: true, Pred: "edge", T: datalog.Tuple{a, b}}
}

// TestShardedTCChaosFailRecoverReconverges: a 3-replica hash-partitioned
// transitive-closure deployment (one replica per AZ, placed by
// SpreadAcross) loses a whole AZ mid-tick — in-flight exchange traffic
// and coordinator requests with it — and again during a delete-heavy tick
// whose DRed retractions cross shard boundaries. The coordinator's
// attempt-retry protocol redelivers after each Recover, and the sharded
// fixpoint must land byte-identical to the single-node oracle.
func TestShardedTCChaosFailRecoverReconverges(t *testing.T) {
	edb := map[string]int{"edge": 2}
	prog, err := datalog.NewProgram(shardTCRules...)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewTopology(3, 2, 2, cluster.ClassSmall)
	cl := cluster.New(topo, simnet.DefaultConfig(4242))
	machines, err := topo.SpreadAcross(cluster.AZ, 3)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := shard.Deploy(cl, "tcchaos", prog, edb, machines, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := newShardOracle(t, shardTCRules, edb)

	check := func(stage string) {
		t.Helper()
		want := shard.DumpDatabase(ref.inc.DB(), dep.Placement().Preds)
		if got := dep.DumpString(); got != want {
			t.Fatalf("%s: sharded diverged:\n%s\nwant:\n%s", stage, got, want)
		}
		if err := dep.CheckMirrors(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	// Tick 1: build a chain crossing every shard, undisturbed.
	t1 := []datalog.DeltaOp{edgeIns(1, 2), edgeIns(2, 3), edgeIns(3, 4), edgeIns(4, 5), edgeIns(5, 6)}
	if err := dep.Submit(t1); err != nil {
		t.Fatal(err)
	}
	if !dep.Settle(400_000) {
		t.Fatal("tick 1 did not settle")
	}
	ref.tick(t, t1)
	check("tick 1")

	// Tick 2: submit, then take out an entire replica AZ before the tick
	// can finish. The protocol must stall, not corrupt.
	t2 := []datalog.DeltaOp{edgeIns(6, 7), edgeIns(7, 1)}
	if err := dep.Submit(t2); err != nil {
		t.Fatal(err)
	}
	az := topo.Get(machines[1]).AZ
	failed := cl.FailDomain(cluster.AZ, az)
	if len(failed) == 0 {
		t.Fatalf("FailDomain(%s) failed nothing", az)
	}
	cl.Net.RunUntil(cl.Net.Now() + 5_000_000) // 5s of retries against a dead AZ
	ref.tick(t, t2)
	if dep.DumpString() == shard.DumpDatabase(ref.inc.DB(), dep.Placement().Preds) {
		t.Log("tick 2 completed before the AZ failure bit (timing-dependent, fine)")
	}
	for _, id := range failed {
		cl.Recover(id)
	}
	if !dep.Settle(400_000) {
		t.Fatal("tick 2 did not settle after recovery")
	}
	check("tick 2 after recovery")

	// Tick 3: delete-heavy — cutting (3,4) and (7,1) retracts closure
	// tuples owned by every shard — with a different AZ failing mid-tick.
	t3 := []datalog.DeltaOp{edgeDel(3, 4), edgeDel(7, 1), edgeIns(3, 7)}
	if err := dep.Submit(t3); err != nil {
		t.Fatal(err)
	}
	az2 := topo.Get(machines[2]).AZ
	failed = cl.FailDomain(cluster.AZ, az2)
	cl.Net.RunUntil(cl.Net.Now() + 5_000_000)
	for _, id := range failed {
		cl.Recover(id)
	}
	if !dep.Settle(400_000) {
		t.Fatal("tick 3 did not settle after recovery")
	}
	ref.tick(t, t3)
	check("tick 3 delete-heavy after recovery")
}

// TestShardedTCFlappingLinksChurn: instead of clean fail/recover cycles,
// the links between the coordinator and replicas (and between replica
// pairs) flap repeatedly while ticks are in flight. Dropped requests,
// dropped exchange batches, and dropped acks all look the same to the
// coordinator — a stalled attempt — and every flap-heal cycle must end
// with the deployment reconverging to the oracle.
func TestShardedTCFlappingLinksChurn(t *testing.T) {
	edb := map[string]int{"edge": 2}
	prog, err := datalog.NewProgram(shardTCRules...)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewTopology(3, 2, 2, cluster.ClassSmall)
	cl := cluster.New(topo, simnet.DefaultConfig(777))
	machines, err := topo.SpreadAcross(cluster.AZ, 3)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := shard.Deploy(cl, "tcflap", prog, edb, machines, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := newShardOracle(t, shardTCRules, edb)

	ticks := [][]datalog.DeltaOp{
		{edgeIns(1, 2), edgeIns(2, 3), edgeIns(3, 4)},
		{edgeIns(4, 5), edgeIns(5, 1)},
		{edgeDel(2, 3), edgeIns(2, 5)},
		{edgeDel(5, 1), edgeDel(3, 4), edgeIns(4, 1)},
	}
	for i, ops := range ticks {
		if err := dep.Submit(ops); err != nil {
			t.Fatal(err)
		}
		// Flap a rotating set of links while the tick runs: the acting
		// leader to one replica, plus one replica pair. The leader is
		// looked up per flap — the control plane is replicated now, and a
		// flap that costs the leader its lease moves the target.
		for flap := 0; flap < 3; flap++ {
			coord := dep.Leader()
			a := machines[(i+flap)%len(machines)]
			b := machines[(i+flap+1)%len(machines)]
			cl.Net.Partition(coord, a)
			cl.Net.Partition(a, b)
			cl.Net.RunUntil(cl.Net.Now() + 1_500_000) // 1.5s partitioned
			cl.Net.Heal(coord, a)
			cl.Net.Heal(a, b)
			cl.Net.RunUntil(cl.Net.Now() + 500_000)
		}
		if !dep.Settle(400_000) {
			t.Fatalf("tick %d did not settle after churn", i)
		}
		ref.tick(t, ops)
		want := shard.DumpDatabase(ref.inc.DB(), dep.Placement().Preds)
		if got := dep.DumpString(); got != want {
			t.Fatalf("tick %d diverged after churn:\n%s\nwant:\n%s", i, got, want)
		}
		if err := dep.CheckMirrors(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
}

// TestShardedCovidChaosConverges runs the paper's COVID workload through
// the compiled pipeline: hydrolysis compiles Fig 3's source, the declared
// partition(country) column shards `people`, the transitive-closure query
// rules shard `contacts`, and the deployment survives an AZ failure during
// a tick that retracts contact edges (cross-shard DRed on the contact
// graph's closure).
func TestShardedCovidChaosConverges(t *testing.T) {
	compiled, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{
			"covid_predict": func(args []any) any { return 0.5 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewTopology(3, 2, 2, cluster.ClassSmall)
	cl := cluster.New(topo, simnet.DefaultConfig(2021))
	dep, err := compiled.InstantiateSharded(cl, "covid", 3, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := dep.Placement().Specs["people"]; s.Mirrored || s.Col != 1 {
		t.Fatalf("people should shard on declared partition(country): %+v", s)
	}

	// Single-node oracle over an independently compiled copy of the same
	// query program.
	refCompiled, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{
			"covid_predict": func(args []any) any { return 0.5 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	refDB := datalog.NewDatabase()
	for _, tb := range refCompiled.Program.Tables {
		refDB.Ensure(tb.Name, tb.Arity())
	}
	inc, err := datalog.NewIncremental(refCompiled.Queries, refDB)
	if err != nil {
		t.Fatal(err)
	}
	refTick := func(ops []datalog.DeltaOp) {
		delta := datalog.NewDelta()
		for _, op := range ops {
			rel := refDB.Get(op.Pred)
			if op.Del {
				if rel.Delete(op.T) {
					delta.Delete(op.Pred, op.T)
				}
			} else if rel.Insert(op.T) {
				delta.Insert(op.Pred, op.T)
			}
		}
		if _, err := inc.Apply(delta); err != nil {
			t.Fatal(err)
		}
	}

	person := func(pid int64, country string) datalog.DeltaOp {
		return datalog.DeltaOp{Pred: "people", T: datalog.Tuple{pid, country, false, false}}
	}
	contact := func(a, b int64) datalog.DeltaOp {
		return datalog.DeltaOp{Pred: "contacts", T: datalog.Tuple{a, b}}
	}
	uncontact := func(a, b int64) datalog.DeltaOp {
		return datalog.DeltaOp{Del: true, Pred: "contacts", T: datalog.Tuple{a, b}}
	}

	ticks := [][]datalog.DeltaOp{
		{person(1, "is"), person(2, "nz"), person(3, "is"), person(4, "us"),
			contact(1, 2), contact(2, 1), contact(2, 3), contact(3, 2)},
		{person(5, "nz"), contact(3, 4), contact(4, 3), contact(4, 5), contact(5, 4)},
		{uncontact(2, 3), uncontact(3, 2), contact(1, 5), contact(5, 1)},
	}
	for i, ops := range ticks {
		if err := dep.Submit(ops); err != nil {
			t.Fatal(err)
		}
		if i == 2 { // AZ failure during the retraction tick
			az := topo.Get(dep.Replicas()[0]).AZ
			failed := cl.FailDomain(cluster.AZ, az)
			cl.Net.RunUntil(cl.Net.Now() + 4_000_000)
			for _, id := range failed {
				cl.Recover(id)
			}
		}
		if !dep.Settle(400_000) {
			t.Fatalf("covid tick %d did not settle", i)
		}
		refTick(ops)
		want := shard.DumpDatabase(refDB, dep.Placement().Preds)
		if got := dep.DumpString(); got != want {
			t.Fatalf("covid tick %d diverged:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if err := dep.CheckMirrors(); err != nil {
		t.Fatal(err)
	}
}
