package hydrolysis

import (
	"fmt"
	"strings"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/durable"
	"hydro/internal/shard"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// vaccinateThree adds people 1..3 and vaccinates each, one tick per
// request, as a serving shell ticks the serializable vaccinate.
func vaccinateThree(t *testing.T, rt *transducer.Runtime) {
	t.Helper()
	for pid := int64(1); pid <= 3; pid++ {
		rt.Inject("add_person", datalog.Tuple{pid, "us"})
		rt.RunUntilIdle(10)
	}
	for pid := int64(1); pid <= 3; pid++ {
		rt.Inject("vaccinate", datalog.Tuple{pid})
		rt.RunUntilIdle(10)
		if err := rt.LastRejection(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Var("vaccine_count"); got != int64(97) {
		t.Fatalf("live vaccine_count = %v, want 97", got)
	}
}

// TestVarRecoveredFromDurableStore: a variable is a row of the runtime
// database, so a durable store journals its assigns and recovery brings it
// back with the tables, from the changelog alone and through a snapshot.
func TestVarRecoveredFromDurableStore(t *testing.T) {
	c := compileCovid(t)
	for _, every := range []int{0, 2} {
		dir := t.TempDir()
		opts := durable.Options{Dir: dir, SnapshotEveryRecords: every}
		store, err := durable.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := c.Instantiate("live", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.RecoverQueriesIncremental(c.Queries, store.Recover); err != nil {
			t.Fatal(err)
		}
		if err := rt.SetDurability(store); err != nil {
			t.Fatal(err)
		}
		vaccinateThree(t, rt)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}

		if store, err = durable.Open(opts); err != nil {
			t.Fatal(err)
		}
		rec, err := c.Instantiate("recovered", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RecoverQueriesIncremental(c.Queries, store.Recover); err != nil {
			t.Fatal(err)
		}
		if got := rec.Var("vaccine_count"); got != int64(97) {
			t.Errorf("SnapshotEveryRecords %d: recovered vaccine_count = %v, want 97", every, got)
		}
		if got, want := fmt.Sprint(rec.Table("people").Tuples()), fmt.Sprint(rt.Table("people").Tuples()); got != want {
			t.Errorf("SnapshotEveryRecords %d: recovered people %s, live %s", every, got, want)
		}
		store.Close()
	}
}

// TestVarRowsReachShardedDeployment: the sharded tee carries assigns like
// any table write, so a settled deployment holds the runtime's variable
// rows.
func TestVarRowsReachShardedDeployment(t *testing.T) {
	c := compileCovid(t)
	cl := cluster.New(cluster.NewTopology(3, 2, 2, cluster.ClassSmall), simnet.DefaultConfig(1))
	dep, err := c.InstantiateSharded(cl, "covid", 3, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetDurability(shard.NewSink(dep)); err != nil {
		t.Fatal(err)
	}
	vaccinateThree(t, rt)
	if !dep.Settle(200000) {
		t.Fatalf("deployment did not settle: %v", dep.Err())
	}
	got := fmt.Sprint(dep.Dump()[transducer.VarRelation])
	if got != "[(vaccine_count, 97)]" {
		t.Fatalf("deployment holds %s rows %s, want [(vaccine_count, 97)]", transducer.VarRelation, got)
	}
	if want := fmt.Sprint(rt.Table(transducer.VarRelation).Tuples()); got != want {
		t.Fatalf("deployment holds %s rows %s, the runtime %s", transducer.VarRelation, got, want)
	}
}

// typedVarsSource's mistyped values are sums, which hlang.Check does not
// type, so they reach the run-time check.
const typedVarsSource = `
table t(k: float, v: int) key(k)
table u(k: int, v: int) key(k)
var n: int
var f: float = 3

on set_n(x: float) { n := x + 0 }
on set_f(x: int) { f := x }
on put(x: int) { merge t(x, 7) merge u(x, 7) }
on read(x: int) { reply t[x].v }
on drop_t(x: int) { delete t(x) }
on drop_u(x: float) { delete u(x + 0) }
`

func typedVarsRuntime(t *testing.T) *transducer.Runtime {
	t.Helper()
	c, err := Compile(typedVarsSource, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestAssignIsTyped: a variable holds values of its declared type. An
// initializer is typed as a column is (an int literal initializes a float
// as float64), an assign of a value not of the type aborts the invocation,
// and one of a convertible kind stores the declared kind.
func TestAssignIsTyped(t *testing.T) {
	rt := typedVarsRuntime(t)
	rt.Inject("set_n", datalog.Tuple{2.5})
	rt.RunUntilIdle(10)
	if got := rt.Var("n"); got != int64(0) || rt.Stats().Aborted != 1 {
		t.Fatalf("n := 2.5 into var n: int left n = %v with %d aborted, want 0 and 1", got, rt.Stats().Aborted)
	}
	if got := rt.Var("f"); got != float64(3) {
		t.Fatalf("var f: float = 3 holds %T %v, want float64 3", got, got)
	}
	rt.Inject("set_f", datalog.Tuple{int64(4)})
	rt.RunUntilIdle(10)
	if got := rt.Var("f"); got != float64(4) {
		t.Fatalf("f := 4 holds %T %v, want float64 4", got, got)
	}
}

// TestMistypedVarInitFailsCompile: an initializer not of its variable's
// type is a compile error, not a value the runtime holds.
func TestMistypedVarInitFailsCompile(t *testing.T) {
	for _, decl := range []string{`var n: int = 2.5`, `var n: int = "oops"`, `var b: bool = 1`} {
		_, err := Compile(decl+"\n", Options{})
		if err == nil || !strings.Contains(err.Error(), "not of type") {
			t.Errorf("%s compiled: %v", decl, err)
		}
	}
}

// TestKeysAreTyped: a key a handler reads or deletes by is typed against
// its key column as merged values are, so an int argument finds the row a
// merge stored under a float key, and a float argument to an int key
// aborts instead of silently matching nothing.
func TestKeysAreTyped(t *testing.T) {
	rt := typedVarsRuntime(t)
	rt.Inject("put", datalog.Tuple{int64(1)})
	rt.RunUntilIdle(10)
	id := rt.Inject("read", datalog.Tuple{int64(1)})
	rt.RunUntilIdle(10)
	if got := rt.Drain("read<response>"); len(got) != 1 || fmt.Sprint(got[0].Payload) != fmt.Sprint(datalog.Tuple{id, int64(7)}) {
		t.Fatalf("t[1].v replied %v, want 7", got)
	}
	rt.Inject("drop_t", datalog.Tuple{int64(1)})
	rt.RunUntilIdle(10)
	if n := rt.Table("t").Len(); n != 0 {
		t.Fatalf("delete t(1) left %v", rt.Table("t").Tuples())
	}
	rt.Inject("drop_u", datalog.Tuple{1.5})
	rt.RunUntilIdle(10)
	if got := rt.Stats().Aborted; got != 1 || rt.Table("u").Len() != 1 {
		t.Fatalf("delete u(1.5) on an int key: %d aborted, u = %v; want 1 and the row kept", got, rt.Table("u").Tuples())
	}
}
