// Randomized soak tests for the CALM confluence claims: the example
// applications' final fixpoints must be independent of message delivery
// order. Each seed draws different network latencies (and transducer send
// delays), scrambling arrival order; the observable end state must match
// the seed-0 baseline exactly, so the soak also exercises incremental
// maintenance under adversarial delivery.
package simnet_test

import (
	"fmt"
	"sort"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// covidOps is the fixed operation set delivered in seed-scrambled order:
// unique pids per add_person (first-writer-wins columns stay
// order-independent), monotone contact merges, and or-lattice diagnoses.
type covidOp struct {
	box     string
	payload datalog.Tuple
}

func covidOpSet() []covidOp {
	var ops []covidOp
	countries := []string{"us", "fr", "in"}
	for pid := int64(0); pid < 10; pid++ {
		ops = append(ops, covidOp{"add_person", datalog.Tuple{pid, countries[pid%3]}})
	}
	for i := int64(0); i < 9; i++ {
		ops = append(ops, covidOp{"add_contact", datalog.Tuple{i, i + 1}})
	}
	ops = append(ops,
		covidOp{"add_contact", datalog.Tuple{int64(2), int64(7)}},
		covidOp{"diagnosed", datalog.Tuple{int64(0)}},
		covidOp{"diagnosed", datalog.Tuple{int64(5)}},
	)
	return ops
}

// covidFinalState delivers the op set over a simulated network with
// seed-dependent latencies and returns a rendering of the quiesced
// observable state: tables plus post-quiescence trace probes.
func covidFinalState(t *testing.T, seed int64) string {
	t.Helper()
	c, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{
			"covid_predict": func(args []any) any { return 0.5 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("n1", seed)
	if err != nil {
		t.Fatal(err)
	}

	topo := cluster.NewTopology(1, 1, 1, cluster.ClassSmall)
	machine := topo.Machines[0].ID
	cl := cluster.New(topo, simnet.Config{Seed: seed, MinLatency: 50, MaxLatency: 8000})
	cl.Host(machine, rt)
	cl.Net.AddNode("client", func(now simnet.Time, msg simnet.Message) {})
	for _, op := range covidOpSet() {
		cl.Net.Send("client", machine, transducer.Message{Mailbox: op.box, Payload: op.payload, From: "external"})
	}
	// Interleave network delivery with ticks until everything quiesces.
	for i := 0; i < 100; i++ {
		cl.Round(500)
	}
	rt.RunUntilIdle(100)

	// Post-quiescence probes: the derived transitive closure, observed the
	// way applications observe it (trace fan-out), as payload multisets.
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

// TestCovidConfluenceUnderRandomDelays: for many seeds, scrambled delivery
// must converge to the seed-0 baseline state — the paper's CALM claim for
// the monotone COVID ops.
func TestCovidConfluenceUnderRandomDelays(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	baseline := covidFinalState(t, 0)
	for seed := int64(1); seed < seeds; seed++ {
		if got := covidFinalState(t, seed); got != baseline {
			t.Fatalf("seed %d: final state depends on delivery order\nbaseline: %s\ngot:      %s",
				seed, baseline, got)
		}
	}
}

// TestCartGossipConfluence: the compiled cart (hlang.CartSource) on four
// hosted replicas, updated on different replicas and spread by three
// rounds of all-to-all anti-entropy over seed-random latencies and send
// delays, must converge to the same items on every replica in every
// delivery order; a client-side seal of those items then checks out on
// every replica without coordination (§7.1).
func TestCartGossipConfluence(t *testing.T) {
	c, err := hydrolysis.Compile(hlang.CartSource, hydrolysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	adds := []struct {
		replica int
		item    string
		qty     int64
	}{{0, "book", 1}, {0, "pen", 2}, {1, "book", 1}, {2, "mug", 3}, {2, "pen", 1}}
	var baseline string
	for seed := int64(0); seed < 12; seed++ {
		topo := cluster.NewTopology(1, 1, 4, cluster.ClassSmall)
		cl := cluster.New(topo, simnet.Config{Seed: seed, MinLatency: 50, MaxLatency: 900})
		var replicas []*transducer.Runtime
		for i, m := range topo.Machines {
			rt, err := c.Instantiate(m.ID, seed*10+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			cl.Host(m.ID, rt)
			replicas = append(replicas, rt)
		}
		cl.Net.AddNode("client", func(now simnet.Time, msg simnet.Message) {})
		send := func(to *transducer.Runtime, box string, args ...any) {
			cl.Net.Send("client", to.Name, transducer.Message{Mailbox: box, Payload: args, From: "client"})
		}
		for _, a := range adds {
			send(replicas[a.replica], "add", "cart", a.item, a.qty)
		}
		// Each round every replica pushes its items to every other; rounds
		// are spaced beyond the maximum latency, arrival order within one
		// is seed-random.
		for round := 0; round < 3; round++ {
			for _, from := range replicas {
				for _, to := range replicas {
					if from != to {
						send(from, "sync", to.Name)
					}
				}
			}
			cl.RunRounds(300, 10)
		}
		items := sortedRows(replicas[0], "items")
		for _, rt := range replicas {
			if got := sortedRows(rt, "items"); got != items {
				t.Fatalf("seed %d: replica %s items %s != %s", seed, rt.Name, got, items)
			}
		}
		if baseline == "" {
			baseline = items
		} else if items != baseline {
			t.Fatalf("seed %d: converged items %s depend on delivery order (baseline %s)", seed, items, baseline)
		}
		// Client-side seal: every replica checks out once its contents
		// reach the sealed lines.
		lines := replicas[0].Table("items").Tuples()
		for _, rt := range replicas {
			for _, l := range lines {
				send(rt, "seal", l[0], l[1], l[2], int64(len(lines)))
			}
		}
		cl.RunRounds(300, 10)
		for _, rt := range replicas {
			if rt.Table("ready").Len() != 1 {
				t.Fatalf("seed %d: replica %s did not check out after the seal", seed, rt.Name)
			}
		}
	}
}

// sortedRows renders a relation's tuples in sorted order.
func sortedRows(rt *transducer.Runtime, rel string) string {
	var out []string
	for _, tup := range rt.Table(rel).Tuples() {
		out = append(out, fmt.Sprint(tup))
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}
