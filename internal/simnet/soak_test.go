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
	"hydro/internal/crdt"
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

// TestCartGossipConfluence: shopping-cart CRDT replicas gossiping over the
// simulated network with seed-random latencies must converge to the same
// manifest in every delivery order, and a post-convergence client-side
// seal checks out on every replica without coordination (§7.1).
func TestCartGossipConfluence(t *testing.T) {
	replicas := []string{"r1", "r2", "r3", "r4"}
	adds := map[string][][2]any{
		"r1": {{"book", int64(1)}, {"pen", int64(2)}},
		"r2": {{"book", int64(1)}},
		"r3": {{"mug", int64(3)}, {"pen", int64(1)}},
		"r4": {},
	}
	var baseline string
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		net := simnet.New(simnet.Config{Seed: seed, MinLatency: 50, MaxLatency: 900})
		carts := map[string]*crdt.Cart{}
		for _, r := range replicas {
			name := r
			carts[name] = crdt.NewCart(name)
			for _, a := range adds[name] {
				carts[name] = carts[name].AddItem(a[0].(string), a[1].(int64))
			}
			net.AddNode(name, func(now simnet.Time, msg simnet.Message) {
				switch p := msg.Payload.(type) {
				case *crdt.Cart:
					carts[name] = carts[name].Merge(p)
				case string: // gossip timer: broadcast current state
					for _, other := range replicas {
						if other != name {
							net.Send(name, other, carts[name])
						}
					}
				}
			})
		}
		// Three all-to-all gossip rounds, spaced far beyond max latency so
		// each round sees the previous one's merges; within a round,
		// arrival order is seed-random.
		for round := simnet.Time(1); round <= 3; round++ {
			for _, r := range replicas {
				net.After(r, round*10_000, "gossip")
			}
		}
		net.Drain(10_000)
		manifest := carts["r1"].Manifest()
		for _, r := range replicas {
			if got := carts[r].Manifest(); got != manifest {
				t.Fatalf("seed %d: replica %s manifest %q != %q", seed, r, got, manifest)
			}
		}
		if baseline == "" {
			baseline = manifest
		} else if manifest != baseline {
			t.Fatalf("seed %d: converged manifest %q depends on delivery order (baseline %q)", seed, manifest, baseline)
		}
		// Client-side seal: no replica coordination, every replica checks
		// out once its contents reach the sealed manifest.
		sealed := carts["r1"].Seal(1000)
		for _, r := range replicas {
			if merged := carts[r].Merge(sealed); !merged.CheckedOut() {
				t.Fatalf("seed %d: replica %s failed to check out after seal", seed, r)
			}
		}
	}
}
