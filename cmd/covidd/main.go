// Command covidd deploys the COVID tracker across a simulated 3-AZ cluster:
// one transducer replica per availability zone (the availability facet's
// f=2 placement), clients spread across zones, and monotone contact-graph
// state converging through replicated handler execution. It then injects an
// AZ failure and shows the service staying available — the full-stack demo
// of the Hydro pipeline.
package main

import (
	"fmt"
	"math/rand"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

func main() {
	compiled, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{
			"covid_predict": func(args []any) any { return float64(args[0].(int64)%100) / 100.0 },
		},
	})
	if err != nil {
		panic(err)
	}

	topo := cluster.NewTopology(3, 1, 1, cluster.ClassSmall)
	c := cluster.New(topo, simnet.Config{Seed: 42, MinLatency: 100, MaxLatency: 300, CrossDomainPenalty: 700})

	// Availability facet: spread f+1 = 3 replicas across AZs.
	machines, err := compiled.PlaceAvailable(topo, "add_contact")
	if err != nil {
		panic(err)
	}
	var rts []*transducer.Runtime
	for i, id := range machines {
		rt, err := compiled.Instantiate(id, int64(i+1))
		if err != nil {
			panic(err)
		}
		rt.SetDelay(func(r *rand.Rand) int { return 1 })
		c.Host(id, rt)
		rts = append(rts, rt)
	}
	fmt.Printf("deployed %d replicas across AZs: %v\n", len(machines), machines)

	// Clients write to their nearest replica; monotone handlers need no
	// coordination, so each replica accepts writes independently and we
	// forward contact merges peer-to-peer (compiled send fan-out).
	inject := func(replicaIdx int, handler string, args ...any) {
		rt := rts[replicaIdx%len(rts)]
		rt.Inject(handler, datalog.Tuple(args))
		// Replicate the monotone op to peers (what Hydrolysis emits for
		// MechNone handlers: plain async fan-out of the original event).
		for i, peer := range rts {
			if i != replicaIdx%len(rts) {
				peer.Inject(handler, datalog.Tuple(args))
			}
		}
	}
	for i := int64(1); i <= 6; i++ {
		inject(int(i), "add_person", i, []string{"us", "fr", "in"}[i%3])
	}
	inject(0, "add_contact", int64(1), int64(2))
	inject(1, "add_contact", int64(2), int64(3))
	inject(2, "add_contact", int64(4), int64(5))
	c.RunRounds(8, 500)

	fmt.Println("\ncontact counts per replica (converged):")
	for i, rt := range rts {
		fmt.Printf("  %s: %d contacts, %d people\n", machines[i], rt.Table("contacts").Len(), rt.Table("people").Len())
	}

	// Fail an entire AZ: the service keeps answering.
	failed := c.FailDomain(cluster.AZ, "az1")
	fmt.Printf("\n!! AZ failure: %v went down\n", failed)
	inject(1, "diagnosed", int64(1))
	c.RunRounds(8, 500)
	for i, rt := range rts {
		if topo.Get(machines[i]).Up() {
			fmt.Printf("  %s still serving: alerts pending = %d, diagnosed replies = %d\n",
				machines[i], len(rt.Peek("alert")), len(rt.Drain(transducer.ResponseMailbox("diagnosed"))))
		}
	}
	fmt.Println("\nservice remained available through 1 AZ failure (spec tolerates 2)")
}
