// Command mpi demonstrates Appendix A.3: MPI collectives as the compiled
// HydroLogic program hlang.MPISource, hosted one rank per machine on a
// simulated cluster. It gathers every rank's value at the root, then prints
// the cost of bcast and allreduce under the naive, tree and ring schedules
// — the "well-known optimizations" the appendix says Hydrolysis could apply
// — which are data (each rank's child and succ rows), not program variants:
// experiment E7 in miniature.
package main

import (
	"fmt"
	"sort"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/experiments"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/simnet"
)

func main() {
	c, err := hydrolysis.Compile(hlang.MPISource, hydrolysis.Options{})
	if err != nil {
		panic(err)
	}
	topo := cluster.NewTopology(1, 1, 4, cluster.ClassSmall)
	cl := cluster.New(topo, simnet.Config{Seed: 2, MinLatency: 10, MaxLatency: 10})
	root := topo.Machines[0].ID
	for i, m := range topo.Machines {
		rt, err := c.Instantiate(m.ID, int64(i+1))
		if err != nil {
			panic(err)
		}
		cl.Host(m.ID, rt)
		rt.Inject("join", datalog.Tuple{m.ID, root})
	}
	cl.Round(10)
	for i, m := range topo.Machines {
		cl.Runtime(m.ID).Inject("gather", datalog.Tuple{m.ID, int64(10 * (i + 1))})
	}
	cl.RunRounds(20, 10)
	var gathered []string
	for _, row := range cl.Runtime(root).Table("gathered").Tuples() {
		gathered = append(gathered, fmt.Sprintf("%s=%v", row[0], row[1]))
	}
	sort.Strings(gathered)
	fmt.Printf("gather at %s: %v (%d messages)\n\n", root, gathered, cl.Net.Stats().Sent)

	fmt.Print(experiments.RunE7([]int{16}).Render())
}
