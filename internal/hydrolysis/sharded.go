package hydrolysis

import (
	"fmt"
	"maps"

	"hydro/internal/cluster"
	"hydro/internal/shard"
	"hydro/internal/transducer"
)

// PlaceAvailable picks the machines handler's availability facet asks for
// (§6): f+1 machines in f+1 distinct instances of the spec's domain, by the
// one placement rule, cluster.Topology.SpreadAcross. It refuses when fewer
// than f+1 instances have an up machine, so a declared facet is never
// placed with two replicas sharing a domain.
func (c *Compiled) PlaceAvailable(topo *cluster.Topology, handler string) ([]string, error) {
	spec := c.Program.AvailabilityFor(handler)
	d, n := cluster.Domain(spec.Domain), spec.Failures+1
	live := map[string]bool{}
	for _, m := range topo.Machines {
		if m.Up() {
			live[m.DomainID(d)] = true
		}
	}
	if len(live) < n {
		return nil, fmt.Errorf("hydrolysis: %s tolerates %d failures across %s domains: need %d, only %d available",
			handler, spec.Failures, d, n, len(live))
	}
	return topo.SpreadAcross(d, n)
}

// InstantiateSharded deploys the compiled program's query rules as a
// distributed dataflow: n replicas are placed by the one placement rule,
// cluster.Topology.SpreadAcross (no AZ holds more than ⌈n/#AZs⌉ of them),
// every declared table, and transducer.VarRelation, becomes a base relation,
// a table hash-partitioned on its PartitionCol unless opts.Declared names
// another column for it (the caller's entries win), and the query
// fixpoint is maintained across the replicas by the shard coordinator. The
// returned deployment accepts base ticks via Submit and converges to
// exactly the fixpoint a single-node Instantiate would hold.
func (c *Compiled) InstantiateSharded(cl *cluster.Cluster, name string, n int, opts shard.Options) (*shard.Deployment, error) {
	machines, err := cl.Topo.SpreadAcross(cluster.AZ, n)
	if err != nil {
		return nil, err
	}
	edb := map[string]int{}
	declared := map[string]int{}
	for _, t := range c.Program.Tables {
		edb[t.Name] = t.Arity()
		declared[t.Name] = t.PartitionCol()
	}
	edb[transducer.VarRelation] = 2
	maps.Copy(declared, opts.Declared)
	opts.Declared = declared
	return shard.Deploy(cl, name, c.Queries, edb, machines, opts)
}
