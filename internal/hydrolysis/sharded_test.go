package hydrolysis

import (
	"strings"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/shard"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// TestPlaceAvailable: the COVID program's add_contact tolerates 2 AZ
// failures, so it gets one machine in each of 3 AZs, and is refused — not
// doubled up in one AZ — when fewer than 3 AZs have an up machine.
// likelihood tolerates 1, so 2 AZs suffice.
func TestPlaceAvailable(t *testing.T) {
	c := compileCovid(t)
	topo := cluster.NewTopology(3, 2, 2, cluster.ClassSmall)
	got, err := c.PlaceAvailable(topo, "add_contact")
	if err != nil || strings.Join(got, " ") != "az1-r2-m2 az2-r2-m2 az3-r2-m2" {
		t.Fatalf("add_contact on 3 AZs: %v, %v", got, err)
	}
	cluster.New(topo, simnet.DefaultConfig(1)).FailDomain(cluster.AZ, "az1")
	if got, err := c.PlaceAvailable(topo, "add_contact"); err == nil {
		t.Fatalf("add_contact with 2 live AZs placed on %v, want a refusal", got)
	}
	got, err = c.PlaceAvailable(topo, "likelihood")
	if err != nil || strings.Join(got, " ") != "az2-r2-m2 az3-r2-m2" {
		t.Fatalf("likelihood on 2 live AZs: %v, %v", got, err)
	}
	if got, err := c.PlaceAvailable(cluster.NewTopology(2, 2, 2, cluster.ClassSmall), "add_contact"); err == nil {
		t.Fatalf("add_contact on 2 AZs placed on %v, want a refusal", got)
	}
}

// TestPlacementCovidDeployed pins where compiled COVID's relations live
// once InstantiateSharded deploys it: people on its partition(country)
// hint (column 1), the variables' relation on whole-tuple hash (column
// -1), and the closure decomposed: transitive on column 0, the x its
// recursive rule carries (where trace and diagnosed bind it), and its base
// input contacts mirrored, so each replica derives the rows it owns.
func TestPlacementCovidDeployed(t *testing.T) {
	cl := cluster.New(cluster.NewTopology(3, 2, 2, cluster.ClassSmall), simnet.DefaultConfig(1))
	dep, err := compileCovid(t).InstantiateSharded(cl, "covid", 3, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := dep.Placement().Specs
	for pred, col := range map[string]int{"people": 1, "transitive": 0, transducer.VarRelation: -1} {
		if s := specs[pred]; s.Mirrored || s.Col != col {
			t.Errorf("%s placed %+v, want sharded on column %d", pred, s, col)
		}
	}
	if s := specs["contacts"]; !s.Mirrored {
		t.Errorf("contacts placed %+v, want mirrored", s)
	}
	if len(specs) != 4 {
		t.Errorf("placed %v, want people, contacts, transitive and %s only", specs, transducer.VarRelation)
	}
}

// TestInstantiateShardedKeepsDeclared: the caller's opts.Declared entries
// win over the tables' partition columns, and the tables fill in the rest;
// contacts, the closure's base input, is mirrored whatever its column.
func TestInstantiateShardedKeepsDeclared(t *testing.T) {
	cl := cluster.New(cluster.NewTopology(3, 2, 2, cluster.ClassSmall), simnet.DefaultConfig(1))
	dep, err := compileCovid(t).InstantiateSharded(cl, "covid", 3, shard.Options{Declared: map[string]int{"people": 0}})
	if err != nil {
		t.Fatal(err)
	}
	specs := dep.Placement().Specs
	if s := specs["people"]; s.Mirrored || s.Col != 0 {
		t.Errorf("people placed %+v, want sharded on column 0", s)
	}
	if s := specs["contacts"]; !s.Mirrored {
		t.Errorf("contacts placed %+v, want mirrored", s)
	}
}
