package hydro

import (
	"math/rand"
	"strings"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/consistency"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// Integration tests over the public API: the full pipeline from source text
// to a running (and distributed) application.

func testUDFs() map[string]UDF {
	return map[string]UDF{
		"covid_predict": func(args []any) any { return 0.25 },
	}
}

func TestPublicCompileAndRun(t *testing.T) {
	c, err := Compile(CovidSource, Options{UDFs: testUDFs()})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("api-test", 1)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })
	rt.Inject("add_person", Tuple{int64(1), "us"})
	rt.Inject("add_contact", Tuple{int64(1), int64(2)})
	rt.RunUntilIdle(30)
	if rt.Table("people").Len() != 1 || rt.Table("contacts").Len() != 2 {
		t.Fatalf("state: people=%d contacts=%d", rt.Table("people").Len(), rt.Table("contacts").Len())
	}
}

func TestMustCompilePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile should panic on invalid source")
		}
	}()
	MustCompile("on broken(", Options{})
}

func TestParseAndAnalyzePublic(t *testing.T) {
	p, err := Parse(CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(p)
	if len(a.CoordinationPoints(p)) != 1 {
		t.Fatalf("coordination points = %v", a.CoordinationPoints(p))
	}
}

// TestDistributedCovidConverges is the full-stack integration: three
// compiled replicas across AZs exchanging monotone updates converge to the
// same contact graph, and an AZ failure does not stop the survivors.
func TestDistributedCovidConverges(t *testing.T) {
	compiled := MustCompile(CovidSource, Options{UDFs: testUDFs()})
	topo := cluster.NewTopology(3, 1, 1, cluster.ClassSmall)
	cl := cluster.New(topo, simnet.Config{Seed: 5, MinLatency: 50, MaxLatency: 150})

	machines, err := topo.SpreadAcross(cluster.AZ, 3)
	if err != nil {
		t.Fatal(err)
	}
	var rts []*transducer.Runtime
	for i, m := range machines {
		rt, err := compiled.Instantiate(m.ID, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		rt.SetDelay(func(r *rand.Rand) int { return 1 })
		cl.Host(m.ID, rt)
		rts = append(rts, rt)
	}
	// Replicated monotone writes (what Hydrolysis emits for MechNone).
	broadcast := func(handler string, args Tuple) {
		for _, rt := range rts {
			rt.Inject(handler, args)
		}
	}
	for i := int64(1); i <= 4; i++ {
		broadcast("add_person", Tuple{i, "us"})
	}
	broadcast("add_contact", Tuple{int64(1), int64(2)})
	broadcast("add_contact", Tuple{int64(2), int64(3)})
	cl.RunRounds(6, 300)
	for i, rt := range rts {
		if rt.Table("contacts").Len() != 4 {
			t.Fatalf("replica %d: contacts=%d, want 4", i, rt.Table("contacts").Len())
		}
	}

	// Fail one AZ; survivors keep serving and deriving alerts.
	cl.FailDomain(cluster.AZ, machines[0].AZ)
	for _, rt := range rts[1:] {
		rt.Inject("diagnosed", Tuple{int64(1)})
	}
	cl.RunRounds(6, 300)
	for i, rt := range rts[1:] {
		if len(rt.Peek("alert")) == 0 {
			t.Fatalf("surviving replica %d produced no alerts", i+1)
		}
	}
}

// TestFacetReportsRoundTrip exercises the human-readable compiler artifacts
// the paper's evolutionary story depends on.
func TestFacetReportsRoundTrip(t *testing.T) {
	c := MustCompile(CovidSource, Options{UDFs: testUDFs()})
	analysis := c.Analysis.Report()
	mech := consistency.Report(consistency.Select(c.Program, c.Analysis))
	for _, want := range []string{"transitive", "vaccinate", "non-monotone"} {
		if !strings.Contains(analysis, want) {
			t.Fatalf("analysis report missing %q:\n%s", want, analysis)
		}
	}
	if !strings.Contains(mech, "coordination") || !strings.Contains(mech, "CALM") {
		t.Fatalf("mechanism report:\n%s", mech)
	}
	meta := consistency.CheckMeta(c.Program, c.Analysis)
	if len(meta) != 0 {
		t.Fatalf("COVID app has no cross-handler downgrades, got %v", meta)
	}
}
