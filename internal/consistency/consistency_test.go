package consistency

import (
	"strings"
	"testing"

	"hydro/internal/hlang"
)

func TestMechanismSelection(t *testing.T) {
	p, err := hlang.Parse(hlang.CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	a := hlang.Analyze(p)
	choices := Select(p, a)
	if choices["add_person"].Mechanism != MechNone {
		t.Fatalf("add_person: %+v", choices["add_person"])
	}
	if choices["diagnosed"].Mechanism != MechNone {
		t.Fatalf("diagnosed: %+v", choices["diagnosed"])
	}
	v := choices["vaccinate"]
	if v.Mechanism != MechCoordination {
		t.Fatalf("vaccinate: %+v", v)
	}
	// The §7 observation: vaccinate is the only toucher of vaccine_count,
	// so serialization is local.
	if !v.LocalOnly {
		t.Fatalf("vaccinate should be LocalOnly: %+v", v)
	}
	rep := Report(choices)
	if !strings.Contains(rep, "vaccinate") || !strings.Contains(rep, "local") {
		t.Fatalf("report:\n%s", rep)
	}
}

func TestMechanismSharedVarNeedsCoordination(t *testing.T) {
	src := `
var stock: int = 10
on sell(n: int) consistency(serializable) { stock := stock - 1 }
on restock(n: int) { stock := stock + 1 }
`
	p, err := hlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	choices := Select(p, hlang.Analyze(p))
	if choices["sell"].LocalOnly {
		t.Fatal("sell shares stock with restock; local serialization is unsound")
	}
	if choices["sell"].Mechanism != MechCoordination {
		t.Fatalf("sell: %+v", choices["sell"])
	}
}

func TestMechanismCausalUsesLattice(t *testing.T) {
	src := `
table log(id: int)
var last: int = 0
on append(id: int) consistency(causal) {
    merge log(id)
    last := id
}
`
	p, err := hlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	choices := Select(p, hlang.Analyze(p))
	if choices["append"].Mechanism != MechLattice {
		t.Fatalf("append: %+v", choices["append"])
	}
}

func TestMechanismDeletedTableIsSharedState(t *testing.T) {
	// close assigns a var only it touches, but it also deletes from item,
	// which other handlers write or read through a query: serializing
	// close locally would be unsound.
	cases := map[string]string{
		"written by another handler": `
table item(id: int) key(id)
var closed: int = 0
on open(id: int) { merge item(id) }
on close(id: int) consistency(serializable) {
    closed := closed + 1
    delete item(id)
}
`,
		"read by another handler through queries": `
table item(id: int) key(id)
var closed: int = 0
query live(id) :- item(id)
query shown(id) :- live(id)
on show(id: int) { send shown_out(i) :- shown(i), i == id }
on close(id: int) consistency(serializable) {
    closed := closed + 1
    delete item(id)
}
`,
	}
	for name, src := range cases {
		p, err := hlang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := Select(p, hlang.Analyze(p))["close"]
		if c.Mechanism != MechCoordination || c.LocalOnly {
			t.Fatalf("%s: close = %+v, want coordination, not local", name, c)
		}
	}

	// A table only close itself touches stays handler-private.
	src := `
table item(id: int) key(id)
on close(id: int) consistency(serializable) { delete item(id) }
on ping(id: int) { reply "PONG" }
`
	p, err := hlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c := Select(p, hlang.Analyze(p))["close"]; !c.LocalOnly {
		t.Fatalf("close deletes from a table no other handler touches: %+v", c)
	}
}
