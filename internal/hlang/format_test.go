package hlang

import (
	"reflect"
	"strings"
	"testing"
)

func TestFormatRoundTripsCovid(t *testing.T) {
	p1, err := Parse(CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	src2 := Format(p1)
	p2, err := Parse(src2)
	if err != nil {
		t.Fatalf("formatted source does not reparse: %v\n%s", err, src2)
	}
	// Structural equality on the round trip.
	if len(p1.Tables) != len(p2.Tables) || len(p1.Handlers) != len(p2.Handlers) ||
		len(p1.Queries) != len(p2.Queries) || len(p1.Vars) != len(p2.Vars) {
		t.Fatal("declaration counts changed across round trip")
	}
	for i := range p1.Tables {
		a, b := *p1.Tables[i], *p2.Tables[i]
		a.Pos, b.Pos = Pos{}, Pos{} // positions necessarily differ
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("table %d changed:\n%+v\n%+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(p1.Availability, p2.Availability) {
		t.Fatalf("availability changed: %v vs %v", p1.Availability, p2.Availability)
	}
	if !reflect.DeepEqual(p1.Targets, p2.Targets) {
		t.Fatalf("targets changed: %v vs %v", p1.Targets, p2.Targets)
	}
	// Second round trip must be a fixed point textually.
	src3 := Format(p2)
	if src2 != src3 {
		t.Fatalf("Format not idempotent:\n--- first\n%s\n--- second\n%s", src2, src3)
	}
}

func TestFormatRoundTripsAggregatesAndStatements(t *testing.T) {
	src := `
table sale(region: string, amt: int) key(region, amt)
table acct(id: int, score: max<int>, flagged: bool) key(id)
var total: int = 0
query best(region, max<amt>) :- sale(region, amt), amt > 0
on record(region: string, amt: int) consistency(causal) {
    merge sale(region, amt)
    merge acct[amt].score <- amt
    total := total + amt
    send downstream(x) :- best(region, x), x > amt
    delete sale(region, amt)
    reply "OK"
}
`
	p1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	formatted := Format(p1)
	p2, err := Parse(formatted)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, formatted)
	}
	zeroPos(p1)
	zeroPos(p2)
	if !reflect.DeepEqual(p1.Handlers, p2.Handlers) {
		t.Fatalf("handler bodies changed across the round trip:\n%s", formatted)
	}
	if p2.Queries[0].Agg != "max" || p2.Queries[0].AggVar != "amt" {
		t.Fatalf("aggregate lost: %+v", p2.Queries[0])
	}
	if !strings.Contains(formatted, "max<amt>") {
		t.Fatalf("formatted:\n%s", formatted)
	}
}

// zeroPos clears every source position in p, so programs compare
// structurally across a Format/Parse round trip.
func zeroPos(p *Program) {
	zeroAtoms := func(atoms []BodyAtom) {
		for i := range atoms {
			atoms[i].Pos = Pos{}
		}
	}
	for _, d := range p.Tables {
		d.Pos = Pos{}
	}
	for _, d := range p.Vars {
		d.Pos = Pos{}
	}
	for _, d := range p.UDFs {
		d.Pos = Pos{}
	}
	for _, q := range p.Queries {
		q.Pos = Pos{}
		zeroAtoms(q.Body)
	}
	for _, h := range p.Handlers {
		h.Pos = Pos{}
		for _, s := range h.Body {
			switch st := s.(type) {
			case *MergeTupleStmt:
				st.At = Pos{}
			case *MergeFieldStmt:
				st.At = Pos{}
			case *AssignStmt:
				st.At = Pos{}
			case *SendStmt:
				st.At = Pos{}
				zeroAtoms(st.Body)
			case *DeleteStmt:
				st.At = Pos{}
			case *ReplyStmt:
				st.At = Pos{}
			}
		}
	}
}
