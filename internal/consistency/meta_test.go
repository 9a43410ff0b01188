package consistency

import (
	"strings"
	"testing"

	"hydro/internal/hlang"
)

func TestCheckMetaFlagsDowngrade(t *testing.T) {
	// A serializable entry forwards through a weaker non-monotone handler.
	src := `
var balance: int = 0
var audit_seq: int = 0
on transfer(amt: int) consistency(serializable) {
    balance := balance - amt
    send record(amt)
}
on record(amt: int) {
    audit_seq := audit_seq + 1
}
`
	p, err := hlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	issues := CheckMeta(p, hlang.Analyze(p))
	if len(issues) != 1 {
		t.Fatalf("issues = %v, want exactly one", issues)
	}
	if issues[0].Where != "record" || issues[0].Declared != hlang.Serializable {
		t.Fatalf("issue = %+v", issues[0])
	}
	if !strings.Contains(issues[0].String(), "record") {
		t.Fatalf("String() = %q", issues[0])
	}
}

func TestCheckMetaMonotoneLinksAreFree(t *testing.T) {
	// Forwarding through a *monotone* handler never weakens the path:
	// monotone effects commute with anything.
	src := `
table log(id: int)
var balance: int = 0
on transfer(amt: int) consistency(serializable) {
    balance := balance - amt
    send journal(amt)
}
on journal(id: int) {
    merge log(id)
}
`
	p, err := hlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if issues := CheckMeta(p, hlang.Analyze(p)); len(issues) != 0 {
		t.Fatalf("monotone link flagged: %v", issues)
	}
}

func TestCheckMetaTransitivePaths(t *testing.T) {
	// The downgrade is two hops away: entry → relay (monotone) → sink
	// (non-monotone, eventual).
	src := `
table buf(id: int)
var x: int = 0
var y: int = 0
on entry(id: int) consistency(serializable) {
    x := x + 1
    send relay(id)
}
on relay(id: int) {
    merge buf(id)
    send sink(id)
}
on sink(id: int) {
    y := y + 1
}
`
	p, err := hlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	issues := CheckMeta(p, hlang.Analyze(p))
	if len(issues) != 1 || issues[0].Where != "sink" {
		t.Fatalf("issues = %v", issues)
	}
	if len(issues[0].Path) != 3 {
		t.Fatalf("path = %v, want entry→relay→sink", issues[0].Path)
	}
}

func TestCheckMetaEventualEntriesIgnored(t *testing.T) {
	src := `
var x: int = 0
on a(id: int) { send b(id) }
on b(id: int) { x := x + 1 }
`
	p, err := hlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if issues := CheckMeta(p, hlang.Analyze(p)); len(issues) != 0 {
		t.Fatalf("eventual entry flagged: %v", issues)
	}
}
