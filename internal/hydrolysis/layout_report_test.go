package hydrolysis

import (
	"strings"
	"testing"
)

// TestLayoutReportDeclarationOrder: the layout section hydroc and the
// quickstart print is the same bytes on every rendering — one line per
// table, in the order the program declares them, not in map order.
func TestLayoutReportDeclarationOrder(t *testing.T) {
	c := compileCovid(t)
	first := c.LayoutReport()
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) != len(c.Program.Tables) {
		t.Fatalf("report has %d lines for %d tables:\n%s", len(lines), len(c.Program.Tables), first)
	}
	for i, tbl := range c.Program.Tables {
		if !strings.HasPrefix(lines[i], tbl.Name+" ") {
			t.Fatalf("line %d = %q, want table %s (declaration order)", i, lines[i], tbl.Name)
		}
	}
	if again := c.LayoutReport(); again != first {
		t.Fatalf("second rendering differs:\n%s\nvs\n%s", again, first)
	}
}
