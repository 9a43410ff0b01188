package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// Smoke tests: every experiment runs at reduced scale and its table carries
// the shape assertions DESIGN.md §4 records.

func TestE1Runs(t *testing.T) {
	tab := RunE1(50)
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "50" {
		t.Fatalf("table = %+v", tab)
	}
}

// TestE2CoordinationTax pins the price of coordination on the sharded
// COVID deployment. Both mixes run the barrier protocol today, so their
// decrees per tick are equal; once monotone ticks commit without it
// (DESIGN.md §4, E2) the monotone row must drop to at most 1.1 decrees per
// tick and this check flips to that. Deletes already cost more messages and
// more virtual time per tick.
func TestE2CoordinationTax(t *testing.T) {
	tab := RunE2(20)
	mono, nonMono := tab.Rows[0], tab.Rows[1]
	if num(t, mono[2]) != num(t, nonMono[2]) {
		t.Fatalf("decrees/tick differ between mixes: %v vs %v", mono, nonMono)
	}
	for _, col := range []int{3, 4} {
		if num(t, mono[col]) >= num(t, nonMono[col]) {
			t.Fatalf("monotone %s (%s) not below non-monotone (%s)", tab.Header[col], mono[col], nonMono[col])
		}
	}
}

func TestE4AvailabilityBoundary(t *testing.T) {
	tab := RunE4(10)
	for failed, want := range []float64{100, 100, 100, 0} {
		if got := num(t, tab.Rows[failed][3]); got != want {
			t.Fatalf("%d failed AZs: availability %v%%, want %v%%: %v", failed, got, want, tab.Rows[failed])
		}
	}
}

// TestE5Ordering pins the two tiers the system runs: an eventual op, acked
// by one compiled runtime, sends fewer messages and completes sooner than a
// serializable one, decided by Paxos. No causal row: nothing enforces it.
func TestE5Ordering(t *testing.T) {
	tab := RunE5(5)
	eventual, serializable := tab.Row("eventual"), tab.Row("serializable")
	if len(tab.Rows) != 2 || eventual == nil || serializable == nil {
		t.Fatalf("rows = %v, want exactly eventual and serializable", tab.Rows)
	}
	if num(t, eventual[3]) >= num(t, serializable[3]) {
		t.Fatalf("eventual msgs/op %s not below serializable %s", eventual[3], serializable[3])
	}
	if num(t, eventual[2]) >= num(t, serializable[2]) {
		t.Fatalf("eventual latency %s not below serializable %s", eventual[2], serializable[2])
	}
}

func TestE6GPUPlacement(t *testing.T) {
	tab := RunE6()
	found := false
	for _, row := range tab.Rows {
		if row[0] == "likelihood" && strings.Contains(row[1], "gpu") {
			found = true
		}
	}
	if !found {
		t.Fatalf("likelihood not on gpu: %v", tab.Rows)
	}
}

func TestE7TreeBeatsNaiveAtScale(t *testing.T) {
	tab := RunE7([]int{32})
	var naive, tree string
	for _, row := range tab.Rows {
		if row[0] == "bcast" && row[2] == "naive" {
			naive = row[4]
		}
		if row[0] == "bcast" && row[2] == "tree" {
			tree = row[4]
		}
	}
	if naive == "" || tree == "" {
		t.Fatalf("missing rows: %v", tab.Rows)
	}
}

func TestE8SemiNaiveWins(t *testing.T) {
	tab := RunE8([]int{48})
	if !strings.HasSuffix(tab.Rows[0][4], "×") {
		t.Fatalf("speedup column = %q", tab.Rows[0][4])
	}
}

// TestE9ScalingColumns: at a fixed load per shard, 5 shards commit at
// least 3× the base rows per virtual second that 1 shard does.
func TestE9ScalingColumns(t *testing.T) {
	tab := RunE9([]int{1, 5}, 20)
	if one, five := num(t, tab.Rows[0][5]), num(t, tab.Rows[1][5]); five < 3*one {
		t.Fatalf("rows/vsec at 5 shards %v < 3× 1 shard's %v: %v", five, one, tab.Rows)
	}
}

func TestE10ZeroCoordination(t *testing.T) {
	tab := RunE10(3)
	if tab.Rows[0][2] != "0" {
		t.Fatalf("seal-at-client coordination = %q", tab.Rows[0][2])
	}
	if tab.Rows[1][2] == "0" {
		t.Fatal("consensus checkout reported zero messages")
	}
}

func TestE11AndE12Render(t *testing.T) {
	if s := RunE11().Render(); !strings.Contains(s, "vaccinate") {
		t.Fatalf("E11 render:\n%s", s)
	}
	if s := RunE12(50).Render(); !strings.Contains(s, "actors") {
		t.Fatalf("E12 render:\n%s", s)
	}
	if s := RunE5Mechanisms().Render(); !strings.Contains(s, "coordination") {
		t.Fatalf("E5b render:\n%s", s)
	}
}

func TestE14FailoverColumns(t *testing.T) {
	tab := RunE14(6)
	if len(tab.Rows) != 3 {
		t.Fatalf("expected 3 modes, got %d", len(tab.Rows))
	}
	// Healthy run: no elections, epoch stays 1.
	if tab.Rows[0][2] != "0" || tab.Rows[0][3] != "1" {
		t.Fatalf("healthy row shows failover activity: %v", tab.Rows[0])
	}
	// Faulted runs: at least one election each, epoch moved.
	for _, row := range tab.Rows[1:] {
		if row[2] == "0" || row[3] == "1" {
			t.Fatalf("faulted mode %s saw no election: %v", row[0], row)
		}
		if row[7] == "-" {
			t.Fatalf("faulted mode %s has no recovery window: %v", row[0], row)
		}
	}
}

// num parses a numeric table cell, ignoring a unit suffix such as "×" or "%".
func num(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimRight(cell, "×%µs"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", cell, err)
	}
	return f
}
