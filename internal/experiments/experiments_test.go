package experiments

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/transducer"
)

// Shape tests: every experiment runs at reduced scale and its table carries
// the shape assertions DESIGN.md §4 records. TestQuickTablesGolden pins
// the tables' bytes at benchtab's quick parameters.

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current tables")

// TestQuickTablesGolden renders every table of All at quick parameters,
// as `benchtab -quick` prints them, and compares the bytes with
// testdata/quick.golden. Each number is virtual time, a message, decree
// or row count, so a diff is a behaviour change to review; -update
// rewrites the file.
func TestQuickTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range All(true) {
		b.WriteString(e.Run().Render() + "\n")
	}
	const golden = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("tables differ from %s at line %d (-update rewrites it); got from there:\n%s", golden, i+1, strings.Join(g[i:], "\n"))
	}
}

// TestE2CoordinationTax pins the price of coordination on the sharded
// COVID deployment. Both mixes run the barrier protocol today, so each
// tick costs exactly its submit and commit decrees; once monotone ticks
// commit without it (DESIGN.md §4, E2) the monotone row must drop to at
// most 1.1 decrees per tick and this check flips to that. COVID's closure
// is a local component, so neither mix steps an exchange round and a
// delete's DRed costs no message and no virtual time: the mixes cost the
// same. Where a closure still exchanges, deletes cost more
// (TestShardedDRedTaxOnExchangingClosure in internal/shard).
func TestE2CoordinationTax(t *testing.T) {
	tab := RunE2(20)
	mono, nonMono := tab.Rows[0], tab.Rows[1]
	for _, row := range tab.Rows {
		if row[2] != "2.00" || row[6] != "0.0" {
			t.Fatalf("%s: %s decrees/tick and %s rounds/tick, want 2.00 (submit and commit) and 0.0", row[0], row[2], row[6])
		}
	}
	if !slices.Equal(mono[2:], nonMono[2:]) {
		t.Fatalf("the mixes cost differently: %v vs %v", mono, nonMono)
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

// TestE7TreeBeatsNaiveAtScale: every bcast schedule sends n-1 messages,
// the root sends n-1 of them naive, 2 in a tree and 1 in a ring, and the
// tree finishes first at n = 32 and 64.
func TestE7TreeBeatsNaiveAtScale(t *testing.T) {
	tab := RunE7([]int{32, 64})
	for _, n := range []int{32, 64} {
		took := map[string]float64{}
		for _, row := range tab.Rows {
			if row[0] != "bcast" || row[1] != strconv.Itoa(n) {
				continue
			}
			want := map[string]string{"naive": strconv.Itoa(n - 1), "tree": "2", "ring": "1"}[row[2]]
			if row[3] != strconv.Itoa(n-1) || row[4] != want {
				t.Errorf("n=%d %s: %s messages, %s from the root; want %d and %s", n, row[2], row[3], row[4], n-1, want)
			}
			took[row[2]] = num(t, row[5])
		}
		if len(took) != 3 || took["tree"] >= took["naive"] {
			t.Fatalf("n=%d: bcast virtual times %v, want tree < naive", n, took)
		}
	}
}

// TestMPIBcastAllSchedules: every rank receives the root's value under
// each schedule.
func TestMPIBcastAllSchedules(t *testing.T) {
	for _, n := range []int{5, 8} {
		for _, algo := range []string{"naive", "tree", "ring"} {
			w := newMPIWorld(n, "bcast", algo)
			if msgs, _, _ := w.bcast(); msgs != uint64(n-1) {
				t.Errorf("n=%d %s: %d messages", n, algo, msgs)
			}
			for _, r := range w.ranks {
				if got := w.cl.Runtime(r).Table("got").Tuples(); len(got) != 1 || got[0][0] != int64(1) {
					t.Fatalf("n=%d %s: rank %s got %v", n, algo, r, got)
				}
			}
		}
	}
}

// TestMPIAllreduceNaiveAndRing: both schedules leave every rank holding
// the world's sum, with every value crossing to each other rank once.
func TestMPIAllreduceNaiveAndRing(t *testing.T) {
	for _, algo := range []string{"naive", "ring"} {
		w := newMPIWorld(6, "allreduce", algo)
		if msgs, _, _ := w.allreduce(); msgs != 30 {
			t.Errorf("%s: %d messages, want 30", algo, msgs)
		}
		for _, r := range w.ranks {
			if got := w.cl.Runtime(r).Table("total").Tuples(); len(got) != 1 || got[0][0] != int64(6) {
				t.Fatalf("%s: rank %s total %v", algo, r, got)
			}
		}
	}
}

// TestMPIOneRankWorld: in a one-rank world every collective completes at
// the root with no message sent.
func TestMPIOneRankWorld(t *testing.T) {
	for _, algo := range []string{"naive", "tree", "ring"} {
		w := newMPIWorld(1, "bcast", algo)
		rt := w.cl.Runtime(w.ranks[0])
		if msgs, _, _ := w.bcast(); msgs != 0 || rows(rt, "got") != "[(1)]" {
			t.Fatalf("%s bcast: %d messages, got %s", algo, msgs, rows(rt, "got"))
		}
		rt.Inject("gather", datalog.Tuple{w.ranks[0], int64(5)})
		if msgs, _, _ := w.run(func(rt *transducer.Runtime) bool { return rt.Table("gathered").Len() == 1 }); msgs != 0 {
			t.Fatalf("%s gather: %d messages", algo, msgs)
		}
	}
	for _, algo := range []string{"naive", "ring"} {
		w := newMPIWorld(1, "allreduce", algo)
		if msgs, _, _ := w.allreduce(); msgs != 0 || rows(w.cl.Runtime(w.ranks[0]), "total") != "[(1)]" {
			t.Fatalf("%s allreduce: %d messages, total %s", algo, msgs, rows(w.cl.Runtime(w.ranks[0]), "total"))
		}
	}
}

// TestMPIAllreduceScalingShape: naive and ring allreduce both send
// n(n-1) messages; the naive fan-out finishes in time linear in its NIC
// sends, the ring in n-1 hops of link latency, so the ring is the slower
// and its time grows at least linearly from n = 4 to 16.
func TestMPIAllreduceScalingShape(t *testing.T) {
	took := map[string][]float64{}
	for _, algo := range []string{"naive", "ring"} {
		for _, n := range []int{4, 16} {
			w := newMPIWorld(n, "allreduce", algo)
			msgs, _, elapsed := w.allreduce()
			if msgs != uint64(n*(n-1)) {
				t.Fatalf("%s n=%d: %d messages, want %d", algo, n, msgs, n*(n-1))
			}
			for _, r := range w.ranks {
				if got := rows(w.cl.Runtime(r), "total"); got != fmt.Sprintf("[(%d)]", n) {
					t.Fatalf("%s n=%d: rank %s total %s", algo, n, r, got)
				}
			}
			took[algo] = append(took[algo], float64(elapsed))
		}
	}
	if took["ring"][1] <= took["naive"][1] || took["ring"][1] < 4*took["ring"][0] {
		t.Fatalf("virtual µs at n=4,16: naive %v, ring %v", took["naive"], took["ring"])
	}
}

// rows renders a relation's tuples in order.
func rows(rt *transducer.Runtime, rel string) string {
	return fmt.Sprint(rt.Table(rel).Tuples())
}

// TestMPIBcastTreeFasterThanRing: a ring takes n-1 hops, a tree log n.
func TestMPIBcastTreeFasterThanRing(t *testing.T) {
	_, _, tree := newMPIWorld(16, "bcast", "tree").bcast()
	_, _, ring := newMPIWorld(16, "bcast", "ring").bcast()
	if tree >= ring {
		t.Fatalf("tree %dµs, ring %dµs", tree, ring)
	}
}

// TestMPIGatherAtRoot: each rank's value reaches the root, and only the
// root.
func TestMPIGatherAtRoot(t *testing.T) {
	w := newMPIWorld(4, "bcast", "naive")
	for i, r := range w.ranks {
		w.cl.Runtime(r).Inject("gather", datalog.Tuple{r, int64(10 * i)})
	}
	msgs, _, _ := w.run(func(rt *transducer.Runtime) bool { return rt.Name != w.ranks[0] || rt.Table("gathered").Len() == 4 })
	if msgs != 3 {
		t.Fatalf("%d messages, want 3", msgs)
	}
	for i, r := range w.ranks {
		if got, want := w.cl.Runtime(r).Table("gathered").Len(), map[bool]int{true: 4, false: 1}[i == 0]; got != want {
			t.Fatalf("rank %s holds %d gathered values, want %d", r, got, want)
		}
	}
}

// TestE9ScalingColumns: at a fixed load per shard, 5 shards commit at
// least 4× the base rows per virtual second that 1 shard does.
func TestE9ScalingColumns(t *testing.T) {
	tab := RunE9([]int{1, 5}, 20)
	if one, five := num(t, tab.Rows[0][5]), num(t, tab.Rows[1][5]); five < 4*one {
		t.Fatalf("rows/vsec at 5 shards %v < 4× 1 shard's %v: %v", five, one, tab.Rows)
	}
}

// TestE10ZeroCoordination: the compiled cart checks out on both replicas
// with no replica-to-replica message, and its checkout costs fewer
// messages than a Paxos decision (but some).
func TestE10ZeroCoordination(t *testing.T) {
	tab := RunE10(3)
	seal, paxos := tab.Row("seal-at-client"), tab.Row("consensus-checkout")
	if seal == nil || paxos == nil {
		t.Fatalf("rows: %v", tab.Rows)
	}
	if seal[2] != "6/6" || seal[3] != "0" {
		t.Fatalf("seal-at-client checked out %s with %s replica-to-replica messages", seal[2], seal[3])
	}
	if m := num(t, seal[4]); m <= 0 || m >= num(t, paxos[4]) {
		t.Fatalf("msgs/checkout: seal %s, consensus %s", seal[4], paxos[4])
	}
}

// TestE12PingPongAndFutures: a ping-pong round trip is 2 handled messages
// and every future resolves to its UDF's value.
func TestE12PingPongAndFutures(t *testing.T) {
	tab := RunE12(40)
	if got := tab.Row("actors"); got == nil || got[3] != "2.00 msgs/round trip" {
		t.Fatalf("actors row %v", got)
	}
	if got := tab.Row("futures"); got == nil || got[3] != "40/40 resolved to f(x)" {
		t.Fatalf("futures row %v", got)
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
