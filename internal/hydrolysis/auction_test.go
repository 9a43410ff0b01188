package hydrolysis

import (
	"math/rand"
	"testing"

	"hydro/internal/consistency"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
)

// A second full application: an auction house. It exercises compiler paths
// the COVID app does not — max-lattice columns, aggregate queries consumed
// by handlers, causal consistency, deletes, and the metaconsistency
// analysis across a send chain.
const auctionSrc = `
table item(id: int, reserve: int, highbid: max<int>, open: bool) key(id)
table bids(item: int, bidder: int, amount: int) key(item, bidder, amount)
var settled_count: int = 0

query top(item, max<amount>) :- bids(item, bidder, amount)
query qualified(item, bidder, amount) :- bids(item, bidder, amount), item(item, reserve, hb, open), amount >= reserve

on list(id: int, reserve: int) {
    merge item(id, reserve, 0, true)
    reply "LISTED"
}

on bid(item_id: int, bidder: int, amount: int) {
    merge bids(item_id, bidder, amount)
    merge item[item_id].highbid <- amount
    reply "BID"
}

on settle(id: int) consistency(serializable) {
    settled_count := settled_count + 1
    send notify_winner(b, amt) :- qualified(id, b, amt)
    delete item(id)
    reply "SETTLED"
}

on watch(id: int) consistency(causal) {
    send ticker(i, amt) :- top(i, amt), i == id
}

availability { default domain=dc failures=1 }
target { default latency=50ms cost=0.05 }
`

func compileAuction(t testing.TB) *Compiled {
	t.Helper()
	c, err := Compile(auctionSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAuctionFacets(t *testing.T) {
	c := compileAuction(t)
	choices := consistency.Select(c.Program, c.Analysis)
	// bid merges only lattice state → monotone, no coordination.
	if choices["bid"].Mechanism != consistency.MechNone {
		t.Fatalf("bid: %+v", choices["bid"])
	}
	// settle deletes and assigns → coordination. settled_count is private
	// to settle, but the delete retracts item rows that list and bid write,
	// so serializing settle locally would be unsound.
	if s := choices["settle"]; s.Mechanism != consistency.MechCoordination || s.LocalOnly {
		t.Fatalf("settle: %+v", s)
	}
	// watch reads an aggregate → non-monotone, causal → lattice tier.
	if choices["watch"].Mechanism != consistency.MechLattice {
		t.Fatalf("watch: %+v", choices["watch"])
	}
	// Partition plan: no hints, so key columns.
	plan := c.PartitionPlan()
	if plan["item"].Column != "id" || plan["item"].Hinted {
		t.Fatalf("item partition = %+v", plan["item"])
	}
	if plan["bids"].ColIdx != 0 {
		t.Fatalf("bids partition = %+v", plan["bids"])
	}
}

func TestAuctionEndToEnd(t *testing.T) {
	c := compileAuction(t)
	rt, err := c.Instantiate("auction", 3)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })

	rt.Inject("list", datalog.Tuple{int64(1), int64(100)})
	rt.Tick()
	rt.Inject("bid", datalog.Tuple{int64(1), int64(7), int64(90)})  // below reserve
	rt.Inject("bid", datalog.Tuple{int64(1), int64(8), int64(120)}) // qualifies
	rt.Inject("bid", datalog.Tuple{int64(1), int64(9), int64(150)}) // qualifies, highest
	rt.RunUntilIdle(30)

	// The max-lattice column tracked the high bid.
	rows := rt.Table("item").Tuples()
	if len(rows) != 1 || rows[0][2] != int64(150) {
		t.Fatalf("item rows = %v", rows)
	}

	// Watch emits the top bid through the causal ticker.
	rt.Inject("watch", datalog.Tuple{int64(1)})
	rt.RunUntilIdle(30)
	ticks := rt.Drain("ticker")
	if len(ticks) != 1 || ticks[0].Payload[1] != int64(150) {
		t.Fatalf("ticker = %v", ticks)
	}

	// Settlement notifies only reserve-qualified bidders and deletes the
	// item atomically with the counter bump.
	rt.Inject("settle", datalog.Tuple{int64(1)})
	rt.RunUntilIdle(30)
	notes := rt.Drain("notify_winner")
	winners := map[int64]bool{}
	for _, m := range notes {
		winners[m.Payload[0].(int64)] = true
	}
	if winners[7] || !winners[8] || !winners[9] {
		t.Fatalf("winners = %v (reserve filter broken)", winners)
	}
	if rt.Table("item").Len() != 0 {
		t.Fatal("settled item not deleted")
	}
	if rt.Var("settled_count").(int64) != 1 {
		t.Fatalf("settled_count = %v", rt.Var("settled_count"))
	}
}

func TestAuctionMetaconsistency(t *testing.T) {
	c := compileAuction(t)
	// settle (serializable) sends to notify_winner, an external mailbox —
	// no handler, so no downgrade. The analysis must be clean.
	issues := consistency.CheckMeta(c.Program, c.Analysis)
	if len(issues) != 0 {
		t.Fatalf("unexpected metaconsistency issues: %v", issues)
	}
}

func TestAuctionFormatRoundTrip(t *testing.T) {
	p, err := hlang.Parse(auctionSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hlang.Parse(hlang.Format(p)); err != nil {
		t.Fatalf("auction program does not round-trip: %v", err)
	}
}
