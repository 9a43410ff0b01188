package hydrolysis

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hydro/internal/consistency"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/transducer"
)

// newAppRuntime compiles one of the Appendix A / §7.1 sources and
// instantiates it as node n1 with one-tick send delays.
func newAppRuntime(t testing.TB, src string, udfs map[string]UDF) *transducer.Runtime {
	t.Helper()
	c, err := Compile(src, Options{UDFs: udfs})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })
	return rt
}

// rows renders a relation's tuples sorted, for comparison.
func rows(rt *transducer.Runtime, rel string) string {
	var out []string
	for _, tup := range rt.Table(rel).Tuples() {
		out = append(out, fmt.Sprint(tup))
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

func TestActorsSumOfSquares(t *testing.T) {
	rt := newAppRuntime(t, hlang.ActorsSource, nil)
	for i := int64(1); i <= 5; i++ {
		rt.Inject("task", datalog.Tuple{fmt.Sprint("w", i), i})
	}
	rt.RunUntilIdle(20)
	if got := rows(rt, "total"); got != "[(55)]" {
		t.Fatalf("total = %s, want 55", got)
	}
	if n := rt.Table("actor").Len(); n != 5 {
		t.Fatalf("%d actors spawned, want 5", n)
	}
}

// TestActorsSpawnFromHandler: a handler spawns an actor with a merge into
// actor and messages it in the same step; the new actor runs its
// behaviour on that message.
func TestActorsSpawnFromHandler(t *testing.T) {
	rt := newAppRuntime(t, hlang.ActorsSource, nil)
	rt.Inject("task", datalog.Tuple{"child", int64(4)})
	rt.Tick()
	if got := rows(rt, "actor"); got != "[(child, worker)]" || rt.Table("squares").Len() != 0 {
		t.Fatalf("after the spawning tick: actor %s, squares %s", got, rows(rt, "squares"))
	}
	rt.RunUntilIdle(10)
	if got := rows(rt, "squares"); got != "[(child, 16)]" {
		t.Fatalf("the spawned actor's squares = %s", got)
	}
}

// TestActorsMessageToNonWorkerAborts: a square sent to an id no task
// spawned as a worker is refused by the behaviour's kind check, a dead
// letter that changes nothing.
func TestActorsMessageToNonWorkerAborts(t *testing.T) {
	rt := newAppRuntime(t, hlang.ActorsSource, nil)
	rt.Inject("square", datalog.Tuple{"nobody", int64(3)})
	rt.RunUntilIdle(10)
	if rt.Stats().Aborted != 1 || rt.Table("squares").Len() != 0 {
		t.Fatalf("aborted %d, squares %s", rt.Stats().Aborted, rows(rt, "squares"))
	}
}

func TestActorsPingPongTwoMessagesPerRoundTrip(t *testing.T) {
	rt := newAppRuntime(t, hlang.ActorsSource, nil)
	const trips = 10
	rt.Inject("play", datalog.Tuple{"a", "b", int64(trips)})
	rt.RunUntilIdle(100)
	if got := rt.Stats().Handled - 1; got != 2*trips {
		t.Fatalf("%d ping and pong messages for %d round trips, want %d", got, trips, 2*trips)
	}
}

// TestActorsMidMethodReceive is the appendix's m(msg): the pre-work runs,
// its result is parked as a waiting row, and the decision resumes from
// that row; a second decision finds nothing parked and is refused.
func TestActorsMidMethodReceive(t *testing.T) {
	rt := newAppRuntime(t, hlang.ActorsSource, nil)
	rt.Inject("request", datalog.Tuple{"approver", "po-17"})
	rt.RunUntilIdle(10)
	if got := rows(rt, "waiting"); got != "[(approver, prepared(po-17))]" || rt.Table("outcome").Len() != 0 {
		t.Fatalf("before the decision: waiting %s, outcome %s", got, rows(rt, "outcome"))
	}
	rt.Inject("decide", datalog.Tuple{"approver", "APPROVED"})
	rt.RunUntilIdle(10)
	if got := rows(rt, "outcome"); got != "[(approver, prepared(po-17) -> APPROVED)]" {
		t.Fatalf("outcome = %s", got)
	}
	if rt.Table("waiting").Len() != 0 {
		t.Fatalf("still waiting: %s", rows(rt, "waiting"))
	}
	rt.Inject("decide", datalog.Tuple{"approver", "AGAIN"})
	rt.RunUntilIdle(10)
	if rt.Stats().Aborted != 1 {
		t.Fatalf("aborted = %d, want 1", rt.Stats().Aborted)
	}
}

// TestActorsWaitingBuffersChatter: chatter to a waiting actor buffers
// unheard, and the decision releases all of it.
func TestActorsWaitingBuffersChatter(t *testing.T) {
	rt := newAppRuntime(t, hlang.ActorsSource, nil)
	rt.Inject("request", datalog.Tuple{"approver", "po-17"})
	rt.RunUntilIdle(10)
	rt.Inject("chat", datalog.Tuple{"approver", "queued1"})
	rt.Inject("chat", datalog.Tuple{"approver", "queued2"})
	rt.RunUntilIdle(10)
	if rt.Table("outcome").Len() != 0 || rt.Table("heard").Len() != 0 || rt.Table("inbox").Len() != 2 {
		t.Fatalf("while waiting: outcome %s, heard %s, inbox %s",
			rows(rt, "outcome"), rows(rt, "heard"), rows(rt, "inbox"))
	}
	rt.Inject("decide", datalog.Tuple{"approver", "APPROVED"})
	rt.RunUntilIdle(10)
	if got := rows(rt, "heard"); got != "[(approver, queued1) (approver, queued2)]" {
		t.Fatalf("heard after the decision = %s", got)
	}
}

// futuresUDFs counts the remote function's invocations.
func futuresUDFs(calls *int) map[string]UDF {
	return map[string]UDF{"f": func(args []any) any { *calls++; return args[0].(int64) * args[0].(int64) }}
}

func TestFuturesEagerResolveToTheirValues(t *testing.T) {
	calls := 0
	rt := newAppRuntime(t, hlang.FuturesSource, futuresUDFs(&calls))
	for i := int64(0); i < 50; i++ {
		rt.Inject("remote", datalog.Tuple{i, i + 1})
	}
	rt.RunUntilIdle(20)
	if calls != 50 || rt.Table("resolved").Len() != 50 {
		t.Fatalf("%d calls, %d resolved, want 50 each", calls, rt.Table("resolved").Len())
	}
	for _, tup := range rt.Table("resolved").Tuples() {
		if id, v := tup[0].(int64), tup[1].(int64); v != (id+1)*(id+1) {
			t.Fatalf("future %d resolved to %d", id, v)
		}
	}
}

// TestFuturesNotResolvedInLaunchTick: calls are sends, so no future
// resolves in the tick that launched it.
func TestFuturesNotResolvedInLaunchTick(t *testing.T) {
	calls := 0
	rt := newAppRuntime(t, hlang.FuturesSource, futuresUDFs(&calls))
	rt.Inject("remote", datalog.Tuple{int64(1), int64(10)})
	rt.Tick()
	if calls != 0 || rt.Table("resolved").Len() != 0 {
		t.Fatalf("after the launching tick: %d calls, resolved %s", calls, rows(rt, "resolved"))
	}
	rt.RunUntilIdle(20)
	if got := rows(rt, "resolved"); got != "[(1, 100)]" {
		t.Fatalf("resolved = %s", got)
	}
}

// TestFuturesEagerRunWithoutGet: an eager call runs with no get.
func TestFuturesEagerRunWithoutGet(t *testing.T) {
	calls := 0
	rt := newAppRuntime(t, hlang.FuturesSource, futuresUDFs(&calls))
	rt.Inject("remote", datalog.Tuple{int64(1), int64(5)})
	rt.RunUntilIdle(20)
	if calls != 1 || rows(rt, "resolved") != "[(1, 25)]" {
		t.Fatalf("%d calls, resolved %s", calls, rows(rt, "resolved"))
	}
}

// TestFuturesAreRows: a future is data, a resolved(id, v) row keyed by its
// id. A copy of the response message delivered again changes nothing, and
// the row's value travels with it to another agent.
func TestFuturesAreRows(t *testing.T) {
	calls := 0
	rt := newAppRuntime(t, hlang.FuturesSource, futuresUDFs(&calls))
	rt.Inject("remote", datalog.Tuple{int64(21), int64(2)})
	rt.RunUntilIdle(20)
	rt.Inject("resolve", datalog.Tuple{int64(21)})
	rt.RunUntilIdle(20)
	if calls != 1 || rows(rt, "resolved") != "[(21, 4)]" {
		t.Fatalf("after a copied response: %d calls, resolved %s", calls, rows(rt, "resolved"))
	}
	other := newAppRuntime(t, hlang.FuturesSource, futuresUDFs(&calls))
	for _, fut := range rt.Table("resolved").Tuples() {
		other.Inject("defer", fut)
	}
	other.RunUntilIdle(20)
	if got := rows(other, "pending"); got != "[(21, 4)]" {
		t.Fatalf("the copied future at another agent = %s", got)
	}
}

func TestFuturesLazyDefersLaunch(t *testing.T) {
	calls := 0
	rt := newAppRuntime(t, hlang.FuturesSource, futuresUDFs(&calls))
	rt.Inject("defer", datalog.Tuple{int64(1), int64(7)})
	rt.Inject("defer", datalog.Tuple{int64(2), int64(8)})
	rt.RunUntilIdle(20)
	if calls != 0 || rt.Table("pending").Len() != 2 {
		t.Fatalf("before demand: %d calls, pending %s", calls, rows(rt, "pending"))
	}
	rt.Inject("get", datalog.Tuple{int64(1)})
	rt.RunUntilIdle(20)
	if calls != 1 || rows(rt, "resolved") != "[(1, 49)]" || rows(rt, "pending") != "[(2, 8)]" {
		t.Fatalf("after get(1): %d calls, resolved %s, pending %s", calls, rows(rt, "resolved"), rows(rt, "pending"))
	}
}

func TestCartItemsMergeAsMax(t *testing.T) {
	for _, order := range [][]int64{{1, 3, 2}, {3, 2, 1}, {2, 1, 3}} {
		rt := newAppRuntime(t, hlang.CartSource, nil)
		for _, q := range order {
			rt.Inject("add", datalog.Tuple{"c", "book", q})
			rt.RunUntilIdle(10)
		}
		if got := rows(rt, "items"); got != "[(c, book, 3)]" {
			t.Fatalf("adds in order %v gave %s", order, got)
		}
	}
}

// TestCartOneRowPerItem: each item is one row at the greatest quantity
// added, and a seal of those rows makes the cart ready.
func TestCartOneRowPerItem(t *testing.T) {
	rt := newAppRuntime(t, hlang.CartSource, nil)
	for _, a := range []struct {
		item string
		qty  int64
	}{{"apple", 2}, {"pear", 1}, {"apple", 1}} {
		rt.Inject("add", datalog.Tuple{"c", a.item, a.qty})
	}
	rt.RunUntilIdle(10)
	if got := rows(rt, "items"); got != "[(c, apple, 2) (c, pear, 1)]" {
		t.Fatalf("items = %s", got)
	}
	for _, l := range rt.Table("items").Tuples() {
		rt.Inject("seal", datalog.Tuple{l[0], l[1], l[2], int64(2)})
	}
	rt.RunUntilIdle(10)
	if rows(rt, "manifest") != "[(c, apple, 2) (c, pear, 1)]" || rows(rt, "ready") != "[(c)]" {
		t.Fatalf("manifest %s, ready %s", rows(rt, "manifest"), rows(rt, "ready"))
	}
}

// newCartReplicas hosts CartSource once per name, wired so an addressed
// send from one replica is injected into the replica it names.
func newCartReplicas(t *testing.T, names ...string) map[string]*transducer.Runtime {
	t.Helper()
	c, err := Compile(hlang.CartSource, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps := map[string]*transducer.Runtime{}
	for i, name := range names {
		rt, err := c.Instantiate(name, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		rt.SetDelay(func(r *rand.Rand) int { return 1 })
		rt.Remote = func(node string, msg transducer.Message) { reps[node].Inject(msg.Mailbox, msg.Payload) }
		reps[name] = rt
	}
	return reps
}

// syncCart pushes from's items to the replica named to.
func syncCart(reps map[string]*transducer.Runtime, from, to string) {
	reps[from].Inject("sync", datalog.Tuple{to})
	reps[from].RunUntilIdle(10)
	reps[to].RunUntilIdle(10)
}

// TestCartReplicaSyncCommutes: a replica holding x=1 and one holding x=2
// and a seal end with the same items whichever pushes first.
func TestCartReplicaSyncCommutes(t *testing.T) {
	var got []string
	for _, order := range [][2]string{{"a", "b"}, {"b", "a"}} {
		reps := newCartReplicas(t, "a", "b")
		reps["a"].Inject("add", datalog.Tuple{"c", "x", int64(1)})
		reps["b"].Inject("add", datalog.Tuple{"c", "x", int64(2)})
		reps["b"].Inject("seal", datalog.Tuple{"c", "x", int64(2), int64(1)})
		reps["a"].RunUntilIdle(10)
		reps["b"].RunUntilIdle(10)
		syncCart(reps, order[0], order[1])
		syncCart(reps, order[1], order[0])
		if rows(reps["a"], "items") != rows(reps["b"], "items") {
			t.Fatalf("order %v: a %s, b %s", order, rows(reps["a"], "items"), rows(reps["b"], "items"))
		}
		got = append(got, rows(reps["a"], "items"))
	}
	if got[0] != got[1] || got[0] != "[(c, x, 2)]" {
		t.Fatalf("merged items by order: %v", got)
	}
}

// TestCartSyncLawsQuick: for random adds on three replicas and a random
// order of pushes, duplicates included, every replica ends with each
// item's greatest quantity: the merge is commutative, associative and
// idempotent.
func TestCartSyncLawsQuick(t *testing.T) {
	names := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		reps := newCartReplicas(t, names...)
		want := map[string]int64{}
		for _, name := range names {
			for i := r.Intn(5); i > 0; i-- {
				item, qty := []string{"x", "y", "z"}[r.Intn(3)], int64(r.Intn(5))
				reps[name].Inject("add", datalog.Tuple{"cart", item, qty})
				if q, ok := want[item]; !ok || qty > q {
					want[item] = qty
				}
			}
			reps[name].RunUntilIdle(10)
		}
		// Two passes over every ordered pair, each pass shuffled with
		// repeats, carry every replica's adds to every other.
		for pass := 0; pass < 2; pass++ {
			var pushes [][2]string
			for _, from := range names {
				for _, to := range names {
					if from != to {
						pushes = append(pushes, [2]string{from, to})
						if r.Intn(2) == 0 {
							pushes = append(pushes, [2]string{from, to})
						}
					}
				}
			}
			r.Shuffle(len(pushes), func(i, j int) { pushes[i], pushes[j] = pushes[j], pushes[i] })
			for _, p := range pushes {
				syncCart(reps, p[0], p[1])
			}
		}
		var expect []string
		for item, qty := range want {
			expect = append(expect, fmt.Sprint(datalog.Tuple{"cart", item, qty}))
		}
		sort.Strings(expect)
		for _, name := range names {
			if got := rows(reps[name], "items"); got != fmt.Sprint(expect) {
				t.Logf("seed %d: replica %s items %s, want %v", seed, name, got, expect)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCartSealChecksOutAtThreshold: the cart is ready once every sealed
// line is held at its quantity, not before, and checkout ships it then.
func TestCartSealChecksOutAtThreshold(t *testing.T) {
	rt := newAppRuntime(t, hlang.CartSource, nil)
	rt.Inject("add", datalog.Tuple{"c", "book", int64(1)})
	rt.Inject("seal", datalog.Tuple{"c", "book", int64(1), int64(2)})
	rt.Inject("seal", datalog.Tuple{"c", "pen", int64(2), int64(2)})
	rt.Inject("add", datalog.Tuple{"c", "pen", int64(1)})
	rt.RunUntilIdle(10)
	rt.Inject("checkout", datalog.Tuple{"c"})
	rt.RunUntilIdle(10)
	if rt.Table("ready").Len() != 0 || len(rt.Drain("shipped")) != 0 {
		t.Fatal("checked out holding 1 of 2 pens")
	}
	rt.Inject("add", datalog.Tuple{"c", "pen", int64(2)})
	rt.RunUntilIdle(10)
	rt.Inject("checkout", datalog.Tuple{"c"})
	rt.RunUntilIdle(10)
	if got := rt.Drain("shipped"); rows(rt, "ready") != "[(c)]" || len(got) != 1 {
		t.Fatalf("ready %s, shipped %v", rows(rt, "ready"), got)
	}
}

// TestCartHandlersNeedNoCoordination: with the seal at the client, every
// cart handler is monotone (checkout reads ready, a threshold on met's
// count), so consistency.Select gives each one MechNone.
func TestCartHandlersNeedNoCoordination(t *testing.T) {
	c, err := Compile(hlang.CartSource, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q := c.Analysis.Queries["ready"]; q.Mono != hlang.Monotone {
		t.Fatalf("ready is %v: %v", q.Mono, q.Reasons)
	}
	for name, ch := range consistency.Select(c.Program, c.Analysis) {
		if ch.Mechanism != consistency.MechNone {
			t.Errorf("%s: %v (%s)", name, ch.Mechanism, ch.Why)
		}
	}
}

// TestDerivedSendShapes: a derived send of arity 0 and an addressed one
// commit one message per derived row, IDs in staging order and derivation
// order within a send. An arity-0 row's payload is an empty Tuple, not
// nil; an addressed row's payload drops its destination column.
func TestDerivedSendShapes(t *testing.T) {
	rt := newAppRuntime(t, `
table peer(node: string, w: int) key(node)
on join(p: string, w: int) {
    merge peer(p, w)
}
on fan(v: int) {
    send ping() :- peer(p, w)
    send land@p(v, w) :- peer(p, w)
    send done(v)
}
`, nil)
	var log []string
	rt.SetObservationSink(func(box string, msgs []transducer.Message) {
		for _, m := range msgs {
			log = append(log, fmt.Sprintf("%s#%d%#v", box, m.ID, m.Payload))
		}
	})
	rt.Remote = func(node string, m transducer.Message) {
		log = append(log, fmt.Sprintf("%s/%s#%d%#v", node, m.Mailbox, m.ID, m.Payload))
	}
	for i, p := range []string{"n3", "n2", "n4"} {
		rt.Inject("join", datalog.Tuple{p, int64(10 + i)})
	}
	rt.RunUntilIdle(10)
	rt.Inject("fan", datalog.Tuple{int64(7)})
	rt.RunUntilIdle(10)
	want := "[ping#5datalog.Tuple{} ping#6datalog.Tuple{} ping#7datalog.Tuple{} done#11datalog.Tuple{7} " +
		"n3/land#8datalog.Tuple{7, 10} n2/land#9datalog.Tuple{7, 11} n4/land#10datalog.Tuple{7, 12}]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("messages:\n got %s\nwant %s", got, want)
	}
}

// TestAddressedSendRoutesByDestination: each derived row goes to the node
// its destination column names; a row addressed to the runtime itself is
// handled locally.
func TestAddressedSendRoutesByDestination(t *testing.T) {
	rt := newAppRuntime(t, `
table peer(node: string) key(node)
table got(v: int) key(v)
on join(p: string) {
    merge peer(p)
}
on fan(v: int) {
    send land@p(v) :- peer(p)
}
on poke(to: string, v: int) {
    send land@to(v)
}
on land(v: int) {
    merge got(v)
}
`, nil)
	remote := map[string][]datalog.Tuple{}
	rt.Remote = func(node string, msg transducer.Message) {
		if msg.Mailbox != "land" {
			t.Fatalf("remote mailbox %q", msg.Mailbox)
		}
		remote[node] = append(remote[node], msg.Payload)
	}
	for _, p := range []string{"n2", "n3"} {
		rt.Inject("join", datalog.Tuple{p})
	}
	rt.RunUntilIdle(10)
	rt.Inject("fan", datalog.Tuple{int64(7)})
	rt.Inject("poke", datalog.Tuple{"n1", int64(8)})
	rt.RunUntilIdle(10)
	if fmt.Sprint(remote) != "map[n2:[(7)] n3:[(7)]]" {
		t.Fatalf("remote sends = %v", remote)
	}
	if got := rows(rt, "got"); got != "[(8)]" {
		t.Fatalf("got = %s: the self-addressed poke was not handled here", got)
	}
}
