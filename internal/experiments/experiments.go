// Package experiments implements the paper-reproduction experiment suite
// (DESIGN.md §4). Each Run function regenerates one table: the rows the
// paper's artifacts imply, with this repository's measured values. Every
// number in a table is determined by the code: virtual time, messages,
// decrees and counts from the compiled system, never the wall clock, so a
// table is the same on every run and host. All lists the tables
// cmd/benchtab prints; testdata/quick.golden pins them at quick parameters.
// Wall-clock costs are Go benchmarks beside the code they time.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hydro/internal/cluster"
	"hydro/internal/consensus"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/shard"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render formats the table for terminal output.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Row returns the first row whose first cell is key, or nil.
func (t Table) Row(key string) []string {
	for _, row := range t.Rows {
		if row[0] == key {
			return row
		}
	}
	return nil
}

// Experiment is one table of DESIGN.md §4 with its parameters bound.
type Experiment struct {
	ID  string
	Run func() Table
}

// All lists the experiments in DESIGN.md §4's order, at full parameters
// or, with quick, at the smaller ones CI and the golden test run.
func All(quick bool) []Experiment {
	scale := 1
	if quick {
		scale = 4
	}
	return []Experiment{
		{"E2", func() Table { return RunE2(80 / scale) }},
		{"E4", func() Table { return RunE4(40 / scale) }},
		{"E5", func() Table { return RunE5(20/scale + 1) }},
		{"E7", func() Table { return RunE7([]int{4, 16, 64}) }},
		{"E9", func() Table { return RunE9([]int{1, 2, 3, 5}, 80/scale) }},
		{"E10", func() Table { return RunE10(20 / scale) }},
		{"E12", func() Table { return RunE12(1000 / scale) }},
		{"E14", func() Table { return RunE14(12 / scale) }},
	}
}

func covidUDFs() map[string]hydrolysis.UDF {
	return map[string]hydrolysis.UDF{
		"covid_predict": func(args []any) any { return float64(args[0].(int64)%100) / 100.0 },
	}
}

// compile compiles one of the repository's HydroLogic sources.
func compile(src string, udfs map[string]hydrolysis.UDF) *hydrolysis.Compiled {
	c, err := hydrolysis.Compile(src, hydrolysis.Options{UDFs: udfs})
	if err != nil {
		panic(err)
	}
	return c
}

func compileCovid() *hydrolysis.Compiled { return compile(hlang.CovidSource, covidUDFs()) }

func fixedDelay(r *rand.Rand) int { return 1 }

// instantiate makes node name of c with one-tick send delays.
func instantiate(c *hydrolysis.Compiled, name string, seed int64) *transducer.Runtime {
	rt, err := c.Instantiate(name, seed)
	if err != nil {
		panic(err)
	}
	rt.SetDelay(fixedDelay)
	return rt
}

// hostOn instantiates c on each machine (seeds 1, 2, …), hosts the
// runtimes on cl, and returns the machine IDs.
func hostOn(cl *cluster.Cluster, c *hydrolysis.Compiled, machines []*cluster.Machine) []string {
	var ids []string
	for i, m := range machines {
		cl.Host(m.ID, instantiate(c, m.ID, int64(i+1)))
		ids = append(ids, m.ID)
	}
	return ids
}

// --- The compiled COVID program on the sharded deployment (E2, E9) ---

// contactsPerTick is the load of one committed tick (per shard, in E9):
// this many mirrored add_contact merges, two base rows each.
const contactsPerTick = 4

// tickCost is what committed ticks of the sharded COVID deployment cost,
// averaged over the measured ticks.
type tickCost struct {
	decrees   float64 // submit + commit decrees per tick
	phase1    float64 // Paxos phase-1 rounds the coordinators started, per tick
	msgs      float64 // simnet messages sent per tick
	virtualMs float64 // virtual ms from Submit until Settle returns, per tick
	rounds    float64 // component exchange rounds per tick (Metrics.Rounds)
	// rowsPerVSec is base rows committed per virtual second.
	rowsPerVSec float64
}

// shardedTickCost deploys the compiled COVID program on shards replicas
// (hydrolysis.InstantiateSharded), commits ticks unmeasured warm-up ticks
// and then ticks measured ones, and settles after each. A tick merges
// perTick contacts, always mirrored as (a,b) and (b,a) like add_contact:
// each attaches a new leaf to the hub of an 8-person star, so the closure
// grows by whole small components. With deletes, every tick also deletes
// the mirrored first contact of the tick before and restores the one it
// deleted itself — the rows a mirrored remove_contact handler would commit.
func shardedTickCost(shards, perTick, ticks int, deletes bool) tickCost {
	const star = 8
	cl := cluster.New(cluster.NewTopology(3, 2, 2, cluster.ClassSmall), simnet.DefaultConfig(int64(shards)))
	dep, err := compileCovid().InstantiateSharded(cl, fmt.Sprintf("covid%d", shards), shards, shard.Options{})
	if err != nil {
		panic(err)
	}
	contact := func(k int, del bool) []datalog.DeltaOp {
		hub, leaf := int64(k/(star-1)*star), int64(k/(star-1)*star+1+k%(star-1))
		return []datalog.DeltaOp{
			{Del: del, Pred: "contacts", T: datalog.Tuple{hub, leaf}},
			{Del: del, Pred: "contacts", T: datalog.Tuple{leaf, hub}},
		}
	}
	var c tickCost
	var rows, elapsed float64
	next, victim := 0, -1
	for i := 0; i < 2*ticks; i++ {
		var ops []datalog.DeltaOp
		if deletes && i > 0 {
			if victim >= 0 {
				ops = append(ops, contact(victim, false)...)
			}
			victim = next - perTick
			ops = append(ops, contact(victim, true)...)
		}
		for j := 0; j < perTick; j++ {
			ops = append(ops, contact(next, false)...)
			next++
		}
		m0, sent0, start := dep.Metrics(), cl.Net.Stats().Sent, cl.Net.Now()
		if err := dep.Submit(ops); err != nil {
			panic(err)
		}
		if !dep.Settle(2_000_000) {
			panic(fmt.Sprintf("sharded COVID tick %d on %d shards did not settle", i, shards))
		}
		if i < ticks {
			continue
		}
		m := dep.Metrics()
		c.decrees += float64(m.SubmitDecrees + m.CommitDecrees - m0.SubmitDecrees - m0.CommitDecrees)
		c.phase1 += float64(m.Phase1Rounds - m0.Phase1Rounds)
		c.rounds += float64(m.Rounds - m0.Rounds)
		c.msgs += float64(cl.Net.Stats().Sent - sent0)
		elapsed += float64(cl.Net.Now() - start)
		rows += float64(len(ops))
	}
	n := float64(ticks)
	c.decrees /= n
	c.phase1 /= n
	c.rounds /= n
	c.msgs /= n
	c.virtualMs = elapsed / 1000 / n
	c.rowsPerVSec = rows / (elapsed / 1e6)
	return c
}

// --- E2: CALM — what coordination costs a tick, monotone vs not ---

// RunE2 commits the COVID program's contact merges on a 3-shard deployment
// in two mixes — insert-only ticks, and ticks that also delete a mirrored
// contact — and reports decrees, messages and virtual time per tick.
func RunE2(ticks int) Table {
	const shards = 3
	t := Table{
		ID:     "E2",
		Title:  "CALM: price of coordination per committed tick, compiled COVID on 3 shards",
		Header: []string{"mix", "contacts/tick", "decrees/tick", "msgs/tick", "virtual-ms/tick", "phase-1/tick", "rounds/tick"},
	}
	for _, mix := range []struct {
		name    string
		deletes bool
	}{{"monotone (inserts)", false}, {"non-monotone (mirrored deletes)", true}} {
		c := shardedTickCost(shards, contactsPerTick, ticks, mix.deletes)
		t.Rows = append(t.Rows, []string{mix.name, fmt.Sprint(contactsPerTick),
			fmt.Sprintf("%.2f", c.decrees), fmt.Sprintf("%.1f", c.msgs), fmt.Sprintf("%.2f", c.virtualMs),
			fmt.Sprintf("%.2f", c.phase1), fmt.Sprintf("%.1f", c.rounds)})
	}
	t.Notes = "both mixes pay the same barrier protocol today (submit and commit decrees, prepare, staged ack and commit); " +
		"the closure is a local component, derived where its rows live, so neither mix steps an exchange round and a delete's DRed runs on each replica alone. " +
		"CALM says the insert-only ticks need neither decrees nor barriers: this gap is what a coordination-free monotone path closes"
	return t
}

// --- E4: availability under f failures across domains ---

// roundSlice is the virtual time between two ticks of the hosted runtimes;
// a reply's latency is resolved to within one slice.
const roundSlice simnet.Time = 10

// hostedCovid is cmd/covidd's placement of the compiled COVID program: one
// runtime on each of the f+1 machines that add_contact's availability spec
// asks for, each in its own failure domain, hosted on a cluster whose links
// take a fixed 100 µs. A client simnet node records when the first reply to
// each request arrives.
type hostedCovid struct {
	cl       *cluster.Cluster
	replicas []string
	replied  map[uint64]simnet.Time // request ID → first reply's arrival
	nextID   uint64
}

func newHostedCovid(seed int64) *hostedCovid {
	c := compileCovid()
	topo := cluster.NewTopology(3, 1, 1, cluster.ClassSmall)
	h := &hostedCovid{
		cl:      cluster.New(topo, simnet.Config{Seed: seed, MinLatency: 100, MaxLatency: 100}),
		replied: map[uint64]simnet.Time{},
	}
	var err error
	if h.replicas, err = c.PlaceAvailable(topo, "add_contact"); err != nil {
		panic(err)
	}
	for i, id := range h.replicas {
		h.cl.Host(id, instantiate(c, id, int64(i+1)))
	}
	// Tx.Reply routes a reply to client/add_contact<response>, with the
	// request ID as its first value.
	h.cl.Net.AddNode("client", func(now simnet.Time, msg simnet.Message) {
		if tm, ok := msg.Payload.(transducer.Message); ok {
			if id, ok := tm.Payload[0].(uint64); ok {
				if _, seen := h.replied[id]; !seen {
					h.replied[id] = now
				}
			}
		}
	})
	return h
}

// addContact sends one add_contact request from the client to each of the
// named replicas and runs the cluster until the first reply arrives, for
// at most 100 rounds. It returns the virtual time from send to that reply
// and whether one came.
func (h *hostedCovid) addContact(to []string, a, b int64) (simnet.Time, bool) {
	h.nextID++
	id, start := h.nextID, h.cl.Net.Now()
	for _, r := range to {
		h.cl.Net.Send("client", r, transducer.Message{Mailbox: "add_contact", Payload: datalog.Tuple{a, b}, ID: id, From: "client"})
	}
	for i := 0; i < 100; i++ {
		if at, ok := h.replied[id]; ok {
			return at - start, true
		}
		h.cl.Round(roundSlice)
	}
	return 0, false
}

// RunE4 hosts the compiled COVID program on the f+1 machines its
// availability spec asks for (f=2 across AZs), fails 0–3 AZs, and reports
// how many add_contact requests, each sent to every replica, get a reply.
func RunE4(requests int) Table {
	t := Table{
		ID:     "E4",
		Title:  "Availability facet: compiled COVID replicas vs failed AZs (f=2 spec, §6)",
		Header: []string{"failed-AZs", "live-replicas", "answered", "availability"},
	}
	for failed := 0; failed <= 3; failed++ {
		h := newHostedCovid(int64(40 + failed))
		for _, r := range h.replicas[:failed] {
			h.cl.FailDomain(cluster.AZ, h.cl.Topo.Get(r).AZ)
		}
		answered := 0
		for i := 0; i < requests; i++ {
			if _, ok := h.addContact(h.replicas, int64(i), int64(i+1)); ok {
				answered++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(failed), fmt.Sprint(h.cl.UpCount()), fmt.Sprintf("%d/%d", answered, requests),
			fmt.Sprintf("%.0f%%", 100*float64(answered)/float64(requests)),
		})
	}
	t.Notes = "f=2 across AZ: available through 2 AZ failures, unavailable at 3 (by design); a request is answered by its first reply over simnet"
	return t
}

// --- E5: consistency spectrum cost ---

// RunE5 reports the per-op latency and message cost of the two mechanism
// tiers the system runs (§7.2): a compiled runtime acking alone, and a
// Paxos decision.
func RunE5(ops int) Table {
	t := Table{
		ID:     "E5",
		Title:  "Consistency spectrum: mechanism cost per op (3 replicas, virtual µs)",
		Header: []string{"level", "mechanism", "latency/op", "msgs/op"},
	}
	// Eventual: a monotone add_contact committed and acknowledged by one
	// hosted compiled runtime of E4's replica set, round-robin.
	{
		h := newHostedCovid(51)
		before := h.cl.Net.Stats().Sent
		var total simnet.Time
		for i := 0; i < ops; i++ {
			lat, ok := h.addContact(h.replicas[i%len(h.replicas):][:1], int64(i), int64(i+1))
			if !ok {
				panic("E5: eventual add_contact got no reply")
			}
			total += lat
		}
		msgs := float64(h.cl.Net.Stats().Sent-before) / float64(ops)
		t.Rows = append(t.Rows, []string{"eventual", "compiled runtime, one replica acks", fmt.Sprint(total / simnet.Time(ops)), fmt.Sprintf("%.1f", msgs)})
	}
	// Serializable: Paxos round per op.
	{
		_, msgs, took := paxosLog(53, ops, func(i int) any { return i })
		t.Rows = append(t.Rows, []string{"serializable", "Paxos log", fmt.Sprint(took / simnet.Time(ops)), fmt.Sprintf("%.1f", float64(msgs)/float64(ops))})
	}
	t.Notes = "the compiler picks the cheapest tier the spec + CALM analysis permits (consistency.Select); " +
		"eventual counts the request and its reply only: no replica forwards the merge (E4 sends each request to all f+1); " +
		"serializable is a Paxos decision per op; no causal row: the runtime attaches no session metadata, " +
		"so the lattice tier Select picks for causal handlers has no mechanism to measure"
	return t
}

// paxosLog runs n decisions through a 3-acceptor Paxos group on a 100 µs
// fabric seeded with seed: it proposes value(i) through p0 and steps the
// network until p0 has decided it. It returns how many values p0 decided,
// the messages sent and the virtual time taken.
func paxosLog(seed int64, n int, value func(i int) any) (decided int, msgs uint64, took simnet.Time) {
	net := simnet.New(simnet.Config{Seed: seed, MinLatency: 100, MaxLatency: 100})
	g := consensus.NewGroup(net, 3, seed)
	for i := 0; i < n; i++ {
		g.Propose("p0", value(i))
		for steps := 0; g.DecidedCount("p0") <= i && steps < 100000; steps++ {
			if !net.Step() {
				break
			}
		}
	}
	return g.DecidedCount("p0"), net.Stats().Sent, net.Now()
}

// --- E7: MPI collectives, naive vs tree vs ring ---

// mpiWorld hosts the compiled MPISource on n machines, one rank each, over
// 10 µs links with 5 µs of NIC time per send. Rank 0 is the root.
type mpiWorld struct {
	cl    *cluster.Cluster
	ranks []string
}

// newMPIWorld loads each rank's schedule for one collective (mpiSchedule)
// as its child and succ rows.
func newMPIWorld(n int, collective, algo string) *mpiWorld {
	topo := cluster.NewTopology(1, 1, n, cluster.ClassSmall)
	w := &mpiWorld{cl: cluster.New(topo, simnet.Config{Seed: 1, MinLatency: 10, MaxLatency: 10, SendOverhead: 5})}
	w.ranks = hostOn(w.cl, compile(hlang.MPISource, nil), topo.Machines)
	for i, r := range w.ranks {
		rt := w.cl.Runtime(r)
		rt.Inject("join", datalog.Tuple{r, w.ranks[0]})
		children, succ := mpiSchedule(collective, algo, n, i)
		for _, c := range children {
			rt.Inject("adopt", datalog.Tuple{w.ranks[c]})
		}
		for _, s := range succ {
			rt.Inject("follow", datalog.Tuple{w.ranks[s]})
		}
		rt.RunUntilIdle(5)
	}
	return w
}

// mpiSchedule is rank i's part of an n-rank schedule rooted at rank 0: the
// ranks it lists as children and as its ring successor. A bcast's
// children are where it forwards (naive: the root lists every other rank;
// tree: a binary heap; ring: the next rank). An allreduce contribution fans
// out to its origin's children (naive: every other rank) or relays along
// succ (ring).
func mpiSchedule(collective, algo string, n, i int) (children, succ []int) {
	switch {
	case algo == "tree":
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n {
				children = append(children, c)
			}
		}
	case algo == "ring" && collective == "bcast":
		if i+1 < n {
			children = []int{i + 1}
		}
	case algo == "ring":
		if n > 1 {
			succ = []int{(i + 1) % n}
		}
	case collective == "bcast" && i > 0:
	default:
		for c := 0; c < n; c++ {
			if c != i {
				children = append(children, c)
			}
		}
	}
	return children, succ
}

// run advances the cluster in 1 µs rounds until done holds on every rank
// (at most 100 000 rounds) and returns the simnet messages sent, the
// messages the root sent, and the virtual time taken.
func (w *mpiWorld) run(done func(rt *transducer.Runtime) bool) (msgs, rootMsgs uint64, took simnet.Time) {
	root := w.cl.Runtime(w.ranks[0])
	sent, rootSent, start := w.cl.Net.Stats().Sent, root.Stats().Sent, w.cl.Net.Now()
	for rounds := 0; rounds < 100_000; rounds++ {
		all := true
		for _, r := range w.ranks {
			all = all && done(w.cl.Runtime(r))
		}
		if all {
			break
		}
		w.cl.Round(1)
	}
	return w.cl.Net.Stats().Sent - sent, root.Stats().Sent - rootSent, w.cl.Net.Now() - start
}

// bcast broadcasts one value from the root.
func (w *mpiWorld) bcast() (msgs, rootMsgs uint64, took simnet.Time) {
	w.cl.Runtime(w.ranks[0]).Inject("bcast", datalog.Tuple{int64(1)})
	return w.run(func(rt *transducer.Runtime) bool { return rt.Table("got").Len() == 1 })
}

// allreduce has every rank contribute 1 and runs until every rank's total
// is the world size.
func (w *mpiWorld) allreduce() (msgs, rootMsgs uint64, took simnet.Time) {
	for _, r := range w.ranks {
		w.cl.Runtime(r).Inject("allreduce", datalog.Tuple{r, int64(1)})
	}
	want := fmt.Sprint([]datalog.Tuple{{int64(len(w.ranks))}})
	return w.run(func(rt *transducer.Runtime) bool { return fmt.Sprint(rt.Table("total").Tuples()) == want })
}

// RunE7 sweeps world sizes and schedules for bcast and allreduce on the
// compiled MPISource.
func RunE7(sizes []int) Table {
	t := Table{
		ID:     "E7",
		Title:  "MPI collectives (Appendix A.3) as compiled HydroLogic: schedules as data, 10µs links + 5µs send overhead",
		Header: []string{"collective", "n", "algo", "messages", "root-sends", "virtual-time"},
	}
	row := func(collective string, n int, algo string, msgs, rootMsgs uint64, took simnet.Time) {
		t.Rows = append(t.Rows, []string{collective, fmt.Sprint(n), algo,
			fmt.Sprint(msgs), fmt.Sprint(rootMsgs), fmt.Sprintf("%dµs", took)})
	}
	for _, n := range sizes {
		for _, algo := range []string{"naive", "tree", "ring"} {
			msgs, rootMsgs, took := newMPIWorld(n, "bcast", algo).bcast()
			row("bcast", n, algo, msgs, rootMsgs, took)
		}
		for _, algo := range []string{"naive", "ring"} {
			msgs, rootMsgs, took := newMPIWorld(n, "allreduce", algo).allreduce()
			row("allreduce", n, algo, msgs, rootMsgs, took)
		}
	}
	t.Notes = "every bcast schedule sends n-1 messages; tree wins at scale because its root sends 2, not n-1; " +
		"ring's root sends 1 but the value takes n-1 hops. No tree allreduce: combining partial sums on the " +
		"way up needs a send that fires once, when a threshold is first met, and HydroLogic has none"
	return t
}

// --- E9: Anna — coordination-free partitioning scales out ---

// RunE9 runs the sharded COVID deployment at each shard count with a fixed
// load per shard (contactsPerTick mirrored contacts per shard per tick) and
// reports the cost of a committed tick and the base rows committed per
// virtual second, relative to the first shard count. Anna's claim (Wu et
// al., ICDE 2018) is that partitioned lattice state scales out; here it is
// measured on the partitioned dataflow that serves requests, in virtual time
// so that it does not depend on this host's cores.
func RunE9(shardCounts []int, ticks int) Table {
	t := Table{
		ID:     "E9",
		Title:  "Anna-style scale-out: compiled COVID deployment at a fixed load per shard",
		Header: []string{"shards", "contacts/tick", "decrees/tick", "msgs/tick", "virtual-ms/tick", "rows/vsec", fmt.Sprintf("vs-%d-shard", shardCounts[0]), "rounds/tick"},
	}
	var base float64
	for _, n := range shardCounts {
		c := shardedTickCost(n, n*contactsPerTick, ticks, false)
		if base == 0 {
			base = c.rowsPerVSec
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(n * contactsPerTick),
			fmt.Sprintf("%.2f", c.decrees), fmt.Sprintf("%.1f", c.msgs), fmt.Sprintf("%.2f", c.virtualMs),
			fmt.Sprintf("%.0f", c.rowsPerVSec), fmt.Sprintf("%.1f×", c.rowsPerVSec/base), fmt.Sprintf("%.1f", c.rounds)})
	}
	t.Notes = "every tick still pays the barrier protocol, so msgs/tick grow by a prepare, staged ack, commit and its ack per added shard; " +
		"the closure is a local component, so no tick steps an exchange round and virtual ms/tick stay near flat"
	return t
}

// --- E10: shopping cart seal placement ---

// RunE10 compares two checkouts of two-line carts: CartSource on two
// hosted replicas with the seal placed at the client, which sends each
// replica the adds and then the seal, and a Paxos decision per checkout. A
// checkout's messages and virtual time run from the seal (the proposal)
// until every replica is ready (the decision).
func RunE10(carts int) Table {
	t := Table{
		ID:     "E10",
		Title:  "Cart sealing (§7.1): seal-at-client vs consensus checkout",
		Header: []string{"design", "carts", "checked-out", "replica-to-replica", "msgs/checkout", "virtual-time/checkout"},
	}
	row := func(design string, done, of int, between, msgs uint64, took simnet.Time) {
		t.Rows = append(t.Rows, []string{design, fmt.Sprint(carts), fmt.Sprintf("%d/%d", done, of), fmt.Sprint(between),
			fmt.Sprintf("%.1f", float64(msgs)/float64(carts)), fmt.Sprintf("%dµs", took/simnet.Time(carts))})
	}
	{
		topo := cluster.NewTopology(2, 1, 1, cluster.ClassSmall)
		cl := cluster.New(topo, simnet.Config{Seed: 60, MinLatency: 100, MaxLatency: 100})
		replicas := hostOn(cl, compile(hlang.CartSource, nil), topo.Machines)
		cl.Net.AddNode("client", func(simnet.Time, simnet.Message) {})
		toAll := func(box string, payload datalog.Tuple) {
			for _, r := range replicas {
				cl.Net.Send("client", r, transducer.Message{Mailbox: box, Payload: payload, From: "client"})
			}
		}
		ready := func(cart string) int {
			n := 0
			for _, r := range replicas {
				if len(cl.Runtime(r).Table("ready").Lookup([]int{0}, []any{cart})) > 0 {
					n++
				}
			}
			return n
		}
		lines := []datalog.Tuple{{"x", int64(1)}, {"y", int64(2)}}
		checkedOut, msgs, took := 0, uint64(0), simnet.Time(0)
		for i := 0; i < carts; i++ {
			cart := fmt.Sprint("cart-", i)
			for _, l := range lines {
				toAll("add", datalog.Tuple{cart, l[0], l[1]})
			}
			sent, start := cl.Net.Stats().Sent, cl.Net.Now()
			for _, l := range lines {
				toAll("seal", datalog.Tuple{cart, l[0], l[1], int64(len(lines))})
			}
			for rounds := 0; ready(cart) < len(replicas) && rounds < 100; rounds++ {
				cl.Round(roundSlice)
			}
			checkedOut += ready(cart)
			msgs += cl.Net.Stats().Sent - sent
			took += cl.Net.Now() - start
		}
		// Every message a replica commits counts, so none to each other
		// means no replica sent anything.
		between := uint64(0)
		for _, r := range replicas {
			between += cl.Runtime(r).Stats().Sent
		}
		row("seal-at-client", checkedOut, carts*len(replicas), between, msgs, took)
	}
	// Consensus checkout: one Paxos decision per cart among 3 acceptors.
	{
		decided, msgs, took := paxosLog(60, carts, func(i int) any { return fmt.Sprintf("checkout-%d", i) })
		row("consensus-checkout", decided, carts, msgs, msgs, took)
	}
	t.Notes = "seal-at-client: the client sends each replica every line of its seal and the replicas never talk; " +
		"consensus: every message is between the 3 Paxos replicas"
	return t
}

// --- E12: Appendix A.1/A.2 programs on the transducer ---

// RunE12 runs the compiled ActorsSource and FuturesSource on one runtime
// each: actor ping-pong for messages round trips, and a batch of messages
// eager futures of f(x) = x+1.
func RunE12(messages int) Table {
	t := Table{
		ID:     "E12",
		Title:  "Actors and futures (Appendix A.1/A.2) as compiled HydroLogic",
		Header: []string{"program", "workload", "handled", "per-op", "ticks"},
	}
	{
		rt := instantiate(compile(hlang.ActorsSource, nil), "n1", 1)
		rt.Inject("play", datalog.Tuple{"a", "b", int64(messages)})
		ticks := rt.RunUntilIdle(messages * 4)
		handled := rt.Stats().Handled - 1 // the play that starts the game
		t.Rows = append(t.Rows, []string{"actors", fmt.Sprintf("%d-round-trip ping-pong", messages), fmt.Sprint(handled),
			fmt.Sprintf("%.2f msgs/round trip", float64(handled)/float64(messages)), fmt.Sprint(ticks)})
	}
	{
		rt := instantiate(compile(hlang.FuturesSource, map[string]hydrolysis.UDF{
			"f": func(args []any) any { return args[0].(int64) + 1 },
		}), "n2", 2)
		for i := 0; i < messages; i++ {
			rt.Inject("remote", datalog.Tuple{int64(i), int64(i)})
		}
		ticks := rt.RunUntilIdle(messages * 4)
		resolved := 0
		for _, tup := range rt.Table("resolved").Tuples() {
			if tup[1] == tup[0].(int64)+1 {
				resolved++
			}
		}
		t.Rows = append(t.Rows, []string{"futures", fmt.Sprintf("%d-promise batch", messages), fmt.Sprint(rt.Stats().Handled),
			fmt.Sprintf("%d/%d resolved to f(x)", resolved, messages), fmt.Sprint(ticks)})
	}
	return t
}

// --- E14: replicated coordinator — failover recovery windows ---

// RunE14 measures the replicated control plane (DESIGN.md §13): a
// transitive-closure deployment runs a tick sequence three times —
// healthy, with the leader killed mid-tick, and with the leader
// partitioned mid-tick — and reports elections, epoch movement, fenced
// stale traffic, and the recovery window (virtual time for the faulted
// tick versus a healthy one). Correctness under the same faults is pinned
// by the failover chaos suite; this table is the cost side.
func RunE14(ticks int) Table {
	t := Table{
		ID:     "E14",
		Title:  "Replicated coordinator: leader failover recovery windows",
		Header: []string{"mode", "ticks", "elections", "epoch", "attempts", "fenced", "healthy ms/tick", "faulted tick ms"},
		Notes:  "virtual time; fault injected mid-tick at tick N/2, faulted coordinator recovered after the tick settles; byte-level equivalence under the same faults is asserted by the shard failover suite",
	}
	if ticks < 4 {
		ticks = 4
	}
	rules := []datalog.Rule{
		{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}},
			Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
		},
		{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("z")}},
			Body: []datalog.Literal{
				{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
				{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("y"), datalog.V("z")}}},
			},
		},
	}
	edb := map[string]int{"edge": 2}
	for _, mode := range []string{"healthy", "leader-kill", "leader-partition"} {
		prog, err := datalog.NewProgram(rules...)
		if err != nil {
			panic(err)
		}
		topo := cluster.NewTopology(3, 2, 2, cluster.ClassSmall)
		cl := cluster.New(topo, simnet.DefaultConfig(14))
		machines, err := topo.SpreadAcross(cluster.AZ, 3)
		if err != nil {
			panic(err)
		}
		dep, err := shard.Deploy(cl, "e14", prog, edb, machines, shard.Options{})
		if err != nil {
			panic(err)
		}
		faultTick := ticks / 2
		var healthy []float64
		faulted := 0.0
		for i := 0; i < ticks; i++ {
			ops := []datalog.DeltaOp{
				{Pred: "edge", T: datalog.Tuple{int64(i), int64(i + 1)}},
				{Pred: "edge", T: datalog.Tuple{int64(i + 1), int64((i + 7) % (ticks + 1))}},
			}
			if i > 0 && i%3 == 0 {
				ops = append(ops, datalog.DeltaOp{Del: true, Pred: "edge", T: datalog.Tuple{int64(i - 3), int64(i - 2)}})
			}
			if err := dep.Submit(ops); err != nil {
				panic(err)
			}
			victim := ""
			if i == faultTick && mode != "healthy" {
				victim = dep.Leader()
				if mode == "leader-kill" {
					dep.KillCoordinator(victim)
				} else {
					for _, other := range append(dep.Coordinators(), dep.Replicas()...) {
						if other != victim {
							cl.Net.Partition(victim, other)
						}
					}
				}
			}
			start := cl.Net.Now()
			if !dep.Settle(2_000_000) {
				panic(fmt.Sprintf("E14 %s: tick %d did not settle", mode, i))
			}
			ms := float64(cl.Net.Now()-start) / 1000.0
			if victim != "" {
				faulted = ms
				if mode == "leader-partition" {
					for _, other := range append(dep.Coordinators(), dep.Replicas()...) {
						if other != victim {
							cl.Net.Heal(victim, other)
						}
					}
				}
				dep.RecoverCoordinator(victim)
			} else {
				healthy = append(healthy, ms)
			}
		}
		med := 0.0
		if len(healthy) > 0 {
			sorted := append([]float64(nil), healthy...)
			sort.Float64s(sorted)
			med = sorted[len(sorted)/2]
		}
		m := dep.Metrics()
		if m.DoubleCommits != 0 {
			panic(fmt.Sprintf("E14 %s: double commits", mode))
		}
		faultedCell := "-"
		if mode != "healthy" {
			faultedCell = fmt.Sprintf("%.1f", faulted)
		}
		t.Rows = append(t.Rows, []string{mode, fmt.Sprint(ticks),
			fmt.Sprint(m.Elections), fmt.Sprint(m.Epoch), fmt.Sprint(m.Attempts),
			fmt.Sprint(m.FencedReqs + m.FencedCommits),
			fmt.Sprintf("%.1f", med), faultedCell})
	}
	return t
}
