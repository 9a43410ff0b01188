// Package experiments implements the paper-reproduction experiment suite
// (DESIGN.md §4). Each Run function regenerates one table: the rows the
// paper's artifacts imply, with this repository's measured values. The
// bench harness (bench_test.go) and cmd/benchtab both call into here.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hydro/internal/cluster"
	"hydro/internal/consensus"
	"hydro/internal/consistency"
	"hydro/internal/crdt"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/lift/actor"
	"hydro/internal/lift/future"
	"hydro/internal/lift/mpi"
	"hydro/internal/shard"
	"hydro/internal/simnet"
	"hydro/internal/target"
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

func covidUDFs() map[string]hydrolysis.UDF {
	return map[string]hydrolysis.UDF{
		"covid_predict": func(args []any) any { return float64(args[0].(int64)%100) / 100.0 },
	}
}

func compileCovid() *hydrolysis.Compiled {
	c, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{UDFs: covidUDFs()})
	if err != nil {
		panic(err)
	}
	return c
}

func fixedDelay(r *rand.Rand) int { return 1 }

// --- E1: Fig 2 ≡ Fig 3 — sequential vs compiled HydroLogic ---

// RunE1 drives identical random workloads through the compiled HydroLogic
// COVID app and reports equivalence plus throughput.
func RunE1(ops int) Table {
	rt, err := compileCovid().Instantiate("n1", 1)
	if err != nil {
		panic(err)
	}
	rt.SetDelay(fixedDelay)
	r := rand.New(rand.NewSource(1))
	start := time.Now()
	for i := 0; i < ops; i++ {
		switch r.Intn(4) {
		case 0:
			rt.Inject("add_person", datalog.Tuple{int64(r.Intn(50)), "us"})
		case 1:
			rt.Inject("add_contact", datalog.Tuple{int64(r.Intn(50)), int64(r.Intn(50))})
		case 2:
			rt.Inject("diagnosed", datalog.Tuple{int64(r.Intn(50))})
		case 3:
			rt.Inject("vaccinate", datalog.Tuple{int64(r.Intn(50))})
		}
		rt.Tick()
	}
	rt.RunUntilIdle(100)
	elapsed := time.Since(start)
	st := rt.Stats()
	return Table{
		ID:     "E1",
		Title:  "COVID tracker: compiled HydroLogic vs sequential reference (Fig 2/3)",
		Header: []string{"ops", "ticks", "handled", "derived-facts", "wall-time", "ops/sec"},
		Rows: [][]string{{
			fmt.Sprint(ops), fmt.Sprint(st.Ticks), fmt.Sprint(st.Handled),
			fmt.Sprint(st.Derived), elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()),
		}},
		Notes: "differential equivalence vs the Fig-2 reference is asserted by TestE1CovidEquivalence",
	}
}

// --- The compiled COVID program on the sharded deployment (E2, E9) ---

// contactsPerTick is the load of one committed tick (per shard, in E9):
// this many mirrored add_contact merges, two base rows each.
const contactsPerTick = 4

// tickCost is what committed ticks of the sharded COVID deployment cost,
// averaged over the measured ticks.
type tickCost struct {
	decrees   float64 // submit + attempt + commit decrees per tick
	msgs      float64 // simnet messages sent per tick
	virtualMs float64 // virtual ms from Submit until Settle returns, per tick
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
		c.decrees += float64(m.SubmitDecrees + m.AttemptDecrees + m.CommitDecrees -
			m0.SubmitDecrees - m0.AttemptDecrees - m0.CommitDecrees)
		c.msgs += float64(cl.Net.Stats().Sent - sent0)
		elapsed += float64(cl.Net.Now() - start)
		rows += float64(len(ops))
	}
	n := float64(ticks)
	c.decrees /= n
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
		Header: []string{"mix", "contacts/tick", "decrees/tick", "msgs/tick", "virtual-ms/tick"},
	}
	for _, mix := range []struct {
		name    string
		deletes bool
	}{{"monotone (inserts)", false}, {"non-monotone (mirrored deletes)", true}} {
		c := shardedTickCost(shards, contactsPerTick, ticks, mix.deletes)
		t.Rows = append(t.Rows, []string{mix.name, fmt.Sprint(contactsPerTick),
			fmt.Sprintf("%.2f", c.decrees), fmt.Sprintf("%.1f", c.msgs), fmt.Sprintf("%.2f", c.virtualMs)})
	}
	t.Notes = "both mixes pay the same barrier protocol today (submit/attempt/commit decrees, a barrier per exchange round); " +
		"deletes add DRed's rounds. CALM says the insert-only ticks need neither decrees nor barriers: this gap is what a coordination-free monotone path closes"
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
	spec := c.Program.AvailabilityFor("add_contact")
	topo := cluster.NewTopology(3, 1, 1, cluster.ClassSmall)
	h := &hostedCovid{
		cl:      cluster.New(topo, simnet.Config{Seed: seed, MinLatency: 100, MaxLatency: 100}),
		replied: map[uint64]simnet.Time{},
	}
	machines, err := topo.SpreadAcross(cluster.Domain(spec.Domain), spec.Failures+1)
	if err != nil {
		panic(err)
	}
	for i, m := range machines {
		rt, err := c.Instantiate(m.ID, int64(i+1))
		if err != nil {
			panic(err)
		}
		rt.SetDelay(fixedDelay)
		h.cl.Host(m.ID, rt)
		h.replicas = append(h.replicas, m.ID)
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
		net := simnet.New(simnet.Config{Seed: 53, MinLatency: 100, MaxLatency: 100})
		g := consensus.NewGroup(net, 3, 53)
		before := net.Stats().Sent
		start := net.Now()
		for i := 0; i < ops; i++ {
			g.Propose("p0", i)
			for steps := 0; g.DecidedCount("p0") <= i && steps < 100000; steps++ {
				if !net.Step() {
					break
				}
			}
		}
		lat := (net.Now() - start) / simnet.Time(ops)
		msgs := float64(net.Stats().Sent-before) / float64(ops)
		t.Rows = append(t.Rows, []string{"serializable", "Paxos log", fmt.Sprint(lat), fmt.Sprintf("%.1f", msgs)})
	}
	t.Notes = "the compiler picks the cheapest tier the spec + CALM analysis permits (consistency.Select); " +
		"eventual counts the request and its reply only: no replica forwards the merge (E4 sends each request to all f+1); " +
		"serializable is a Paxos decision per op; no causal row: the runtime attaches no session metadata, " +
		"so the lattice tier Select picks for causal handlers has no mechanism to measure"
	return t
}

// --- E6: the §9.1 deployment ILP ---

// RunE6 solves the Fig 3 target facet and returns the allocation table.
func RunE6() Table {
	p, err := hlang.Parse(hlang.CovidSource)
	if err != nil {
		panic(err)
	}
	classes := []cluster.MachineClass{cluster.ClassSmall, cluster.ClassLarge, cluster.ClassGPU}
	loads := map[string]target.HandlerLoad{
		"add_person":  {RatePerSec: 50, ServiceMs: 2},
		"add_contact": {RatePerSec: 200, ServiceMs: 2},
		"trace":       {RatePerSec: 10, ServiceMs: 20},
		"diagnosed":   {RatePerSec: 5, ServiceMs: 20},
		"likelihood":  {RatePerSec: 5, ServiceMs: 40},
		"vaccinate":   {RatePerSec: 20, ServiceMs: 3},
	}
	plan, err := target.Solve(p, classes, loads, 8)
	if err != nil {
		panic(err)
	}
	t := Table{
		ID:     "E6",
		Title:  "Target facet: ILP deployment mapping for Fig 3 (§9.1)",
		Header: []string{"handler", "machines", "modeled-latency", "cost/call", "spec-latency", "spec-cost"},
	}
	for _, name := range []string{"add_contact", "add_person", "diagnosed", "likelihood", "trace", "vaccinate"} {
		a := plan.Allocations[name]
		spec := p.TargetFor(name)
		var parts []string
		for c, n := range a.Counts {
			parts = append(parts, fmt.Sprintf("%d×%s", n, c))
		}
		t.Rows = append(t.Rows, []string{
			name, strings.Join(parts, "+"), fmt.Sprintf("%.1fms", a.LatencyMs),
			fmt.Sprintf("%.6f", a.CostPerCall), fmt.Sprintf("%.0fms", spec.LatencyMs), fmt.Sprintf("%.2f", spec.Cost),
		})
	}
	t.Notes = fmt.Sprintf("total %d machines, %.2f units/hour; likelihood forced onto GPU class by processor=gpu",
		plan.Machines, plan.TotalHourly)
	return t
}

// --- E7: MPI collectives, naive vs tree vs ring ---

// RunE7 sweeps world sizes and schedules for bcast and allreduce.
func RunE7(sizes []int) Table {
	t := Table{
		ID:     "E7",
		Title:  "MPI collectives (Appendix A.3): schedule comparison, 10µs links + 5µs send overhead",
		Header: []string{"collective", "n", "algo", "messages", "virtual-time"},
	}
	sum := func(a, b any) any { return a.(int) + b.(int) }
	for _, n := range sizes {
		for _, algo := range []mpi.Algo{mpi.Naive, mpi.Tree, mpi.Ring} {
			net := simnet.New(simnet.Config{Seed: 1, MinLatency: 10, MaxLatency: 10, SendOverhead: 5})
			w := mpi.NewWorld(net, n)
			st := w.Bcast("b", 0, 1, algo)
			t.Rows = append(t.Rows, []string{"bcast", fmt.Sprint(n), algo.String(),
				fmt.Sprint(st.Messages), fmt.Sprintf("%dµs", st.Elapsed)})
		}
		for _, algo := range []mpi.Algo{mpi.Naive, mpi.Tree, mpi.Ring} {
			net := simnet.New(simnet.Config{Seed: 1, MinLatency: 10, MaxLatency: 10, SendOverhead: 5})
			w := mpi.NewWorld(net, n)
			for i := 0; i < n; i++ {
				w.SetLocal(i, 1)
			}
			st := w.Allreduce("ar", sum, algo)
			t.Rows = append(t.Rows, []string{"allreduce", fmt.Sprint(n), algo.String(),
				fmt.Sprint(st.Messages), fmt.Sprintf("%dµs", st.Elapsed)})
		}
	}
	t.Notes = "tree wins at scale on root-bottlenecked fan-out; ring trades latency for per-node balance"
	return t
}

// --- E8: semi-naive (differential) vs naive evaluation ---

// RunE8 measures transitive closure on chain graphs under both evaluators.
func RunE8(sizes []int) Table {
	t := Table{
		ID:     "E8",
		Title:  "Differential (semi-naive) vs all-at-once datalog evaluation (§8.2)",
		Header: []string{"chain-len", "evaluator", "derived", "wall-time", "speedup"},
	}
	tc := []datalog.Rule{
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
	prog, err := datalog.NewProgram(tc...)
	if err != nil {
		panic(err)
	}
	// NewProgram compiled plans and stratification already; both timed
	// sections below therefore compare evaluation strategies only.
	mkDB := func(n int) *datalog.Database {
		db := datalog.NewDatabase()
		e := db.Ensure("edge", 2)
		for i := 0; i < n; i++ {
			e.Insert(datalog.Tuple{int64(i), int64(i + 1)})
		}
		return db
	}
	for _, n := range sizes {
		dbS := mkDB(n)
		start := time.Now()
		dS, _ := prog.Eval(dbS)
		semiT := time.Since(start)

		dbN := mkDB(n)
		start = time.Now()
		dN, _ := prog.EvalNaive(dbN)
		naiveT := time.Since(start)
		t.Rows = append(t.Rows,
			[]string{fmt.Sprint(n), "semi-naive", fmt.Sprint(dS), semiT.Round(time.Microsecond).String(),
				fmt.Sprintf("%.1f×", float64(naiveT)/float64(max(1, semiT)))},
			[]string{fmt.Sprint(n), "naive", fmt.Sprint(dN), naiveT.Round(time.Microsecond).String(), "1.0×"},
		)
	}
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
		Header: []string{"shards", "contacts/tick", "decrees/tick", "msgs/tick", "virtual-ms/tick", "rows/vsec", fmt.Sprintf("vs-%d-shard", shardCounts[0])},
	}
	var base float64
	for _, n := range shardCounts {
		c := shardedTickCost(n, n*contactsPerTick, ticks, false)
		if base == 0 {
			base = c.rowsPerVSec
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(n * contactsPerTick),
			fmt.Sprintf("%.2f", c.decrees), fmt.Sprintf("%.1f", c.msgs), fmt.Sprintf("%.2f", c.virtualMs),
			fmt.Sprintf("%.0f", c.rowsPerVSec), fmt.Sprintf("%.1f×", c.rowsPerVSec/base)})
	}
	t.Notes = "every tick still pays the barrier protocol, so msgs/tick grow with the shards' exchange fan-out while virtual ms/tick stay near flat"
	return t
}

// --- E10: shopping cart seal placement ---

// RunE10 compares checkout designs: client-side sealing (coordination-free)
// vs running every checkout decision through consensus.
func RunE10(carts int) Table {
	t := Table{
		ID:     "E10",
		Title:  "Cart sealing (§7.1): seal-at-client vs consensus checkout",
		Header: []string{"design", "carts", "coordination-msgs", "virtual-time"},
	}
	// Client-side sealing: merges only; zero coordination messages.
	{
		for i := 0; i < carts; i++ {
			a := crdt.NewCart("a").AddItem("x", 1)
			b := crdt.NewCart("b").AddItem("y", 2)
			client := a.Merge(b).Seal(uint64(i + 1))
			av := a.Merge(client)
			bv := b.Merge(client)
			if !av.CheckedOut() || !bv.CheckedOut() {
				panic("seal checkout failed")
			}
		}
		t.Rows = append(t.Rows, []string{"seal-at-client", fmt.Sprint(carts), "0", "0µs (local merges only)"})
	}
	// Consensus checkout: one Paxos decision per cart.
	{
		net := simnet.New(simnet.Config{Seed: 60, MinLatency: 100, MaxLatency: 100})
		g := consensus.NewGroup(net, 3, 60)
		before := net.Stats().Sent
		startT := net.Now()
		for i := 0; i < carts; i++ {
			g.Propose("p0", fmt.Sprintf("checkout-%d", i))
			for steps := 0; g.DecidedCount("p0") <= i && steps < 100000; steps++ {
				if !net.Step() {
					break
				}
			}
		}
		t.Rows = append(t.Rows, []string{"consensus-checkout", fmt.Sprint(carts),
			fmt.Sprint(net.Stats().Sent - before), fmt.Sprintf("%dµs", net.Now()-startT)})
	}
	return t
}

// --- E11: monotonicity typechecker report ---

// RunE11 prints the analysis of the COVID program — the machine-checked
// answer to Fig 4's "manual checks are tricky".
func RunE11() Table {
	p, err := hlang.Parse(hlang.CovidSource)
	if err != nil {
		panic(err)
	}
	a := hlang.Analyze(p)
	t := Table{
		ID:     "E11",
		Title:  "Monotonicity typechecking of the COVID app (Fig 4 antidote)",
		Header: []string{"construct", "classification", "reason"},
	}
	for _, name := range p.QueryNames() {
		q := a.Queries[name]
		reason := ""
		if len(q.Reasons) > 0 {
			reason = q.Reasons[0].What
		}
		t.Rows = append(t.Rows, []string{"query " + name, q.Mono.String(), reason})
	}
	for _, h := range p.Handlers {
		info := a.Handlers[h.Name]
		reason := ""
		if len(info.Reasons) > 0 {
			reason = info.Reasons[0].What
		}
		t.Rows = append(t.Rows, []string{"on " + h.Name, info.Mono.String(), reason})
	}
	t.Notes = "the adversarial corpus (negation-through-views, aggregates, deletes) is in TestE11MonotonicityCorpus"
	return t
}

// --- E12: lifted runtimes throughput ---

// RunE12 measures actor message throughput and future resolution round
// trips on the transducer.
func RunE12(messages int) Table {
	t := Table{
		ID:     "E12",
		Title:  "Lifted runtimes on the transducer (Appendix A.1/A.2)",
		Header: []string{"runtime", "workload", "wall-time", "throughput"},
	}
	// Actors: ping-pong chain.
	{
		rt := transducer.New("n1", 1)
		rt.SetDelay(fixedDelay)
		sys := actor.NewSystem(rt)
		count := 0
		var a, b actor.ID
		a = sys.Spawn(func(ctx *actor.Ctx, msg any) {
			count++
			if count < messages {
				ctx.Send(b, "ping")
			}
		})
		b = sys.Spawn(func(ctx *actor.Ctx, msg any) { ctx.Send(a, "pong") })
		start := time.Now()
		sys.Send(a, "start")
		rt.RunUntilIdle(messages * 4)
		el := time.Since(start)
		t.Rows = append(t.Rows, []string{"actors", fmt.Sprintf("%d-msg ping-pong", count),
			el.Round(time.Millisecond).String(), fmt.Sprintf("%.0f msg/s", float64(count)/el.Seconds())})
	}
	// Futures: batch resolution.
	{
		rt := transducer.New("n2", 2)
		rt.SetDelay(fixedDelay)
		e := future.NewEngine(rt, future.Eager)
		var fs []future.Future
		for i := 0; i < messages; i++ {
			fs = append(fs, e.Remote(func(a any) any { return a.(int) + 1 }, i))
		}
		start := time.Now()
		if _, err := e.Get(fs, messages*4); err != nil {
			panic(err)
		}
		el := time.Since(start)
		t.Rows = append(t.Rows, []string{"futures", fmt.Sprintf("%d-promise batch", messages),
			el.Round(time.Millisecond).String(), fmt.Sprintf("%.0f fut/s", float64(messages)/el.Seconds())})
	}
	return t
}

// RunE5Mechanisms renders the compiler's per-handler mechanism choices —
// the qualitative half of E5.
func RunE5Mechanisms() Table {
	p, err := hlang.Parse(hlang.CovidSource)
	if err != nil {
		panic(err)
	}
	choices := consistency.Select(p, hlang.Analyze(p))
	t := Table{
		ID:     "E5b",
		Title:  "Consistency mechanism selection for the COVID app (§7.2)",
		Header: []string{"handler", "declared", "monotonicity", "mechanism", "local-only"},
	}
	for _, h := range p.Handlers {
		c := choices[h.Name]
		t.Rows = append(t.Rows, []string{h.Name, string(c.Level), c.Mono.String(),
			c.Mechanism.String(), fmt.Sprint(c.LocalOnly)})
	}
	return t
}

// --- E13: cross-tick incremental fixpoint maintenance ---

// RunE13 measures the amortized tick cost of the compiled COVID app on a
// small-delta/large-DB workload — a large prebuilt contact graph, then one
// contact merge plus one trace per tick — beside what re-deriving the
// queries from scratch every tick would cost: after each tick the base
// tables are copied into a fresh database and the query program evaluated
// over it, which is the `full` row. The speedup column is the
// O(delta)-vs-O(database) number at the application level.
func RunE13(chains, ops int) Table {
	c, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{UDFs: covidUDFs()})
	if err != nil {
		panic(err)
	}
	rt, err := c.Instantiate("n1", 1)
	if err != nil {
		panic(err)
	}
	rt.SetDelay(fixedDelay)
	// Prebuild: disjoint 48-person contact chains.
	for ch := 0; ch < chains; ch++ {
		base := int64(ch * 1000)
		for i := int64(0); i < 48; i++ {
			rt.Inject("add_contact", datalog.Tuple{base + i, base + i + 1})
		}
	}
	rt.RunUntilIdle(50)
	contacts := rt.Table("contacts").Len()
	var full, incremental time.Duration
	for i := 0; i < ops; i++ {
		u := int64(1_000_000 + 2*i)
		rt.Inject("add_contact", datalog.Tuple{u, u + 1})
		rt.Inject("trace", datalog.Tuple{u})
		start := time.Now()
		rt.Tick()
		incremental += time.Since(start)
		start = time.Now()
		scratch := datalog.NewDatabase()
		for _, tb := range c.Program.Tables {
			src := rt.Table(tb.Name)
			dst := scratch.Ensure(tb.Name, src.Arity)
			for _, row := range src.Tuples() {
				dst.Insert(row)
			}
		}
		if _, err := c.Queries.Eval(scratch); err != nil {
			panic(err)
		}
		full += time.Since(start)
	}
	perTick := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(ops) }
	return Table{
		ID:     "E13",
		Title:  "Cross-tick incremental fixpoint maintenance vs per-tick re-evaluation",
		Header: []string{"mode", "contacts", "ops", "µs/tick", "speedup"},
		Notes:  "each op = 1 contact merge + 1 trace against a prebuilt contact graph; full = base tables copied and the queries evaluated from scratch once per tick; equivalence is asserted by TestIncrementalTickMatchesFullEval, TestE1CovidEquivalence and the three-way differential test",
		Rows: [][]string{
			{"full", fmt.Sprint(contacts), fmt.Sprint(ops), fmt.Sprintf("%.1f", perTick(full)), "1.0×"},
			{"incremental", fmt.Sprint(contacts), fmt.Sprint(ops), fmt.Sprintf("%.1f", perTick(incremental)),
				fmt.Sprintf("%.1f×", perTick(full)/perTick(incremental))},
		},
	}
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
		machines, err := target.PlaceReplicas(topo, 3)
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
			fmt.Sprint(m.Elections), fmt.Sprint(m.Epoch), fmt.Sprint(m.AttemptDecrees),
			fmt.Sprint(m.FencedReqs + m.FencedCommits),
			fmt.Sprintf("%.1f", med), faultedCell})
	}
	return t
}
