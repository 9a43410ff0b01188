package shard_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/shard"
	"hydro/internal/simnet"
)

// The failover chaos suite (DESIGN.md §13): kill or partition the acting
// leader at every coordinator stage and require the deployment to
// converge to the same byte-identical fixpoint as a never-failed
// single-coordinator deployment and the single-node incremental oracle,
// with zero double commits and zero lost ticks.

// failoverStages is the kill schedule: every driver stage from prepare
// through commit.
var failoverStages = []int{
	shard.StagePrepare, shard.StageDecide, shard.StageCommit,
}

func stageName(s int) string {
	names := map[int]string{
		shard.StageIdle: "idle", shard.StagePrepare: "prepare",
		shard.StageDecide: "decide", shard.StageCommit: "commit",
	}
	return names[s]
}

// isolate cuts every link between node and the rest of the deployment —
// a partitioned leader keeps its timers and its delusions, unlike a
// killed one.
func isolate(net *simnet.Network, dep *shard.Deployment, node string) {
	for _, other := range append(dep.Coordinators(), dep.Replicas()...) {
		if other != node {
			net.Partition(node, other)
		}
	}
}

func healAll(net *simnet.Network, dep *shard.Deployment, node string) {
	for _, other := range append(dep.Coordinators(), dep.Replicas()...) {
		if other != node {
			net.Heal(node, other)
		}
	}
}

// failoverRules covers every kind of component the replicas run under a
// driver stage: the closure over link runs DRed exchange rounds, and the
// negation layer's component is non-monotone and local (a recompute on
// each replica alone).
var failoverRules = append(append([]datalog.Rule{}, linkRules...), datalog.Rule{
	Head: datalog.Atom{Pred: "dead", Args: []datalog.Term{datalog.V("x")}},
	Body: []datalog.Literal{
		{Atom: datalog.Atom{Pred: "node", Args: []datalog.Term{datalog.V("x")}}},
		{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("x")}}, Negated: true},
	},
})

var failoverTicks = [][]datalog.DeltaOp{
	{ins("edge", "a", "b"), ins("edge", "b", "c"), ins("node", "a"), ins("node", "c")},
	{ins("edge", "c", "a"), ins("node", "b"), ins("edge", "c", "d")}, // closes a cycle
	{del("edge", "b", "c"), ins("edge", "b", "d")},                   // cut mid-cycle: delete-heavy DRed
	{del("edge", "c", "d"), ins("edge", "d", "a"), ins("node", "d")},
}

var probeTick = []datalog.DeltaOp{ins("edge", "p", "q"), ins("node", "p")}

// runFailoverScenario drives ticks through a replicated deployment whose
// leader is killed (or partitioned) the first time the driver reaches
// `stage` on tick `killTick`, comparing every settled tick against a
// never-failed single-coordinator deployment and the single-node
// incremental oracle. It returns the name of the faulted coordinator
// ("" if the stage never fired).
func runFailoverScenario(t *testing.T, rules []datalog.Rule, ticks [][]datalog.DeltaOp,
	n int, seed int64, stage int, killTick uint64, partition bool, fallback bool) string {
	t.Helper()
	prog, err := datalog.NewProgram(rules...)
	if err != nil {
		t.Fatalf("bad program: %v", err)
	}
	oprog, err := datalog.NewProgram(rules...)
	if err != nil {
		t.Fatal(err)
	}
	cl, dep := newDeployment(t, prog, tcEDB, n, seed)
	_, oracleDep := newDeploymentWith(t, shard.DeployOneCoordinator, oprog, tcEDB, n, seed)
	ref := newOracle(t, prog, tcEDB)

	faulted := ""
	dep.SetStageHook(func(node string, tick, att uint64, stg int) {
		if faulted != "" {
			return
		}
		hit := stg == stage && tick == killTick
		// Fallback for randomized programs where the target stage may never
		// fire: fault at whatever stage the driver is in two ticks later.
		if fallback && !hit && tick >= killTick+2 && stg != shard.StageIdle {
			hit = true
		}
		if !hit {
			return
		}
		faulted = node
		if partition {
			isolate(cl.Net, dep, node)
		} else {
			dep.KillCoordinator(node)
		}
	})

	check := func(i int, label string) {
		t.Helper()
		want := ref.dump(dep.Placement().Preds)
		if got := dep.DumpString(); got != want {
			t.Fatalf("tick %d (%s): replicated deployment diverged:\n%s\nwant:\n%s", i, label, got, want)
		}
		if got := oracleDep.DumpString(); got != want {
			t.Fatalf("tick %d (%s): single-coordinator oracle diverged:\n%s\nwant:\n%s", i, label, got, want)
		}
		if err := dep.CheckMirrors(); err != nil {
			t.Fatalf("tick %d (%s): %v", i, label, err)
		}
	}
	for i, ops := range ticks {
		if err := dep.Submit(ops); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if err := oracleDep.Submit(ops); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not settle (stage=%s partition=%v):\n%s",
				i, stageName(stage), partition, dep.DebugString())
		}
		if !oracleDep.Settle(settleBudget) {
			t.Fatalf("tick %d: oracle did not settle", i)
		}
		ref.tick(t, ops)
		check(i, "under fault")
	}
	m := dep.Metrics()
	if m.DoubleCommits != 0 {
		t.Fatalf("double commits: %d", m.DoubleCommits)
	}
	if faulted != "" && m.Elections < 1 {
		t.Fatalf("leader faulted at %s but no election happened: %+v", stageName(stage), m)
	}
	if m.CommittedTicks != uint64(len(ticks)) {
		t.Fatalf("lost ticks: committed %d of %d", m.CommittedTicks, len(ticks))
	}

	// Recover the faulted coordinator and prove the deployment still
	// makes progress (and the rejoined node does no damage).
	if faulted != "" {
		if partition {
			healAll(cl.Net, dep, faulted)
		}
		dep.RecoverCoordinator(faulted)
	}
	if err := dep.Submit(probeTick); err != nil {
		t.Fatal(err)
	}
	if err := oracleDep.Submit(probeTick); err != nil {
		t.Fatal(err)
	}
	if !dep.Settle(settleBudget) {
		t.Fatalf("probe tick after recovery did not settle:\n%s", dep.DebugString())
	}
	if !oracleDep.Settle(settleBudget) {
		t.Fatal("oracle probe tick did not settle")
	}
	ref.tick(t, probeTick)
	check(len(ticks), "after recovery")
	if m := dep.Metrics(); m.DoubleCommits != 0 {
		t.Fatalf("double commits after recovery: %d", m.DoubleCommits)
	}
	return faulted
}

// TestFailoverLeaderKillEveryStage kills — and separately partitions —
// the acting leader at every driver stage from prepare through commit on
// a fixed workload that reaches all of them, requiring byte-identical
// fixpoints against both oracles every time.
func TestFailoverLeaderKillEveryStage(t *testing.T) {
	for _, stage := range failoverStages {
		for _, partition := range []bool{false, true} {
			stage, partition := stage, partition
			mode := "kill"
			if partition {
				mode = "partition"
			}
			t.Run(fmt.Sprintf("%s-%s", stageName(stage), mode), func(t *testing.T) {
				t.Parallel()
				faulted := runFailoverScenario(t, failoverRules, failoverTicks, 3, 404, stage, 2, partition, false)
				if faulted == "" {
					t.Fatalf("stage %s never fired on tick 2 — kill schedule has a coverage hole", stageName(stage))
				}
			})
		}
	}
	// The ops window: prepare carries each replica's routed ops, and the
	// leader is faulted once every replica has applied them, before any
	// prepare answer can reach it. The successor's prepare must roll those
	// ops back before it applies its own.
	for _, mode := range []string{"kill", "partition"} {
		mode := mode
		t.Run("ops-"+mode, func(t *testing.T) {
			t.Parallel()
			runInFlightFault(t, shard.StagePrepare, 3, mode == "partition")
		})
	}
}

// TestFailoverChaos50Seeds is the randomized sweep: 50 seeds of random
// programs and delete-heavy tick sequences, each with the leader faulted
// at a seed-chosen stage (kill on even seeds, partition on odd), always
// compared against the never-failed single-coordinator deployment and
// the single-node incremental fixpoint.
func TestFailoverChaos50Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed sweep")
	}
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rules := randShardRules(rand.New(rand.NewSource(seed)))
			ticks := randTicks(rand.New(rand.NewSource(seed ^ 0x5eed)))
			stage := failoverStages[seed%int64(len(failoverStages))]
			n := 2 + int(seed%3)
			faulted := runFailoverScenario(t, rules, ticks, n, 1000+seed, stage, 2, seed%2 == 1, true)
			if faulted == "" {
				t.Fatalf("no fault injected for seed %d", seed)
			}
		})
	}
}

// TestFailoverCommitFinalize pins the decree/broadcast boundary: a leader
// killed at stDecide (commit not yet on the log) forces the successor to
// re-drive the tick with a fresh attempt, while a leader killed at
// stCommit (commit decreed, broadcast lost) must be finalized by the
// successor with NO new attempt — re-driving a sealed tick would be a
// correctness bug, not a retry.
func TestFailoverCommitFinalize(t *testing.T) {
	t.Run("decide-redrives", func(t *testing.T) {
		runFailoverScenario(t, failoverRules, failoverTicks, 3, 405, shard.StageDecide, 2, false, false)
		// Equivalence is the load-bearing assertion; attempt accounting below.
	})
	t.Run("commit-finalizes", func(t *testing.T) {
		prog, err := datalog.NewProgram(failoverRules...)
		if err != nil {
			t.Fatal(err)
		}
		_, dep := newDeployment(t, prog, tcEDB, 3, 406)
		killed := ""
		dep.SetStageHook(func(node string, tick, att uint64, stg int) {
			if killed == "" && tick == 2 && stg == shard.StageCommit {
				killed = node
				dep.KillCoordinator(node)
			}
		})
		ref := newOracle(t, prog, tcEDB)
		for i, ops := range failoverTicks {
			if err := dep.Submit(ops); err != nil {
				t.Fatal(err)
			}
			if !dep.Settle(settleBudget) {
				t.Fatalf("tick %d did not settle:\n%s", i, dep.DebugString())
			}
			ref.tick(t, ops)
		}
		if killed == "" {
			t.Fatal("stCommit never fired on tick 2")
		}
		m := dep.Metrics()
		// The tick whose commit broadcast died with the leader was already
		// sealed on the quorum log: the successor finalizes it, so every
		// tick still costs exactly one attempt.
		if m.Attempts != uint64(len(failoverTicks)) {
			t.Fatalf("commit-finalize re-drove a sealed tick: %d attempts for %d ticks", m.Attempts, len(failoverTicks))
		}
		if m.Elections < 1 || m.DoubleCommits != 0 {
			t.Fatalf("bad failover metrics: %+v", m)
		}
		if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
			t.Fatalf("diverged:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestFailoverLeaderPausedAtDecideResumes pauses the leader the instant
// it enters stDecide on tick 2 (its commit decree not yet on the log) and
// brings it back after 100 ms of virtual time, well before any standby's
// election timeout. Still the leader, it must keep waiting for that
// decree: a second attempt of the tick in the same epoch would be sealed
// by the first attempt's decree, or double-committed by its own.
func TestFailoverLeaderPausedAtDecideResumes(t *testing.T) {
	prog, err := datalog.NewProgram(failoverRules...)
	if err != nil {
		t.Fatal(err)
	}
	cl, dep := newDeployment(t, prog, tcEDB, 3, 407)
	ref := newOracle(t, prog, tcEDB)
	paused := ""
	dep.SetStageHook(func(node string, tick, att uint64, stg int) {
		if paused == "" && tick == 2 && stg == shard.StageDecide {
			paused = node
			dep.KillCoordinator(node)
		}
	})
	for i, ops := range failoverTicks {
		if err := dep.Submit(ops); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			cl.Net.RunUntil(cl.Net.Now() + 100_000)
			if paused == "" {
				t.Fatal("stDecide never fired on tick 2")
			}
			dep.RecoverCoordinator(paused)
		}
		if !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not settle:\n%s", i, dep.DebugString())
		}
		ref.tick(t, ops)
	}
	m := dep.Metrics()
	if m.Elections != 0 || m.DoubleCommits != 0 || m.Attempts != uint64(len(failoverTicks)) {
		t.Fatalf("paused leader did not resume its attempt: %+v", m)
	}
	if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
		t.Fatalf("diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailoverMidExchange faults the leader while its replicas run their
// exchange rounds without it: half a hop after every replica holds its
// peers' batches of tick 2's first round, and before any staged ack can
// reach the leader. The replicas still step the tick's rounds, exchange
// their batches, accept them and answer a leader that is gone; the
// successor restarts the attempt over their staging.
func TestFailoverMidExchange(t *testing.T) {
	for _, partition := range []bool{false, true} {
		mode := "kill"
		if partition {
			mode = "partition"
		}
		t.Run(mode, func(t *testing.T) {
			runInFlightFault(t, shard.StagePrepare, 5, partition)
		})
	}
}

// runInFlightFault faults the leader while its first request of `stage`
// on tick 2 is with the replicas. Every hop takes exactly one hop time,
// and a helper node's timer faults the leader halfHops half hops after it
// enters the stage: 3 is after every replica holds the request, and 5
// after every replica holds its peers' batches of the tick's first round,
// both before any answer can reach the leader. Every tick must still
// settle to the single-node incremental fixpoint, with one election and no
// double commit.
func runInFlightFault(t *testing.T, stage, halfHops int, partition bool) {
	t.Helper()
	const hop = simnet.Time(100)
	prog, err := datalog.NewProgram(failoverRules...)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewTopology(3, 2, 2, cluster.ClassSmall)
	cl := cluster.New(topo, simnet.Config{Seed: 408, MinLatency: hop, MaxLatency: hop})
	machines, err := topo.SpreadAcross(cluster.AZ, 3)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := shard.Deploy(cl, "dep3", prog, tcEDB, machines, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := newOracle(t, prog, tcEDB)

	leader, faulted, moved := "", false, 0
	cl.Net.AddNode("fault-timer", func(simnet.Time, simnet.Message) {
		faulted = true
		if partition {
			isolate(cl.Net, dep, leader)
		} else {
			dep.KillCoordinator(leader)
		}
	})
	dep.SetStageHook(func(node string, tick, _ uint64, stg int) {
		switch {
		case faulted:
		case leader != "":
			moved++ // the leader collected the stage's answers before the fault
		case tick == 2 && stg == stage:
			leader = node
			cl.Net.After("fault-timer", simnet.Time(halfHops)*hop/2, nil)
		}
	})

	for i, ops := range failoverTicks {
		if err := dep.Submit(ops); err != nil {
			t.Fatal(err)
		}
		if !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not settle:\n%s", i, dep.DebugString())
		}
		ref.tick(t, ops)
		if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
			t.Fatalf("tick %d diverged:\n%s\nwant:\n%s", i, got, want)
		}
		if err := dep.CheckMirrors(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if m := dep.Metrics(); m.DoubleCommits != 0 {
			t.Fatalf("tick %d: double commits: %+v", i, m)
		}
	}
	if !faulted || moved != 0 {
		t.Fatalf("fault missed the %s window: faulted=%v, %d stage moves before it", stageName(stage), faulted, moved)
	}
	m := dep.Metrics()
	if m.Elections < 1 || m.CommittedTicks != uint64(len(failoverTicks)) {
		t.Fatalf("want an election and every tick committed: %+v", m)
	}
}

// TestDeposedLeaderFenced delivers a deposed leader's stale commit
// broadcasts to the data replicas AFTER its successor has moved the
// epoch forward, and proves the epoch fence drops every one of them: the
// fenced counter rises, replica state does not move, and the deposed
// leader steps down once it rejoins the control plane.
func TestDeposedLeaderFenced(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	cl, dep := newDeployment(t, prog, tcEDB, 3, 777)
	ref := newOracle(t, prog, tcEDB)

	tick1 := []datalog.DeltaOp{ins("edge", "a", "b"), ins("edge", "b", "c")}
	if err := dep.Submit(tick1); err != nil {
		t.Fatal(err)
	}
	if !dep.Settle(settleBudget) {
		t.Fatal("tick 1 did not settle")
	}
	ref.tick(t, tick1)

	// Partition the leader from everything the instant it enters stCommit
	// for tick 2: the commit is decreed on the quorum log, but the
	// broadcast never leaves the leader's island.
	deposed := ""
	dep.SetStageHook(func(node string, tick, att uint64, stg int) {
		if deposed == "" && tick == 2 && stg == shard.StageCommit {
			deposed = node
			isolate(cl.Net, dep, node)
		}
	})
	tick2 := []datalog.DeltaOp{ins("edge", "c", "d"), del("edge", "a", "b")}
	if err := dep.Submit(tick2); err != nil {
		t.Fatal(err)
	}
	if !dep.Settle(settleBudget) {
		t.Fatalf("tick 2 did not settle past the deposed leader:\n%s", dep.DebugString())
	}
	ref.tick(t, tick2)
	if deposed == "" {
		t.Fatal("stCommit never fired on tick 2")
	}
	m := dep.Metrics()
	if m.Elections < 1 || m.Epoch < 2 {
		t.Fatalf("no election after isolating the leader: %+v", m)
	}
	if m.Attempts != 2 {
		t.Fatalf("sealed tick was re-driven: %d attempts for 2 ticks", m.Attempts)
	}
	settled := dep.DumpString()
	if want := ref.dump(dep.Placement().Preds); settled != want {
		t.Fatalf("diverged after failover:\n%s\nwant:\n%s", settled, want)
	}

	// Heal ONLY the leader→replica links: the deposed leader still
	// believes in epoch 1, and its stCommit watchdog keeps re-broadcasting
	// the stale commit — now those broadcasts actually arrive.
	for _, r := range dep.Replicas() {
		cl.Net.Heal(deposed, r)
	}
	fencedBefore := m.FencedCommits
	cl.Net.RunUntil(cl.Net.Now() + 5*shard.DefaultRetryAfter)
	m = dep.Metrics()
	if m.FencedCommits <= fencedBefore {
		t.Fatalf("deposed leader's stale commits were never delivered/fenced: %+v", m)
	}
	if m.DoubleCommits != 0 {
		t.Fatalf("stale commit double-committed: %+v", m)
	}
	if got := dep.DumpString(); got != settled {
		t.Fatalf("stale commit broadcasts moved replica state:\n%s\nwas:\n%s", got, settled)
	}
	if m.CommittedTicks != 2 {
		t.Fatalf("committed ticks moved: %d", m.CommittedTicks)
	}

	// Full heal: the deposed leader hears a higher epoch, catches up on
	// the decree log, and steps down.
	healAll(cl.Net, dep, deposed)
	cl.Net.RunUntil(cl.Net.Now() + 10*shard.DefaultRetryAfter)
	idx := -1
	for i, name := range dep.Coordinators() {
		if name == deposed {
			idx = i
		}
	}
	cs := dep.ControlStates()[idx]
	if cs.Epoch < 2 || cs.Driving {
		t.Fatalf("deposed leader did not step down after rejoining: %+v", cs)
	}

	// And the deployment still works end to end.
	tick3 := []datalog.DeltaOp{ins("edge", "d", "a")}
	if err := dep.Submit(tick3); err != nil {
		t.Fatal(err)
	}
	if !dep.Settle(settleBudget) {
		t.Fatal("tick 3 did not settle after full heal")
	}
	ref.tick(t, tick3)
	if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
		t.Fatalf("diverged after full heal:\n%s\nwant:\n%s", got, want)
	}
}

// TestCoordinatorObservability pins the failover metrics snapshot: a
// healthy run reports epoch 1, zero elections and live heartbeats; a
// leader kill moves the epoch, the election count and the leader-change
// timestamp.
func TestCoordinatorObservability(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	cl, dep := newDeployment(t, prog, tcEDB, 3, 31)
	for _, ops := range failoverTicks[:2] {
		if err := dep.Submit(ops); err != nil {
			t.Fatal(err)
		}
		if !dep.Settle(settleBudget) {
			t.Fatal("tick did not settle")
		}
	}
	// Let heartbeat timers tick in the idle deployment.
	cl.Net.RunUntil(cl.Net.Now() + 5*shard.DefaultRetryAfter)
	m := dep.Metrics()
	if m.Epoch != 1 || m.Elections != 0 || m.LastLeaderChange != 0 {
		t.Fatalf("healthy run shows failover activity: %+v", m)
	}
	if m.Leader != dep.Coordinators()[0] {
		t.Fatalf("initial leader = %s", m.Leader)
	}
	if m.Heartbeats == 0 {
		t.Fatal("no heartbeats in an idle healthy deployment")
	}
	if m.SubmitDecrees != 2 || m.CommitDecrees != 2 || m.Attempts != 2 || m.CommittedTicks != 2 {
		t.Fatalf("decree accounting off: %+v", m)
	}
	if m.DoubleCommits != 0 {
		t.Fatalf("double commits: %+v", m)
	}

	old := m.Leader
	dep.KillCoordinator(old)
	cl.Net.RunUntil(cl.Net.Now() + 20*shard.DefaultRetryAfter)
	m = dep.Metrics()
	if m.Epoch < 2 || m.Elections < 1 {
		t.Fatalf("no election after leader kill: %+v", m)
	}
	if m.Leader == old {
		t.Fatalf("leader did not move: %+v", m)
	}
	if m.LastLeaderChange == 0 {
		t.Fatalf("leader-change timestamp not recorded: %+v", m)
	}
}

// TestSubmitFailsWithEveryCoordinatorDown pins the Submit liveness
// contract: a tick no coordinator heard about must be rejected (and not
// counted), or Settle would wait forever on a submission that exists only
// in the client-side counter.
func TestSubmitFailsWithEveryCoordinatorDown(t *testing.T) {
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, tcEDB, 2, 77)
	coords := dep.Coordinators()
	for _, c := range coords {
		dep.KillCoordinator(c)
	}
	before := dep.SubmittedTicks()
	if err := dep.Submit([]datalog.DeltaOp{ins("edge", "a", "b")}); err == nil {
		t.Fatal("Submit with every coordinator down returned nil")
	}
	if dep.SubmittedTicks() != before {
		t.Fatal("rejected submit still counted a tick")
	}
	// Restore a quorum; the deployment must accept and converge again.
	dep.RecoverCoordinator(coords[0])
	dep.RecoverCoordinator(coords[1])
	if err := dep.Submit([]datalog.DeltaOp{ins("edge", "a", "b")}); err != nil {
		t.Fatalf("Submit after quorum recovery: %v", err)
	}
	if !dep.Settle(settleBudget) {
		t.Fatalf("tick did not settle after quorum recovery:\n%s", dep.DebugString())
	}
}

// churnTick is tick i of a long fault-free run whose state stays bounded:
// it inserts one edge of a 12-cycle on even laps and deletes it on odd
// ones, so the closure is rebuilt and torn down forever and per-tick work
// does not grow with the run.
func churnTick(i int) []datalog.DeltaOp {
	k := int64(i % 12)
	op := ins("edge", k, (k+1)%12)
	op.Del = (i/12)%2 == 1
	return []datalog.DeltaOp{op}
}

// TestFailoverStableLeader is the propose-once gate: with no faults the
// control plane runs phase 1 once, for the first decree, and every decree
// takes exactly one slot on every coordinator — a submit and a commit per
// tick, no election, no duplicate for the seq guard to drop.
func TestFailoverStableLeader(t *testing.T) {
	const ticks = 1000
	prog, err := datalog.NewProgram(tcRules...)
	if err != nil {
		t.Fatal(err)
	}
	cl, dep := newDeployment(t, prog, tcEDB, 3, 61)
	ref := newOracle(t, prog, tcEDB)
	for i := 0; i < ticks; i++ {
		ops := churnTick(i)
		if err := dep.Submit(ops); err != nil {
			t.Fatal(err)
		}
		if !dep.Settle(settleBudget) {
			t.Fatalf("tick %d did not settle:\n%s", i, dep.DebugString())
		}
		ref.tick(t, ops)
	}
	// Let the last decides reach the standbys.
	cl.Net.RunUntil(cl.Net.Now() + shard.DefaultRetryAfter)
	m := dep.Metrics()
	if m.Phase1Rounds > 1 || m.Elections != 0 || m.StaleDecrees != 0 || m.DoubleCommits != 0 {
		t.Fatalf("stable leader: %d phase-1 rounds, %d elections, %d stale decrees over %d ticks: %+v",
			m.Phase1Rounds, m.Elections, m.StaleDecrees, ticks, m)
	}
	for i, cs := range dep.ControlStates() {
		if cs.Decided != 2*ticks {
			t.Fatalf("coordinator %d decided %d slots for %d ticks, want %d (a submit and a commit each)", i, cs.Decided, ticks, 2*ticks)
		}
	}
	if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
		t.Fatalf("diverged:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkDeploymentTicks times fault-free ticks of churnTick on a
// 3-shard, 3-coordinator deployment at two run lengths: with phase 1 and
// catch-up bounded by the undecided tail, ns/tick stays flat as the run
// grows.
func BenchmarkDeploymentTicks(b *testing.B) {
	for _, ticks := range []int{200, 1600} {
		b.Run(fmt.Sprint(ticks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog, err := datalog.NewProgram(tcRules...)
				if err != nil {
					b.Fatal(err)
				}
				_, dep := newDeployment(b, prog, tcEDB, 3, 61)
				b.StartTimer()
				for k := 0; k < ticks; k++ {
					if err := dep.Submit(churnTick(k)); err != nil {
						b.Fatal(err)
					}
					if !dep.Settle(settleBudget) {
						b.Fatalf("tick %d did not settle", k)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ticks), "ns/tick")
		})
	}
}

// submitAndSettle submits every tick, settles, and checks the outcome the
// inbox tests share: each tick committed exactly once, no double commit,
// and the fixpoint of the single-node oracle.
func submitAndSettle(t *testing.T, dep *shard.Deployment, prog *datalog.Program, ticks [][]datalog.DeltaOp) {
	t.Helper()
	ref := newOracle(t, prog, tcEDB)
	for _, ops := range ticks {
		ref.tick(t, ops)
	}
	if !dep.Settle(settleBudget) {
		t.Fatalf("ticks did not settle:\n%s", dep.DebugString())
	}
	m := dep.Metrics()
	n := uint64(len(ticks))
	if m.SubmitDecrees != n || m.CommitDecrees != n || m.CommittedTicks != n || m.DoubleCommits != 0 {
		t.Fatalf("want each of %d ticks admitted and committed once: %+v", n, m)
	}
	if got, want := dep.DumpString(), ref.dump(dep.Placement().Preds); got != want {
		t.Fatalf("diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailoverSubmitWhileLeaderDown submits every tick after the leader is
// killed: only the standbys' inboxes hold them, and the winner of the
// election proposes them behind its elect decree.
func TestFailoverSubmitWhileLeaderDown(t *testing.T) {
	prog, err := datalog.NewProgram(failoverRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, tcEDB, 3, 62)
	dep.KillCoordinator(dep.Leader())
	for _, ops := range failoverTicks {
		if err := dep.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	submitAndSettle(t, dep, prog, failoverTicks)
	if m := dep.Metrics(); m.Elections != 1 {
		t.Fatalf("want one election: %+v", m)
	}
}

// TestFailoverSubmitThenFaultLeader is E14's pattern: a tick is submitted
// and the leader is killed, or cut off, before anything is delivered, so
// the leader's proposal never leaves it and the tick survives only in the
// standbys' inboxes.
func TestFailoverSubmitThenFaultLeader(t *testing.T) {
	for _, partition := range []bool{false, true} {
		t.Run(fmt.Sprintf("partition=%v", partition), func(t *testing.T) {
			prog, err := datalog.NewProgram(failoverRules...)
			if err != nil {
				t.Fatal(err)
			}
			cl, dep := newDeployment(t, prog, tcEDB, 3, 63)
			for i, ops := range failoverTicks {
				if err := dep.Submit(ops); err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					if partition {
						isolate(cl.Net, dep, dep.Leader())
					} else {
						dep.KillCoordinator(dep.Leader())
					}
				}
			}
			submitAndSettle(t, dep, prog, failoverTicks)
			if m := dep.Metrics(); m.Elections < 1 {
				t.Fatalf("no election: %+v", m)
			}
		})
	}
}

// TestFailoverLeaderBackBeforeElection kills the leader, submits a tick
// only the standbys hear of, and brings the leader back before any
// standby runs against it: its heartbeats hold the election off, so a
// standby proposes the tick once it has waited out an election timeout.
func TestFailoverLeaderBackBeforeElection(t *testing.T) {
	prog, err := datalog.NewProgram(failoverRules...)
	if err != nil {
		t.Fatal(err)
	}
	cl, dep := newDeployment(t, prog, tcEDB, 3, 64)
	leader := dep.Leader()
	dep.KillCoordinator(leader)
	if err := dep.Submit(failoverTicks[0]); err != nil {
		t.Fatal(err)
	}
	cl.Net.RunUntil(cl.Net.Now() + 100_000)
	dep.RecoverCoordinator(leader)
	submitAndSettle(t, dep, prog, failoverTicks[:1])
	if m := dep.Metrics(); m.Elections != 0 || m.Leader != leader {
		t.Fatalf("the recovered leader was replaced: %+v", m)
	}
}

// TestFailoverLeaderReproposesStaleSubmit needs the leader's liveness
// retry: tick 0 reaches only a standby and tick 1 only the leader, so the
// leader's proposal of tick 1 lands first, fails the seq guard, and only
// the leader still holds it once the standby's tick 0 is admitted.
func TestFailoverLeaderReproposesStaleSubmit(t *testing.T) {
	prog, err := datalog.NewProgram(failoverRules...)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := newDeployment(t, prog, tcEDB, 3, 65)
	coords := dep.Coordinators()
	leader, a, b := coords[0], coords[1], coords[2]
	dep.KillCoordinator(leader)
	dep.KillCoordinator(b)
	if err := dep.Submit(failoverTicks[0]); err != nil { // a's inbox only
		t.Fatal(err)
	}
	dep.KillCoordinator(a)
	dep.RecoverCoordinator(leader)
	if err := dep.Submit(failoverTicks[1]); err != nil { // the leader's inbox only
		t.Fatal(err)
	}
	dep.RecoverCoordinator(b)
	dep.RecoverCoordinator(a)
	submitAndSettle(t, dep, prog, failoverTicks[:2])
	if m := dep.Metrics(); m.StaleDecrees == 0 || m.Leader != leader {
		t.Fatalf("want tick 1 decreed out of order and re-proposed by the leader: %+v", m)
	}
}
