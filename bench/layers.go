package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hydro/internal/consensus"
	"hydro/internal/datalog"
	"hydro/internal/hydrolysis"
	"hydro/internal/simnet"
)

// layerReport is what a traced invocation adds to the report.
type layerReport struct {
	metrics []metric
	budget  string
	spans   []span
}

// replayed is the offline single-threaded replay of a traced run's ticks
// through a fresh datalog.Incremental: what the evaluator alone costs, with
// no serving shell, transducer or sink around it.
type replayed struct {
	applyNs []int64 // per measured tick, in tick order
	baseOps int     // over the measured ticks
	derived int
	db      *datalog.Database // the final database
}

func replay(c *hydrolysis.Compiled, t *tracer) (*replayed, error) {
	db := datalog.NewDatabase()
	for _, tbl := range c.Program.Tables {
		db.Ensure(tbl.Name, tbl.Arity())
	}
	inc, err := datalog.NewIncremental(c.Queries, db)
	if err != nil {
		return nil, err
	}
	rp := &replayed{db: db}
	for i, tick := range t.ticks {
		d := datalog.NewDelta()
		for _, op := range tick.ops {
			rel := db.Ensure(op.Pred, len(op.T))
			if op.Del {
				if !rel.Delete(op.T) {
					return nil, fmt.Errorf("replay: tick %d: delete %s%v did not realize", i, op.Pred, op.T)
				}
				d.Delete(op.Pred, op.T)
			} else {
				if !rel.Insert(op.T) {
					return nil, fmt.Errorf("replay: tick %d: insert %s%v did not realize", i, op.Pred, op.T)
				}
				d.Insert(op.Pred, op.T)
			}
		}
		t0 := time.Now()
		n, err := inc.Apply(d)
		if err != nil {
			return nil, fmt.Errorf("replay: tick %d: %w", i, err)
		}
		if i >= t.preloaded {
			rp.applyNs = append(rp.applyNs, time.Since(t0).Nanoseconds())
			rp.baseOps += len(tick.ops)
			rp.derived += n
		}
	}
	return rp, nil
}

// readPath times the evaluator's read side on the final replayed database,
// for seeded person ids: the prepared rule every trace and diagnosed
// handler runs, the index lookup beneath it, and — the other side of an
// insert-for-lookup trade — re-inserting the whole closure into a fresh
// relation.
func readPath(db *datalog.Database, seed int64, pids int) (deriveUsP50, lookupNsPerRow, insertNsPerRow float64, err error) {
	closure := db.Get("transitive")
	pr, err := datalog.PrepareRule(datalog.Rule{
		Head: datalog.Atom{Pred: "__probe", Args: []datalog.Term{datalog.V("p")}},
		Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "transitive", Args: []datalog.Term{datalog.V("pid"), datalog.V("p")}}}},
	}, "pid")
	if err != nil {
		return 0, 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(pids-1))
	var deriveUs []float64
	var lookupNs, rows int64
	for i := 0; i < 1000; i++ {
		pid := int64(zipf.Uint64())
		t0 := time.Now()
		if _, err := pr.Derive(db, map[string]any{"pid": pid}); err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		got := closure.Lookup([]int{0}, []any{pid})
		lookupNs += time.Since(t1).Nanoseconds()
		rows += int64(len(got))
		deriveUs = append(deriveUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	var all []datalog.Tuple
	for pid := int64(0); pid < int64(pids); pid++ {
		all = append(all, closure.Lookup([]int{0}, []any{pid})...)
	}
	fresh := datalog.NewRelation("transitive", 2)
	t0 := time.Now()
	for _, t := range all {
		fresh.Insert(t)
	}
	insertNs := time.Since(t0).Nanoseconds()
	return median(deriveUs), float64(lookupNs) / float64(max(rows, 1)), float64(insertNs) / float64(max(len(all), 1)), nil
}

// consensusProbe drives a standalone three-node Paxos group, one proposal
// at a time: wall time and network messages per decided decree.
func consensusProbe(proposals int) (decideUs, msgsPerDecree float64, err error) {
	net := simnet.New(simnet.DefaultConfig(programSeed))
	g := consensus.NewGroup(net, 3, programSeed)
	t0 := time.Now()
	for i := 0; i < proposals; i++ {
		g.Propose("p0", i)
		for steps := 0; g.DecidedCount("p0") <= i; steps++ {
			if steps > settleBudget || !net.Step() {
				return 0, 0, fmt.Errorf("consensus probe: proposal %d was not decided", i)
			}
		}
	}
	n := float64(proposals)
	return float64(time.Since(t0).Microseconds()) / n, float64(net.Stats().Sent) / n, nil
}

// sortedScaled divides a sample of nanosecond durations by div and sorts it.
func sortedScaled(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	sort.Float64s(out)
	return out
}

// layers computes the per-layer metrics of one workload. plain is the
// untraced rep (the baseline of trace.overhead_ratio); everything else is
// read off the traced pass tp: exported counters at the phase edges, the
// tracer's sink-boundary clocks, Response.Timing, and the offline replay.
// Rates are over the saturate phase unless the name says otherwise.
func layers(w *workload, seed int64, plain *rep, tp *pass) (*layerReport, error) {
	r, sys, tr := tp.rep, tp.sys, tp.sys.tr
	rp, err := replay(sys.c, tr)
	if err != nil {
		return nil, err
	}
	spans := buildSpans(r, tr)

	sat := &r.sat
	reqs := sat.requests()
	b, a := sat.before.serve, sat.after.serve
	dNs := func(after, before int64) float64 { return float64(after - before) }
	dN := func(after, before uint64) float64 { return float64(after - before) }
	perReqUs := func(ns float64) float64 { return ns / 1e3 / reqs }

	satFrom, satTo := sat.start.UnixNano(), sat.start.Add(sat.wall).UnixNano()
	self := selfByName(spans, satFrom, satTo)

	// Ticks of the saturate phase, by the clock of their sink call.
	measured := tr.ticks[tr.preloaded:]
	var satApplyNs []int64
	var snapshots int
	var logBytes, snapBytes int64
	var appendNs, committedNs []int64
	for i, t := range measured {
		if t.appendStart < satFrom || t.appendStart >= satTo {
			continue
		}
		satApplyNs = append(satApplyNs, rp.applyNs[i])
		appendNs = append(appendNs, t.appendEnd-t.appendStart)
		committedNs = append(committedNs, t.commitEnd-t.commitStart)
		logBytes += t.appendBytes
		if t.committedBytes > 0 {
			snapshots++
			snapBytes += t.committedBytes
		}
	}
	var replayNs float64
	for _, ns := range satApplyNs {
		replayNs += float64(ns)
	}
	var settleNs []int64
	for _, st := range tr.settles {
		if st[0] >= satFrom && st[0] < satTo {
			settleNs = append(settleNs, st[1]-st[0])
		}
	}
	var settleTotal float64
	for _, ns := range settleNs {
		settleTotal += float64(ns)
	}

	ticks := dN(a.Ticks, b.Ticks)
	deliver, snapshot := dNs(a.TickDeliverNs, b.TickDeliverNs), dNs(a.TickSnapshotNs, b.TickSnapshotNs)
	handlers, apply := dNs(a.TickHandlersNs, b.TickHandlersNs), dNs(a.TickApplyNs, b.TickApplyNs)
	tickNs := deliver + snapshot + handlers + apply
	evalBusy := dNs(a.EvalBusyNs, b.EvalBusyNs)
	collectWait := dNs(a.CollectWaitNs, b.CollectWaitNs)
	shell := evalBusy - tickNs - settleTotal
	wallNs := float64(sat.wall.Nanoseconds())

	// Serving phases of the paced requests, from Response.Timing.
	var queueNs, flushNs, evalNs, respondNs []int64
	for _, rec := range r.recs[:r.paced.to] {
		if t := rec.timing; t.Batch != 0 {
			queueNs, flushNs = append(queueNs, t.QueueNs), append(flushNs, t.FlushNs)
			evalNs, respondNs = append(evalNs, t.EvalNs), append(respondNs, t.RespondNs)
		}
	}
	queueMs, evalMs := sortedScaled(queueNs, 1e6), sortedScaled(evalNs, 1e6)
	lat, _ := pacedLatencies(r)
	sort.Float64s(lat)
	late, achieved := lateness(r, w.pacedRate)

	m := []metric{
		{"hydrolysis.compile_ms", ms(sys.compile), "ms"},
		{"hydrolysis.instantiate_ms", ms(sys.instantiate), "ms"},
		{"hydrolysis.handler_us_per_req", perReqUs(handlers), "us"},

		{"serve.batch_mean", reqs / max(dN(a.Batches, b.Batches), 1), "count"},
		{"serve.ticks_per_req", ticks / reqs, "count"},
		{"serve.size_flushes", dN(a.SizeFlushes, b.SizeFlushes), "count"},
		{"serve.deadline_flushes", dN(a.DeadlineFlushes, b.DeadlineFlushes), "count"},
		{"serve.serial_flushes", dN(a.SerialFlushes, b.SerialFlushes), "count"},
		{"serve.eval_busy_ratio", evalBusy / wallNs, "ratio"},
		{"serve.collect_wait_ratio", collectWait / wallNs, "ratio"},
		{"serve.handoff_block_ratio", dNs(a.HandoffBlockNs, b.HandoffBlockNs) / wallNs, "ratio"},
		{"serve.shell_us_per_req", perReqUs(shell), "us"},
		{"serve.queue_ms_p50", quantile(queueMs, 0.5), "ms"},
		{"serve.queue_ms_p99", quantile(queueMs, 0.99), "ms"},
		{"serve.flush_us_p50", quantile(sortedScaled(flushNs, 1e3), 0.5), "us"},
		{"serve.eval_ms_p50", quantile(evalMs, 0.5), "ms"},
		{"serve.eval_ms_p99", quantile(evalMs, 0.99), "ms"},
		{"serve.respond_us_p50", quantile(sortedScaled(respondNs, 1e3), 0.5), "us"},
		{"serve.shed", float64(a.Shed), "count"},
		{"serve.over_quota", float64(a.OverQuota), "count"},
		{"serve.deadline_shed", float64(a.DeadlineShed), "count"},
		{"serve.rejected_batches", float64(a.RejectedBatches), "count"},
		{"serve.retried", float64(a.Retried), "count"},
		{"serve.unsettled", float64(a.Unsettled), "count"},
		{"serve.closed_unserved", float64(a.ClosedUnserved), "count"},
		{"serve.queue_high_water", float64(a.QueueHighWater), "count"},

		{"transducer.deliver_us_per_req", perReqUs(deliver), "us"},
		{"transducer.apply_us_per_req", perReqUs(apply), "us"},
		{"transducer.tick_us_mean", tickNs / 1e3 / max(ticks, 1), "us"},
		{"transducer.sends_per_req", float64(sat.after.sends-sat.before.sends) / reqs, "count"},
	}

	applyUs := sortedScaled(satApplyNs, 1e3)
	deriveUs, lookupNs, insertNs, err := readPath(rp.db, seed, w.pids)
	if err != nil {
		return nil, err
	}
	m = append(m,
		metric{"datalog.apply_us_per_req", perReqUs(replayNs), "us"},
		metric{"datalog.apply_us_per_tick_p50", quantile(applyUs, 0.5), "us"},
		metric{"datalog.apply_us_per_tick_p99", quantile(applyUs, 0.99), "us"},
		metric{"datalog.derived_per_base_op", float64(rp.derived) / float64(max(rp.baseOps, 1)), "count"},
		metric{"datalog.closure_rows", float64(rp.db.Get("transitive").Len()), "count"},
		metric{"datalog.replay_rps", reqs / max(replayNs/1e9, 1e-9), "1/s"},
		metric{"datalog.apply_share", replayNs / max(apply, 1), "ratio"},
		metric{"datalog.derive_us_p50", deriveUs, "us"},
		metric{"datalog.lookup_ns_per_row", lookupNs, "ns"},
		metric{"datalog.insert_ns_per_row", insertNs, "ns"},
	)

	// durable.*: zero off covid-durable.
	var d struct{ appendP50, appendP99, committedP50, committedMax, logKB, snapMB float64 }
	if w.durable {
		au, cu := sortedScaled(appendNs, 1e3), sortedScaled(committedNs, 1e3)
		d.appendP50, d.appendP99 = quantile(au, 0.5), quantile(au, 0.99)
		d.committedP50, d.committedMax = quantile(cu, 0.5), quantile(cu, 1)/1e3
		d.logKB = float64(logBytes) / 1024 / reqs
		d.snapMB = float64(snapBytes) / float64(max(snapshots, 1)) / (1 << 20)
	}
	m = append(m,
		metric{"durable.append_us_p50", d.appendP50, "us"},
		metric{"durable.append_us_p99", d.appendP99, "us"},
		metric{"durable.committed_us_p50", d.committedP50, "us"},
		metric{"durable.committed_ms_max", d.committedMax, "ms"},
		metric{"durable.snapshots", float64(snapshots), "count"},
		metric{"durable.log_kb_per_req", d.logKB, "KB"},
		metric{"durable.snapshot_mb", d.snapMB, "MB"},
		metric{"durable.open_ms", tp.open, "ms"},
		metric{"durable.recover_ms", tp.recover, "ms"},
	)

	// shard.*, consensus.*, simnet.*: zero off covid-sharded.
	var s struct {
		settleP50, settleP99, virtualMs, attempts, fenced, overhead float64
		decrees, decideUs, msgsPerDecree, msgsPerTick, dropped      float64
	}
	if w.sharded {
		sb, sa := sat.before.shard, sat.after.shard
		committed := max(dN(sa.CommitDecrees, sb.CommitDecrees), 1)
		sm := sortedScaled(settleNs, 1e6)
		s.settleP50, s.settleP99 = quantile(sm, 0.5), quantile(sm, 0.99)
		s.virtualMs = float64(sat.after.now-sat.before.now) / 1e3 / committed
		s.attempts = dN(sa.AttemptDecrees, sb.AttemptDecrees) / committed
		s.fenced = dN(sa.FencedReqs, sb.FencedReqs) + dN(sa.FencedCommits, sb.FencedCommits)
		s.overhead = settleTotal / max(replayNs, 1)
		s.decrees = (dN(sa.SubmitDecrees, sb.SubmitDecrees) + dN(sa.AttemptDecrees, sb.AttemptDecrees) + committed) / committed
		if s.decideUs, s.msgsPerDecree, err = consensusProbe(2000); err != nil {
			return nil, err
		}
		s.msgsPerTick = dN(sat.after.net.Sent, sat.before.net.Sent) / committed
		s.dropped = dN(sat.after.net.Dropped, sat.before.net.Dropped)
	}
	m = append(m,
		metric{"shard.settle_ms_p50", s.settleP50, "ms"},
		metric{"shard.settle_ms_p99", s.settleP99, "ms"},
		metric{"shard.virtual_ms_per_tick", s.virtualMs, "ms"},
		metric{"shard.attempts_per_tick", s.attempts, "count"},
		metric{"shard.fenced", s.fenced, "count"},
		metric{"shard.overhead_x", s.overhead, "x"},
		metric{"consensus.decrees_per_tick", s.decrees, "count"},
		metric{"consensus.decide_us", s.decideUs, "us"},
		metric{"consensus.msgs_per_decree", s.msgsPerDecree, "count"},
		metric{"simnet.msgs_per_tick", s.msgsPerTick, "count"},
		metric{"simnet.dropped", s.dropped, "count"},
	)

	tracedRps := r.okIn(sat) / sat.wall.Seconds()
	plainRps := plain.okIn(&plain.sat) / plain.sat.wall.Seconds()
	sinkNs := float64(self[tr.appendName] + self[tr.committedName])
	liveApply := float64(self["datalog.apply"])
	m = append(m,
		metric{"go.gc_cpu_ratio", r.gcCPU, "ratio"},
		metric{"go.gc_cycles", float64(r.gcCycles), "count"},
		metric{"go.heap_peak_mb", float64(r.heapSys) / (1 << 20), "MB"},
		metric{"go.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count"},
		metric{"loadgen.late_ms_p99", quantile(late, 0.99), "ms"},
		metric{"loadgen.achieved_rate_ratio", achieved, "ratio"},
		metric{"loadgen.latency_ms_p99", quantile(lat, 0.99), "ms"},
		metric{"loadgen.latency_ms_max", quantile(lat, 1), "ms"},
		metric{"trace.overhead_ratio", 1 - tracedRps/plainRps, "ratio"},
		metric{"trace.spans", float64(len(spans)), "count"},
		metric{"budget.accounted_ratio", (tickNs + settleTotal) / max(evalBusy, 1), "ratio"},
	)

	// The budget: every row is measured by its own clock, and they sum to
	// the saturate phase's wall time per request.
	rows := []metric{
		{"serve.collect_wait", perReqUs(collectWait), "us"},
		{"serve.shell", perReqUs(shell), "us"},
		{"transducer.deliver", perReqUs(deliver), "us"},
		{"transducer.snapshot", perReqUs(snapshot), "us"},
		{"hydrolysis.handlers", perReqUs(handlers), "us"},
		{"transducer.apply (self)", perReqUs(apply - sinkNs - liveApply), "us"},
		{tr.appendName + "+" + tr.committedName, perReqUs(sinkNs), "us"},
		{"datalog.apply", perReqUs(liveApply), "us"},
		{"shard.settle", perReqUs(settleTotal), "us"},
	}
	var sum float64
	for _, row := range rows {
		sum += row.value
	}
	total := 1e6 / tracedRps
	rows = append(rows, metric{"(edges of the phase)", total - sum, "us"})
	title := fmt.Sprintf("%s, traced saturate phase, %d requests; latency tail %v ms", w.name, int(reqs), highestTail(lat))
	return &layerReport{metrics: m, budget: budgetTable(title, rows, total), spans: spans}, nil
}
