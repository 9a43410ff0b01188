package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"hydro/internal/serve"
)

// pass is one rep on a fresh system with its oracles run.
type pass struct {
	sys           *system
	rep           *rep
	problems      []string // oracle misses
	open, recover float64  // ms; durable only: reopening and recovering the store
}

// runPass drives reqs through sys, shuts it down, measures the heap, runs
// every oracle and removes the system's scratch directory.
func runPass(sys *system, in *inputs) *pass {
	p := &pass{sys: sys}
	reqs := in.reqs
	p.rep = sys.drive(reqs, in.want, in.paced, sys.w.pacedRate)
	bad := func(format string, args ...any) { p.problems = append(p.problems, fmt.Sprintf(format, args...)) }
	if err := sys.shutDown(); err != nil {
		bad("closing the store: %v", err)
	}
	p.rep.measureHeap()

	graph := newContactGraph(in.preload, reqs)
	if err := graph.checkState(sys.rt); err != nil {
		bad("state: %v", err)
	}
	changesGraph := false
	for _, s := range sys.w.mix {
		changesGraph = changesGraph || s.mailbox == "add_contact"
	}
	if !changesGraph {
		got := p.rep.sat.after.sends - p.rep.paced.before.sends
		if wantSends := graph.expectedSends(reqs); got != wantSends {
			bad("fan-out: %d alert and trace_response messages drained, the components make %d", got, wantSends)
		}
	}
	if m := p.rep.sat.after.serve; m.Unsettled+m.RejectedBatches+m.ClosedUnserved > 0 {
		bad("server: %d unsettled batches, %d rejected, %d requests closed unserved", m.Unsettled, m.RejectedBatches, m.ClosedUnserved)
	}
	if sys.store != nil {
		open, recover, err := sys.checkRecovered()
		if err != nil {
			bad("durable: %v", err)
		}
		p.open, p.recover = ms(open), ms(recover)
	}
	if sys.dep != nil {
		if err := sys.checkDeployment(); err != nil {
			bad("sharded: %v", err)
		}
	}
	sys.discard()
	return p
}

// failed counts the requests that were refused, answered with an error, or
// answered wrongly.
func (r *rep) failed() int {
	return len(r.recs) - int(r.okIn(&r.paced)+r.okIn(&r.sat))
}

// inputs is everything a rep is driven with, generated from the seed.
type inputs struct {
	preload, reqs []serve.Request
	want          []any // expected reply per request
	paced         int   // reqs[:paced] are the paced phase
}

// prepare is the benchmark's whole set-up: generate the request stream and
// the replies it must get, then build the stack up to the point where the
// first request can be submitted.
func prepare(w *workload, seed int64, seconds float64) (*inputs, *system, time.Duration, error) {
	t0 := time.Now()
	paced, sat := w.counts(seconds)
	in := &inputs{preload: w.preloadStream(seed), reqs: stream(seed, w.pids, w.mix, paced+sat), paced: paced}
	in.want = expectedReplies(in.reqs)
	sys, err := freshSystem(w, in.preload, false)
	return in, sys, time.Since(t0), err
}

// run is one invocation: set up (several times, for the median), one
// untraced rep for the end-to-end metrics, and with traced set a second,
// traced rep on a fresh system for the per-layer metrics.
func run(w *workload, seed int64, seconds float64, traced bool, spansPath string, out io.Writer) (*result, error) {
	paced, sat := w.counts(seconds)
	fmt.Fprintln(out, stamp(w, seed, seconds, paced, sat))
	fmt.Fprintln(out, "why:", w.why)

	// Set-up time is the median of several set-ups (at least three, until
	// setupBudget is spent); the last one serves the run. It is an
	// end-to-end metric, so a traced invocation sets up once.
	var in *inputs
	var sys *system
	var setups []float64
	for spent := time.Duration(0); ; sys.discard() {
		runtime.GC() // start from a collected heap, with no cycle over the last set-up's garbage running beside this one
		var took time.Duration
		var err error
		if in, sys, took, err = prepare(w, seed, seconds); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		spent += took
		if traced || len(setups) >= 3 && (spent >= setupBudget || len(setups) >= maxSetups) {
			break
		}
	}
	plain := runPass(sys, in)
	problems := plain.problems
	report := endToEnd(plain.rep, median(setups))
	health := generatorHealth(plain.rep, w.pacedRate)

	if traced {
		plain.sys = nil // let the first system's state go before the second grows
		tsys, err := freshSystem(w, in.preload, true)
		if err != nil {
			return nil, err
		}
		tp := runPass(tsys, in)
		problems = append(problems, tp.problems...)
		lr, err := layers(w, seed, plain.rep, tp)
		if err != nil {
			return nil, err
		}
		report = lr.metrics
		fmt.Fprint(out, lr.budget)
		if spansPath != "" {
			if err := writeSpans(spansPath, lr.spans); err != nil {
				return nil, err
			}
		}
	}

	res := &result{Correct: len(problems) == 0, Attempted: len(in.reqs), Failed: plain.rep.failed(), Metrics: map[string]metricJSON{}}
	for _, m := range report {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	lat, _ := pacedLatencies(plain.rep)
	sort.Float64s(lat)
	fmt.Fprintf(out, "paced latency (ms, due to resolved, tracing off): p50=%.3f %v\n", quantile(lat, 0.5), highestTail(lat))
	fmt.Fprintln(out, health)
	for _, p := range problems {
		fmt.Fprintln(out, "ORACLE MISS:", p)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// pacedLatencies returns the due → resolved latency (ms) of every paced
// request that was answered correctly, and how many of those met the limit.
func pacedLatencies(r *rep) (lat []float64, within int) {
	for _, rec := range r.recs[:r.paced.to] {
		if rec.ok {
			lat = append(lat, float64(rec.latencyNs)/1e6)
			if rec.latencyNs <= latencyLimit.Nanoseconds() {
				within++
			}
		}
	}
	return lat, within
}

// okIn counts correctly answered requests of a phase.
func (r *rep) okIn(p *phaseStats) float64 {
	n := 0
	for _, rec := range r.recs[p.from:p.to] {
		if rec.ok {
			n++
		}
	}
	return float64(n)
}

// endToEnd computes what a user of the system sees, from an untraced rep.
func endToEnd(r *rep, setupS float64) []metric {
	lat, within := pacedLatencies(r)
	return []metric{
		{"setup_s", setupS, "s"},
		{"throughput_rps", r.okIn(&r.sat) / r.sat.wall.Seconds(), "1/s"},
		{"latency_p50_ms", median(lat), "ms"},
		{"within_limit_ratio", float64(within) / r.paced.requests(), "ratio"},
		{"cpu_ms_per_req", ms(r.sat.cpu) / r.sat.requests(), "ms"},
		{"alloc_kb_per_req", float64(r.allocBytes) / 1024 / float64(len(r.recs)), "KB"},
		{"heap_live_mb", float64(r.heapLive) / (1 << 20), "MB"},
	}
}

// generator-health limits: beyond them a rep reports the scheduler, not the
// system.
const (
	minAchievedRate = 0.98
	maxLateP99Ms    = 25.0
)

// lateness returns how late the paced phase's generator ran: the sorted
// due → submitted delays (ms), and the achieved share of the nominal rate
// (the last arrival's due offset over its actual offset).
func lateness(r *rep, rate float64) (sortedLateMs []float64, achieved float64) {
	n := r.paced.to
	for _, rec := range r.recs[:n] {
		sortedLateMs = append(sortedLateMs, float64(rec.lateNs)/1e6)
	}
	sort.Float64s(sortedLateMs)
	lastDue := float64(n-1) / rate * 1e9
	return sortedLateMs, (lastDue + 1) / (lastDue + 1 + float64(r.recs[n-1].lateNs))
}

// generatorHealth is the report's guard line: a rep whose generator fell
// behind is flagged instead of silently reporting the scheduler.
func generatorHealth(r *rep, rate float64) string {
	late, achieved := lateness(r, rate)
	p99 := quantile(late, 0.99)
	verdict := "ok"
	if achieved < minAchievedRate || p99 > maxLateP99Ms {
		verdict = "INVALID (the load generator fell behind: this rep measures the scheduler)"
	}
	return fmt.Sprintf("generator: achieved_rate_ratio=%.4f late_ms_p99=%.3f (n=%d) %s", achieved, p99, len(late), verdict)
}

// budgetTable renders µs-per-request rows that sum to the wall time per
// request of the traced saturate phase.
func budgetTable(title string, rows []metric, total float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "budget (%s, µs per request; rows sum to %.1f = 1e6/throughput):\n", title, total)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %10.1f  %5.1f%%\n", r.name, r.value, 100*r.value/total)
	}
	return b.String()
}
