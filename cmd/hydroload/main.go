// Command hydroload is the open-loop load generator for the serving
// front-end (internal/serve): it offers requests against the paper's COVID
// pipeline at a fixed arrival rate — independent of completions, so queue
// growth and shedding are visible instead of hidden by coordinated
// omission — with zipfian key skew, and reports the per-request
// enqueue → flush → eval → respond latency breakdown (p50/p90/p99), the
// batching/backpressure counters, and the runtime tick-phase profile.
//
// Usage:
//
//	hydroload -n 20000 -rate 50000 -zipf-s 1.2 -keys 5000 -csv timings.csv
//	benchtab -timings timings.csv   # re-render the summary table offline
//	hydroload -rate 3000 -keys 1000 -policy block -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -top cpu.prof     # mem.prof: add -sample_index=alloc_space
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/serve"
	"hydro/internal/transducer"
)

func main() {
	var (
		n        = flag.Int("n", 20000, "requests to offer")
		rate     = flag.Float64("rate", 50000, "offered arrival rate (requests/second, open loop)")
		seed     = flag.Int64("seed", 1, "workload and runtime seed")
		keys     = flag.Int("keys", 5000, "person-ID universe")
		zipfS    = flag.Float64("zipf-s", 1.2, "zipf skew exponent (>1)")
		zipfV    = flag.Float64("zipf-v", 1.0, "zipf value offset (>=1)")
		batch    = flag.Int("batch", 128, "serve batch size (MaxBatch)")
		wait     = flag.Duration("wait", 500*time.Microsecond, "serve flush deadline (MaxWait)")
		queue    = flag.Int("queue", 1024, "admission queue depth")
		policy   = flag.String("policy", "shed", "backpressure policy when the queue fills: shed|block")
		deadline = flag.Duration("deadline", 0, "per-request deadline (0 = none): older queued requests are shed")
		quota    = flag.String("quota", "", "per-mailbox admission quotas, e.g. 'vaccinate=8,diagnosed=64'")
		csvOut   = flag.String("csv", "", "write the per-request timing CSV to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the serving window to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (live and allocated) taken after the run to this file")
	)
	flag.Parse()
	if *zipfS <= 1 || *zipfV < 1 || *keys < 2 {
		fatal(fmt.Errorf("need -zipf-s > 1, -zipf-v >= 1, -keys >= 2"))
	}
	pol := serve.Shed
	switch *policy {
	case "shed":
	case "block":
		pol = serve.Block
	default:
		fatal(fmt.Errorf("unknown -policy %q", *policy))
	}
	quotas := map[string]int{}
	if *quota != "" {
		for _, kv := range strings.Split(*quota, ",") {
			mb, val, ok := strings.Cut(kv, "=")
			nq, err := strconv.Atoi(val)
			if !ok || err != nil || nq <= 0 {
				fatal(fmt.Errorf("bad -quota entry %q (want mailbox=n)", kv))
			}
			quotas[mb] = nq
		}
	}

	c, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{
			"covid_predict": func(args []any) any { return float64(args[0].(int64)%100) / 100.0 },
		},
	})
	if err != nil {
		fatal(err)
	}
	rt, err := c.Instantiate("serve1", *seed)
	if err != nil {
		fatal(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })

	timings := make([]serve.RequestTiming, 0, *n)
	alerts := 0
	s := serve.New(rt, serve.Config{
		MaxBatch:   *batch,
		MaxWait:    *wait,
		QueueDepth: *queue,
		Policy:     pol,
		// vaccinate is the pipeline's serializable handler: it must tick
		// alone or concurrent decrements collapse into one.
		SerialMailboxes: []string{"vaccinate"},
		MailboxQuota:    quotas,
		DefaultDeadline: *deadline,
		DrainMailboxes:  []string{"alert", "trace_response"},
		OnDrain: func(mailbox string, msgs []transducer.Message) {
			if mailbox == "alert" {
				alerts += len(msgs)
			}
		},
		OnTiming: func(t serve.RequestTiming) { timings = append(timings, t) },
	})

	rng := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rng, *zipfS, *zipfV, uint64(*keys-1))
	countries := []string{"us", "fr", "in", "br", "jp"}
	mix := func() serve.Request {
		pid := int64(zipf.Uint64())
		switch k := rng.Intn(100); {
		case k < 20:
			return serve.Request{Mailbox: "add_person", Payload: datalog.Tuple{pid, countries[rng.Intn(len(countries))]}}
		case k < 70:
			return serve.Request{Mailbox: "add_contact", Payload: datalog.Tuple{pid, int64(zipf.Uint64())}}
		case k < 85:
			return serve.Request{Mailbox: "diagnosed", Payload: datalog.Tuple{pid}}
		case k < 95:
			return serve.Request{Mailbox: "likelihood", Payload: datalog.Tuple{pid}}
		default:
			return serve.Request{Mailbox: "vaccinate", Payload: datalog.Tuple{pid}}
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close() // StopCPUProfile below has flushed it; fatal paths lose the profile with the run
	}
	start := time.Now()
	interval := float64(time.Second) / *rate
	shed := 0
	for i := 0; i < *n; i++ {
		// Open loop: arrival i is due at start + i/rate no matter how the
		// server is doing; we never wait for completions.
		if d := time.Until(start.Add(time.Duration(float64(i) * interval))); d > 0 {
			time.Sleep(d)
		}
		if _, err := s.Submit(mix()); err != nil {
			if errors.Is(err, serve.ErrOverload) || errors.Is(err, serve.ErrOverQuota) {
				shed++
				continue
			}
			fatal(err)
		}
	}
	offerWall := time.Since(start)
	// Under Block, Close drains and serves the whole backlog; under Shed it
	// abandons queued requests with ErrClosed (reported as closed-unserved
	// below) — open loop: the measurement window is the offered load.
	s.Close()
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // so the live-heap samples are what the finished run retains
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	m := s.Metrics()
	fmt.Printf("hydroload: offered %d requests at %.0f/s (zipf s=%.2f over %d keys, seed %d), %d admitted, %d shed\n",
		*n, *rate, *zipfS, *keys, *seed, m.Submitted, shed)
	fmt.Printf("served in %v (offer window %v): %.0f responses/s, %d alerts fanned out\n",
		wall.Round(time.Millisecond), offerWall.Round(time.Millisecond),
		float64(m.Responded)/wall.Seconds(), alerts)
	fmt.Printf("batches=%d (size=%d deadline=%d serial=%d) rejected=%d retried=%d unsettled=%d queue high-water=%d\n",
		m.Batches, m.SizeFlushes, m.DeadlineFlushes, m.SerialFlushes,
		m.RejectedBatches, m.Retried, m.Unsettled, m.QueueHighWater)
	fmt.Printf("admission: over-quota=%d deadline-shed=%d closed-unserved=%d; eval busy %v\n",
		m.OverQuota, m.DeadlineShed, m.ClosedUnserved, time.Duration(m.EvalBusyNs).Round(time.Millisecond))
	if m.Ticks > 0 {
		perTick := func(ns int64) time.Duration { return time.Duration(ns / int64(m.Ticks)) }
		fmt.Printf("tick phases (mean over %d ticks): deliver=%v snapshot=%v handlers=%v apply=%v\n",
			m.Ticks, perTick(m.TickDeliverNs), perTick(m.TickSnapshotNs),
			perTick(m.TickHandlersNs), perTick(m.TickApplyNs))
	}
	fmt.Println()
	fmt.Print(serve.Summarize(timings).Render())

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := serve.WriteCSV(f, timings); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d timing rows to %s\n", len(timings), *csvOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hydroload:", err)
	os.Exit(1)
}
