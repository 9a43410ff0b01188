package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"hydro/internal/cluster"
	"hydro/internal/durable"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/serve"
	"hydro/internal/shard"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

const (
	// window is the closed-loop phase's outstanding-request cap: two full
	// batches, so the collector always has the next batch ready while the
	// eval stage runs one.
	window = 256
	// latencyLimit is the program's own `target { default latency=100ms }`.
	latencyLimit = 100 * time.Millisecond
	// settleBudget bounds one Settle call on the sharded deployment (the
	// serve package's fan-out tests use the same order).
	settleBudget = 400_000
	// programSeed seeds the runtime and the simulated network. It is a
	// constant: the program under test never sees --seed.
	programSeed = 1
)

// system is one fresh instance of the stack under test, ready to serve.
type system struct {
	w     *workload
	c     *hydrolysis.Compiled
	rt    *transducer.Runtime
	srv   *serve.Server
	store *durable.Store    // covid-durable only
	dep   *shard.Deployment // covid-sharded only
	net   *simnet.Network   // the deployment's network
	dir   string            // the store's directory
	tr    *tracer           // traced runs only

	sends        atomic.Int64 // messages drained from alert + trace_response
	settleFailed atomic.Int64

	compile, instantiate time.Duration
}

func compileCovid() (*hydrolysis.Compiled, error) {
	return hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{
			"covid_predict": func(args []any) any { return covidPredict(args[0].(int64)) },
		},
	})
}

// setUp builds the stack for w up to the point where the first request can
// be submitted: compile, instantiate, preload, open the store or deploy the
// shards, start the server. dir is where a durable workload keeps its store.
// With traced set, the runtime's durability seam gets the tracer (wrapping
// the store or the shard sink when there is one).
func setUp(w *workload, preload []serve.Request, dir string, traced bool) (*system, error) {
	s := &system{w: w, dir: dir}
	built := false
	defer func() {
		if !built && s.store != nil {
			s.store.Close() // a failed set-up keeps no store open
		}
	}()
	t0 := time.Now()
	c, err := compileCovid()
	if err != nil {
		return nil, err
	}
	s.c = c
	s.compile = time.Since(t0)
	t1 := time.Now()
	rt, err := c.Instantiate("serve1", programSeed)
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.instantiate = time.Since(t1)
	rt.SetDelay(func(*rand.Rand) int { return 1 })

	var sink transducer.DurabilitySink
	var pump func()
	var files *countingFS
	switch {
	case w.durable:
		fs, err := durable.DirFS(dir)
		if err != nil {
			return nil, err
		}
		if traced {
			files = &countingFS{FS: fs}
			fs = files
		}
		if s.store, err = durable.Open(durable.Options{FS: fs, Sync: durable.SyncAlways}); err != nil {
			return nil, err
		}
		if err := rt.RecoverQueriesIncremental(c.Queries, s.store.Recover); err != nil {
			return nil, err
		}
		sink = s.store
	case w.sharded:
		cl := cluster.New(cluster.NewTopology(3, 2, 2, cluster.ClassSmall), simnet.DefaultConfig(programSeed))
		if s.dep, err = c.InstantiateSharded(cl, "bench", 3, shard.Options{}); err != nil {
			return nil, err
		}
		s.net = cl.Net
		sink = shard.NewSink(s.dep)
		pump = func() {
			if !s.dep.Settle(settleBudget) {
				s.settleFailed.Add(1)
			}
		}
	}
	if traced {
		s.tr = newTracer(sink, w)
		s.tr.files = files
		sink = s.tr
		if pump != nil {
			pump = s.tr.timedSettle(pump)
		}
	}

	if sink != nil {
		if err := rt.SetDurability(sink); err != nil {
			return nil, err
		}
	}

	// Preload through the admission path the server batches through. It
	// passes the sink like any tick, so a store, a deployment or the
	// tracer's replay all start from the preloaded state.
	for len(preload) > 0 {
		n := min(128, len(preload))
		inj := make([]transducer.Injection, n)
		for i, r := range preload[:n] {
			inj[i] = transducer.Injection{Mailbox: r.Mailbox, Payload: r.Payload}
		}
		preload = preload[n:]
		rt.InjectBatch(inj)
		rt.Tick()
		rt.RunUntilIdle(256)
		if pump != nil {
			pump()
		}
		for _, in := range inj {
			rt.Drain(in.Mailbox + "<response>")
		}
	}
	if s.tr != nil {
		s.tr.preloaded = len(s.tr.ticks)
	}

	// cmd/hydroload's serving configuration.
	s.srv = serve.New(rt, serve.Config{
		MaxBatch:        128,
		MaxWait:         500 * time.Microsecond,
		QueueDepth:      1024,
		Policy:          serve.Shed,
		SerialMailboxes: []string{"vaccinate"},
		Lanes:           true,
		FanoutPump:      pump,
		DrainMailboxes:  []string{"alert", "trace_response"},
		OnDrain:         func(_ string, msgs []transducer.Message) { s.sends.Add(int64(len(msgs))) },
	})
	built = true
	return s, nil
}

// shutDown stops the server and releases the store. The runtime stays
// readable (the oracles read it afterwards).
func (s *system) shutDown() error {
	s.srv.Close()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// record is what the run keeps of one request.
type record struct {
	ok        bool  // submitted, answered without error, reply as expected
	latencyNs int64 // due (paced) or submitted (saturate) → resolved
	lateNs    int64 // paced: due → handed to Submit
	timing    serve.RequestTiming
}

// counters is every exported counter the run reads, taken at a phase edge.
type counters struct {
	serve serve.Metrics
	sends int64
	net   simnet.Stats  // sharded only
	now   simnet.Time   // sharded only: the network's virtual clock
	shard shard.Metrics // sharded only
}

func (s *system) counters() counters {
	c := counters{serve: s.srv.Metrics(), sends: s.sends.Load()}
	if s.dep != nil {
		// The eval goroutine owns the deployment while the server runs;
		// Sync reads it with the pipeline quiescent.
		_ = s.srv.Sync(func(*transducer.Runtime) { c.net, c.now, c.shard = s.net.Stats(), s.net.Now(), s.dep.Metrics() })
	}
	return c
}

// phaseStats frames one phase of a rep with the counters read at its edges.
type phaseStats struct {
	from, to      int // request index range [from, to)
	start         time.Time
	wall, cpu     time.Duration
	before, after counters
}

func (p *phaseStats) requests() float64 { return float64(p.to - p.from) }

// rep is one measured pass: paced phase, then saturate phase, on one system.
type rep struct {
	recs       []record
	paced, sat phaseStats
	allocBytes uint64  // TotalAlloc over both phases
	gcCycles   uint32  // over both phases
	gcCPU      float64 // GC CPU seconds ÷ process CPU seconds over both phases
	heapLive   uint64  // HeapAlloc after a forced GC at the end
	heapSys    uint64  // HeapSys at the end: the heap's high-water mark
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds reads the runtime's own estimate of CPU spent collecting.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	return sample[0].Value.Float64()
}

// item hands one submitted request to the reaper. from is when its latency
// starts: the due time in the paced phase, the submission in the saturate
// phase. A nil p marks the end of the paced phase.
type item struct {
	i    int
	from time.Time
	p    *serve.Pending
}

// drive runs reqs through the server: reqs[:paced] open loop at rate, each
// due at start + i/rate whatever the server is doing, then the rest closed
// loop with `window` outstanding. One generator goroutine (the caller) and
// one reaper goroutine, which resolves requests in submission order and
// checks each reply against want.
func (s *system) drive(reqs []serve.Request, want []any, paced int, rate float64) *rep {
	r := &rep{recs: make([]record, len(reqs))}
	// Sized to the number of sends plus the phase marker, so the generator
	// never waits for the reaper.
	items := make(chan item, len(reqs)+1)
	slots := make(chan struct{}, window)
	pacedDone := make(chan struct{})
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		for it := range items {
			if it.p == nil {
				close(pacedDone)
				continue
			}
			resp := it.p.Wait()
			done := time.Now()
			rec := &r.recs[it.i]
			rec.ok = resp.Err == nil && replyIs(resp.Reply, want[it.i])
			rec.timing = resp.Timing
			rec.latencyNs = done.Sub(it.from).Nanoseconds()
			if it.i >= paced {
				<-slots
			}
		}
	}()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()

	r.paced.to = paced
	r.paced.before = s.counters()
	cpu0, start := cpuTime(), time.Now()
	r.paced.start = start
	interval := float64(time.Second) / rate
	for i := 0; i < paced; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.recs[i].lateNs = time.Since(due).Nanoseconds()
		if p, err := s.srv.Submit(reqs[i]); err == nil {
			items <- item{i: i, from: due, p: p}
		}
	}
	items <- item{}
	<-pacedDone
	r.paced.wall, r.paced.cpu = time.Since(start), cpuTime()-cpu0
	r.paced.after = s.counters()

	r.sat.from, r.sat.to = paced, len(reqs)
	r.sat.before = r.paced.after
	cpu0, start = cpuTime(), time.Now()
	r.sat.start = start
	for i := paced; i < len(reqs); i++ {
		slots <- struct{}{}
		if p, err := s.srv.Submit(reqs[i]); err == nil {
			items <- item{i: i, from: time.Now(), p: p}
		} else {
			<-slots
		}
	}
	close(items)
	<-reaped
	r.sat.wall, r.sat.cpu = time.Since(start), cpuTime()-cpu0
	r.sat.after = s.counters()

	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcCPU = (gcCPUSeconds() - gc0) / (r.paced.cpu + r.sat.cpu).Seconds()
	r.heapSys = m1.HeapSys
	return r
}

// measureHeap forces a collection and reads the live heap: the program's
// state footprint, plus this benchmark's own request and record slices
// (the same bytes on every commit).
func (r *rep) measureHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapLive = m.HeapAlloc
}

// freshSystem sets a workload up; a durable one gets a fresh directory for
// its store under .bench_build/ in the working directory (the benchmark
// writes nowhere else).
func freshSystem(w *workload, preload []serve.Request, traced bool) (*system, error) {
	dir := ""
	if w.durable {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		var err error
		if dir, err = os.MkdirTemp(".bench_build", "store-"); err != nil {
			return nil, err
		}
	}
	s, err := setUp(w, preload, dir, traced)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	return s, nil
}

// discard shuts a system down and removes its scratch directory.
func (s *system) discard() {
	_ = s.shutDown() // the store is being thrown away
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}
