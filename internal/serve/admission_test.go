package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/transducer"
)

// TestServeSerialCutsBatch: a serializable request cuts the pending batch
// in place — the prefix ticks first, then the request ticks alone — so
// interleaved serializable traffic fragments the monotone batches, and
// only the singletons count as serial flushes.
func TestServeSerialCutsBatch(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	rt.RegisterSerial("incr")
	s := New(rt, Config{MaxBatch: 4, MaxWait: 50 * time.Millisecond, QueueDepth: 16})
	defer s.Close()
	release := holdLoop(t, s)
	// a, i, a, i, a, a: two serializable incrs interleaved into four adds.
	var ps []*Pending
	ps = append(ps, mustSubmit(t, s, "add_edge", datalog.Tuple{int64(1), int64(2)}))
	ps = append(ps, mustSubmit(t, s, "incr", datalog.Tuple{}))
	ps = append(ps, mustSubmit(t, s, "add_edge", datalog.Tuple{int64(2), int64(3)}))
	ps = append(ps, mustSubmit(t, s, "incr", datalog.Tuple{}))
	ps = append(ps, mustSubmit(t, s, "add_edge", datalog.Tuple{int64(3), int64(4)}))
	ps = append(ps, mustSubmit(t, s, "add_edge", datalog.Tuple{int64(4), int64(5)}))
	release()
	maxAddBatch := 0
	for _, p := range ps {
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		switch r.Timing.Mailbox {
		case "add_edge":
			maxAddBatch = max(maxAddBatch, r.Timing.BatchSize)
		case "incr":
			if r.Timing.BatchSize != 1 {
				t.Fatalf("serializable request batched at size %d", r.Timing.BatchSize)
			}
		}
	}
	if maxAddBatch >= 4 {
		t.Fatalf("serial cuts should fragment the adds, got a batch of %d", maxAddBatch)
	}
	// [a] [i] [a] [i] [a a]: five batches, two of them serial singletons.
	if m := s.Metrics(); m.Batches != 5 || m.SerialFlushes != 2 {
		t.Fatalf("batches=%d serial=%d, want 5/2", m.Batches, m.SerialFlushes)
	}
	var count int64
	if err := s.Sync(func(rt *transducer.Runtime) { count = rt.Var("count").(int64) }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("serializable counter = %d, want 2 (one tick per incr)", count)
	}
}

// TestServeGaugeNeverNegative is the regression for the queue-depth gauge
// race: Submit used to increment after the channel send, so the loop's
// decrement could land first and the gauge could read negative. Hammer
// concurrent submitters against the dequeuing loop and sample the gauge
// throughout (run under -race in CI).
func TestServeGaugeNeverNegative(t *testing.T) {
	const queueDepth, submitters, perSubmitter = 8, 4, 500
	s := New(newGraphRuntime(t, 1), Config{
		MaxBatch: 8, MaxWait: 50 * time.Microsecond, QueueDepth: queueDepth, Policy: Shed,
	})
	defer s.Close()

	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if d := s.Metrics().QueueDepth; d < 0 {
				t.Errorf("QueueDepth = %d, gauge went negative", d)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	pending := make(chan *Pending, submitters*perSubmitter)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				p, err := s.Submit(Request{Mailbox: "add_edge", Payload: datalog.Tuple{int64(g*perSubmitter + i), int64(1 << 30)}})
				if err != nil {
					continue // shed under pressure: expected
				}
				pending <- p
			}
		}(g)
	}
	wg.Wait()
	close(pending)
	for p := range pending {
		if r := p.Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	close(stopSampling)
	sampler.Wait()
	if d := s.Metrics().QueueDepth; d != 0 {
		t.Fatalf("drained gauge = %d, want 0", d)
	}
	// The gauge must have moved, and can exceed QueueDepth only by the
	// submitters' momentary refused attempts; more would mean lost
	// decrements.
	if hw := s.Metrics().QueueHighWater; hw < 1 || hw > queueDepth+submitters {
		t.Fatalf("QueueHighWater = %d, want within [1, QueueDepth+submitters=%d]", hw, queueDepth+submitters)
	}
}

// TestServeCloseDuringInflightBatch: Close while a batch is mid-tick. The
// in-flight batch always completes; the queued backlog is then served
// under Block and answered with ErrClosed under Shed. Either way no
// goroutine is left blocked in Pending.Wait.
func TestServeCloseDuringInflightBatch(t *testing.T) {
	for _, policy := range []Policy{Block, Shed} {
		name := map[Policy]string{Block: "Block", Shed: "Shed"}[policy]
		t.Run(name, func(t *testing.T) {
			rt := newGraphRuntime(t, 1)
			entered := make(chan struct{})
			resume := make(chan struct{})
			var once sync.Once
			rt.RegisterHandler("slow", func(tx *transducer.Tx, msg transducer.Message) {
				once.Do(func() { close(entered) })
				<-resume
			})
			s := New(rt, Config{MaxBatch: 1, MaxWait: time.Hour, QueueDepth: 16, Policy: policy})

			inflight := mustSubmit(t, s, "slow", datalog.Tuple{})
			<-entered // the loop is now blocked mid-tick, so nothing below is dequeued
			queued := []*Pending{mustSubmit(t, s, "slow", datalog.Tuple{})}
			for i := 0; i < 3; i++ {
				queued = append(queued, mustSubmit(t, s, "add_edge", datalog.Tuple{int64(i), int64(i + 1)}))
			}

			closed := make(chan struct{})
			go func() { s.Close(); close(closed) }()
			// Close latches admission and fires stop while the tick is still
			// in flight; only then release the handler, so the shutdown drain
			// is what settles the backlog.
			<-s.stop
			close(resume)
			<-closed
			if _, err := s.Submit(Request{Mailbox: "add_edge", Payload: datalog.Tuple{int64(99), int64(100)}}); !errors.Is(err, ErrClosed) {
				t.Fatalf("submit after Close = %v, want ErrClosed", err)
			}

			if r := inflight.Wait(); r.Err != nil {
				t.Fatalf("in-flight batch failed at Close: %v", r.Err)
			}
			served, closedOut := 0, 0
			for _, p := range queued {
				switch r := p.Wait(); {
				case r.Err == nil:
					served++
				case errors.Is(r.Err, ErrClosed):
					closedOut++
				default:
					t.Fatalf("queued request: %v", r.Err)
				}
			}
			want := map[Policy][2]int{Block: {4, 0}, Shed: {0, 4}}[policy]
			if served != want[0] || closedOut != want[1] {
				t.Fatalf("served=%d closed=%d, want %d/%d", served, closedOut, want[0], want[1])
			}
			if got := int(s.Metrics().ClosedUnserved); got != closedOut {
				t.Fatalf("ClosedUnserved = %d, want %d", got, closedOut)
			}
		})
	}
}

// TestServeRetrySingletonTimingsAndDrainOnce covers the rejected-batch
// retry path crossing DrainMailboxes and Response.Timing: each re-injected
// singleton is its own batch (fresh sequence number, size 1, Retried
// set), and observation messages drained after the flush are delivered
// exactly once — the rejected batch tick's rolled-back sends must not
// reappear next to the retry ticks' real ones.
func TestServeRetrySingletonTimingsAndDrainOnce(t *testing.T) {
	rt := newGraphRuntime(t, 1)
	// Like add_edge, but each ingested edge also emits one observation.
	rt.RegisterHandler("noisy_add", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("edge", msg.Payload)
		tx.Send("obs", msg.Payload)
	})
	var obs []datalog.Tuple
	s := New(rt, Config{
		MaxBatch: 8, MaxWait: 10 * time.Millisecond, QueueDepth: 16,
		DrainMailboxes: []string{"obs"},
		OnDrain: func(mailbox string, msgs []transducer.Message) {
			for _, m := range msgs {
				obs = append(obs, m.Payload)
			}
		},
	})
	defer s.Close()
	release := holdLoop(t, s)
	ps := []*Pending{
		mustSubmit(t, s, "noisy_add", datalog.Tuple{int64(1), int64(2)}),
		mustSubmit(t, s, "poison", datalog.Tuple{int64(9), int64(9)}),
		mustSubmit(t, s, "noisy_add", datalog.Tuple{int64(2), int64(3)}),
	}
	release()
	batches := map[uint64]bool{}
	for i, p := range ps {
		r := p.Wait()
		if poison := i == 1; poison != (r.Err != nil) {
			t.Fatalf("request %d: err = %v, want an error only for the poison", i, r.Err)
		}
		tt := r.Timing
		if !tt.Retried {
			t.Fatalf("retried singleton not flagged: %+v", tt)
		}
		if tt.BatchSize != 1 || tt.Index != 0 {
			t.Fatalf("retried singleton not its own batch: %+v", tt)
		}
		if batches[tt.Batch] {
			t.Fatalf("two retried singletons share batch %d", tt.Batch)
		}
		batches[tt.Batch] = true
		if (tt.Mailbox == "poison") != tt.Rejected {
			t.Fatalf("rejection flag wrong: %+v", tt)
		}
	}
	// OnDrain runs on the serve loop; synchronize before reading.
	var gotObs []datalog.Tuple
	s.Sync(func(*transducer.Runtime) { gotObs = obs })

	// Exactly one observation per committed edge: the rejected batch
	// tick's sends rolled back with it.
	if len(gotObs) != 2 {
		t.Fatalf("obs = %v, want exactly the two retry ticks' observations", gotObs)
	}
	if gotObs[0][0] == gotObs[1][0] {
		t.Fatalf("obs double-delivered: %v", gotObs)
	}
}

// TestServeCompiledSerialVerdict: the compiled COVID program served with
// the zero Config keeps vaccinate's serial schedule, because the compiler
// registers its coordination verdict on the runtime. 150 vaccinate
// requests staged in one batch window against a stock of 100 tick one
// at a time: 101 pass require(vaccine_count >= 0) and reply, the count
// ends at -1, and the rest abort. Without consistency(serializable) the
// handler needs no coordination, and no request ticks alone.
func TestServeCompiledSerialVerdict(t *testing.T) {
	const n = 150
	serve := func(src string) (ok int, count any, m Metrics) {
		c, err := hydrolysis.Compile(src, hydrolysis.Options{
			UDFs: map[string]hydrolysis.UDF{"covid_predict": func([]any) any { return 0.0 }},
		})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := c.Instantiate("srv", 1)
		if err != nil {
			t.Fatal(err)
		}
		s := New(rt, Config{})
		release := holdLoop(t, s)
		ps := make([]*Pending, n)
		for i := range ps {
			ps[i] = mustSubmit(t, s, "vaccinate", datalog.Tuple{int64(i)})
		}
		release()
		for _, p := range ps {
			if r := p.Wait(); r.Err == nil && fmt.Sprint(r.Reply) == "(OK)" {
				ok++
			}
		}
		s.Close()
		return ok, s.Runtime().Var("vaccine_count"), s.Metrics()
	}
	ok, count, m := serve(hlang.CovidSource)
	if ok != 101 || count != int64(-1) || m.SerialFlushes != n {
		t.Fatalf("serializable vaccinate: %d OK, vaccine_count %v, %d serial flushes; want 101, -1, %d", ok, count, m.SerialFlushes, n)
	}
	eventual := strings.Replace(hlang.CovidSource, " consistency(serializable)", "", 1)
	if eventual == hlang.CovidSource {
		t.Fatal("the COVID source no longer declares vaccinate serializable")
	}
	if _, _, m := serve(eventual); m.SerialFlushes != 0 {
		t.Fatalf("eventual vaccinate: %d serial flushes, want 0", m.SerialFlushes)
	}
}
