package serve

import (
	"math/rand"
	"testing"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/transducer"
)

// benchRuntime is the ingestion fixture: an incremental transitive-closure
// program fed unique chain-free edges, so every message carries a real
// delta through Incremental.Apply without the closure blowing up as b.N
// grows. The handler stays silent (no replies) so response mailboxes don't
// accumulate across a long benchmark run.
func benchRuntime(tb testing.TB) *transducer.Runtime {
	rt := transducer.New("bench", 1)
	rt.SetDelay(fixedDelay)
	rt.RegisterTable(transducer.TableSchema{Name: "edge", Arity: 2})
	if err := rt.RegisterQueriesIncremental(tcProgram(tb)); err != nil {
		tb.Fatal(err)
	}
	rt.RegisterHandler("add_edge", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("edge", msg.Payload)
	})
	return rt
}

const benchKeys = 256

func benchEdge(i int) datalog.Tuple {
	return datalog.Tuple{int64(i % benchKeys), int64(benchKeys + i)}
}

// ingest drives n messages at the given batch size: one tick per batch,
// which is one Incremental.Apply per batch. batch=1 is
// the pre-serving one-message-per-tick delivery model.
func ingest(rt *transducer.Runtime, start, n, batch int) {
	inj := make([]transducer.Injection, 0, batch)
	for i := 0; i < n; {
		inj = inj[:0]
		for j := 0; j < batch && i < n; j++ {
			inj = append(inj, transducer.Injection{Mailbox: "add_edge", Payload: benchEdge(start + i)})
			i++
		}
		rt.InjectBatch(inj)
		rt.Tick()
	}
}

// BenchmarkServeIngestPerMessage is the baseline the serving front-end
// replaces: every injected message pays a full tick (and one
// Incremental.Apply). ns/op is per message.
func BenchmarkServeIngestPerMessage(b *testing.B) {
	rt := benchRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	ingest(rt, 0, b.N, 1)
}

// BenchmarkServeIngestBatched64 amortizes the per-tick fixed costs across
// 64-message batches. ns/op is per message.
func BenchmarkServeIngestBatched64(b *testing.B) {
	rt := benchRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	ingest(rt, 0, b.N, 64)
}

// BenchmarkServeIngestBatched256 is the large-batch point. ns/op is per
// message.
func BenchmarkServeIngestBatched256(b *testing.B) {
	rt := benchRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	ingest(rt, 0, b.N, 256)
}

// BenchmarkServeSubmitPipeline measures the full serving shell — admission
// queue, batcher, tick, settle, reply correlation, timing capture — per
// request, with an open submitter so batches actually form.
func BenchmarkServeSubmitPipeline(b *testing.B) {
	rt := benchRuntime(b)
	s := New(rt, Config{MaxBatch: 256, MaxWait: 200 * time.Microsecond, QueueDepth: 1024})
	defer s.Close()
	ps := make([]*Pending, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Submit(Request{Mailbox: "add_edge", Payload: benchEdge(i)})
		if err != nil {
			b.Fatal(err)
		}
		ps[i] = p
	}
	for _, p := range ps {
		if r := p.Wait(); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkServeCovid serves covid-grow's mix (20 % add_person, 50 %
// add_contact, 15 % diagnosed, 10 % likelihood, 5 % vaccinate; ids by zipf
// s=1.2 over 1000), poison-free, through the COVID program with the
// end-to-end benchmark's serving configuration, so its profiles are
// profiles of the whole serving stack:
//
//	go test -run '^$' -bench BenchmarkServeCovid -cpuprofile cpu.prof -memprofile mem.prof ./internal/serve
//
// Submit blocks instead of shedding, so every request is served. ns/op is
// per request.
func BenchmarkServeCovid(b *testing.B) {
	s := New(covidRuntime(b, 1, false), Config{
		MaxBatch: 128, MaxWait: 500 * time.Microsecond, QueueDepth: 1024,
		DrainMailboxes: []string{"alert", "trace_response"},
	})
	defer s.Close()
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.2, 1, 999)
	countries := []string{"us", "fr", "in", "br", "jp"}
	reqs := make([]Request, b.N)
	for i := range reqs {
		pid := int64(zipf.Uint64())
		switch k := r.Intn(100); {
		case k < 20:
			reqs[i] = Request{Mailbox: "add_person", Payload: datalog.Tuple{pid, countries[r.Intn(len(countries))]}}
		case k < 70:
			reqs[i] = Request{Mailbox: "add_contact", Payload: datalog.Tuple{pid, int64(zipf.Uint64())}}
		case k < 85:
			reqs[i] = Request{Mailbox: "diagnosed", Payload: datalog.Tuple{pid}}
		case k < 95:
			reqs[i] = Request{Mailbox: "likelihood", Payload: datalog.Tuple{pid}}
		default:
			reqs[i] = Request{Mailbox: "vaccinate", Payload: datalog.Tuple{pid}}
		}
	}
	ps := make([]*Pending, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i, req := range reqs {
		p, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		ps[i] = p
	}
	for _, p := range ps {
		if r := p.Wait(); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// TestBatchedIngestionBeatsPerMessage is the acceptance gate for the
// serving front-end: batching must amortize the per-tick fixed costs. What
// it buys is deterministic — one tick, and so one Incremental.Apply pass,
// per 256 messages instead of per message — so that is what is asserted;
// the wall-clock ratio of two ~10 ms windows is logged, not gated (it read
// 1.09× once in 15 runs on a 2-vCPU host).
func TestBatchedIngestionBeatsPerMessage(t *testing.T) {
	const n, batch = 4096, 256
	run := func(size int) (elapsed time.Duration, ticks uint64) {
		rt := benchRuntime(t)
		ingest(rt, 0, 512, size) // warm-up: build relations, indexes, plans
		before := rt.Stats().Ticks
		start := time.Now()
		ingest(rt, 512, n, size)
		return time.Since(start), rt.Stats().Ticks - before
	}
	perMessage, perMessageTicks := run(1)
	batched, batchedTicks := run(batch)
	t.Logf("per-message: %v for %d msgs (%.0f msg/s); batched(%d): %v (%.0f msg/s)",
		perMessage, n, float64(n)/perMessage.Seconds(), batch, batched, float64(n)/batched.Seconds())
	if perMessageTicks != n || batchedTicks != n/batch {
		t.Fatalf("ticks for %d messages: per-message %d (want %d), batched(%d) %d (want %d)",
			n, perMessageTicks, n, batch, batchedTicks, n/batch)
	}
}
