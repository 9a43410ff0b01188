package serve

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/transducer"
)

// The sweep is the serving analogue of the parallel≡serial and
// sharded≡single-node gates: batched ingestion must leave the runtime in
// exactly the state one-message-per-tick delivery leaves it in, across
// random request streams that include rejected ticks (poison requests
// writing a derived head), serializable handlers (vaccinate), and
// randomized send-delivery delays (the same churn simnet injects). The
// serve loop executes requests in admission order, so the serial reference
// replays them in submission order, and every response's
// (Timing.Batch, Timing.Index) must strictly increase with its submission
// index. `make serve-soak` scales it up via these flags.
var (
	serveSeeds = flag.Int("serve-seeds", 20, "seeds for the batched≡serial equivalence sweep")
	serveReqs  = flag.Int("serve-reqs", 100, "requests per seed in the equivalence sweep")
)

// covidRuntime instantiates the paper's COVID pipeline plus two
// hand-written handlers. A poison handler writes the derived `transitive`
// relation, so the evaluator rejects any tick carrying it. A relay handler
// sends to a *handled* mailbox, whose handler merges into a test table:
// COVID's own sends all go to observation mailboxes, which commit in their
// tick, so the relay is what the churn arm's randomized delays act on.
func covidRuntime(t testing.TB, seed int64, churn bool) *transducer.Runtime {
	t.Helper()
	c, err := hydrolysis.Compile(hlang.CovidSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{
			"covid_predict": func(args []any) any { return float64(args[0].(int64)%100) / 100.0 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("srv", seed)
	if err != nil {
		t.Fatal(err)
	}
	if !churn {
		rt.SetDelay(func(r *rand.Rand) int { return 1 })
	}
	rt.RegisterHandler("poison", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("transitive", datalog.Tuple{msg.Payload[0], msg.Payload[0]})
	})
	rt.RegisterTable(transducer.TableSchema{Name: "relayed", Arity: 1})
	rt.RegisterHandler("relay", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Send("relay_hop", msg.Payload)
	})
	rt.RegisterHandler("relay_hop", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("relayed", msg.Payload)
	})
	return rt
}

// countLate draws transducer.DefaultDelay, counting in *late the draws
// that deliver a send later than the next tick: the churn arm asserts it
// delayed something.
func countLate(late *int) transducer.DelayFn {
	return func(r *rand.Rand) int {
		d := transducer.DefaultDelay(r)
		if d > 1 {
			*late++
		}
		return d
	}
}

// canonicalState renders the runtime's committed state order-insensitively:
// every relation's live tuples sorted, plus the scalar vars. Batching
// regroups messages into ticks, so relation *slot* order (an artifact of
// delta grouping) legitimately differs from serial delivery; the fixpoint
// as a set of tuples per relation, and every scalar, must be byte-identical.
func canonicalState(rt *transducer.Runtime, vars []string) string {
	var b strings.Builder
	names := rt.TableNames()
	sort.Strings(names)
	for _, name := range names {
		rows := []string{}
		for _, tu := range rt.Table(name).Tuples() {
			rows = append(rows, fmt.Sprintf("%v", tu))
		}
		sort.Strings(rows)
		fmt.Fprintf(&b, "%s:%s\n", name, strings.Join(rows, ";"))
	}
	for _, v := range vars {
		fmt.Fprintf(&b, "var %s=%v\n", v, rt.Var(v))
	}
	return b.String()
}

func genCovidRequests(r *rand.Rand, n int) (reqs []Request, poison []bool) {
	const people = 12
	countries := []string{"us", "fr", "in"}
	for i := 0; i < n; i++ {
		pid := int64(r.Intn(people))
		switch k := r.Intn(100); {
		case k < 25:
			reqs = append(reqs, Request{Mailbox: "add_person", Payload: datalog.Tuple{pid, countries[r.Intn(len(countries))]}})
		case k < 60:
			reqs = append(reqs, Request{Mailbox: "add_contact", Payload: datalog.Tuple{pid, int64(r.Intn(people))}})
		case k < 75:
			reqs = append(reqs, Request{Mailbox: "diagnosed", Payload: datalog.Tuple{pid}})
		case k < 80:
			reqs = append(reqs, Request{Mailbox: "likelihood", Payload: datalog.Tuple{pid}})
		case k < 85:
			reqs = append(reqs, Request{Mailbox: "relay", Payload: datalog.Tuple{pid}})
		case k < 93:
			reqs = append(reqs, Request{Mailbox: "vaccinate", Payload: datalog.Tuple{pid}})
		default:
			reqs = append(reqs, Request{Mailbox: "poison", Payload: datalog.Tuple{pid}})
		}
		poison = append(poison, reqs[len(reqs)-1].Mailbox == "poison")
	}
	return reqs, poison
}

// driveSerial is the reference schedule: one message per tick, settled to
// idle before the next message is admitted.
func driveSerial(rt *transducer.Runtime, reqs []Request) {
	for _, req := range reqs {
		rt.Inject(req.Mailbox, req.Payload)
		rt.Tick()
		rt.RunUntilIdle(256)
	}
}

func TestBatchedEqualsSerialSweep(t *testing.T) {
	covidVars := []string{"vaccine_count"}
	rejectedBatches := uint64(0)
	late := 0
	for seed := 0; seed < *serveSeeds; seed++ {
		for _, churn := range []bool{false, true} {
			r := rand.New(rand.NewSource(int64(seed)*4 + b2i(churn)))
			reqs, poison := genCovidRequests(r, *serveReqs)

			ref := covidRuntime(t, int64(seed), churn)
			driveSerial(ref, reqs)
			want := canonicalState(ref, covidVars)

			rt := covidRuntime(t, int64(seed), churn)
			if churn {
				rt.SetDelay(countLate(&late))
			}
			s := New(rt, Config{
				MaxBatch:       1 + r.Intn(16),
				MaxWait:        time.Duration(100+r.Intn(400)) * time.Microsecond,
				QueueDepth:     64,
				DrainMailboxes: []string{"alert", "trace_response"},
			})
			ps := make([]*Pending, len(reqs))
			for i, req := range reqs {
				p, err := s.Submit(req)
				if err != nil {
					t.Fatalf("seed %d churn=%v: submit: %v", seed, churn, err)
				}
				ps[i] = p
			}
			var prev RequestTiming
			for i, p := range ps {
				resp := p.Wait()
				if poison[i] && resp.Err == nil {
					t.Fatalf("seed %d churn=%v: poison request %d served without rejection", seed, churn, i)
				}
				if !poison[i] && resp.Err != nil {
					t.Fatalf("seed %d churn=%v: request %d (%s) failed: %v", seed, churn, i, reqs[i].Mailbox, resp.Err)
				}
				// Admission order is the executed order, retried singletons
				// included.
				if tm := resp.Timing; tm.Batch < prev.Batch || tm.Batch == prev.Batch && tm.Index <= prev.Index {
					t.Fatalf("seed %d churn=%v: request %d ran at (batch %d, index %d), not after request %d at (%d, %d)",
						seed, churn, i, tm.Batch, tm.Index, i-1, prev.Batch, prev.Index)
				}
				prev = resp.Timing
			}
			rejectedBatches += s.Metrics().RejectedBatches
			s.Close()
			if got := canonicalState(s.Runtime(), covidVars); got != want {
				t.Fatalf("seed %d churn=%v: batched state diverged from serial\nserial:\n%s\nbatched:\n%s",
					seed, churn, want, got)
			}
		}
	}
	if rejectedBatches == 0 {
		t.Fatal("sweep never exercised a rejected batch tick")
	}
	if late == 0 {
		t.Fatal("churn arm never delivered a send late")
	}
}

// TestConcurrentSubmittersEqualSerialSweep keeps several submitters'
// requests in flight at once, so no single submission order exists to
// replay. The oracle is the executed order instead, recovered from each
// response's (Timing.Batch, Timing.Index): no two requests may claim the
// same position, and the schedule the server reports must be one the
// serial semantics accept, byte for byte.
func TestConcurrentSubmittersEqualSerialSweep(t *testing.T) {
	const submitters = 4
	covidVars := []string{"vaccine_count"}
	rejected := uint64(0)
	late := 0
	seeds := *serveSeeds
	if seeds > 10 {
		seeds = 10 // the recorded-order replay doubles the serial work per seed
	}
	for seed := 0; seed < seeds; seed++ {
		for _, churn := range []bool{false, true} {
			r := rand.New(rand.NewSource(int64(seed)*2 + b2i(churn) + 7777))
			reqs, poison := genCovidRequests(r, *serveReqs)

			rt := covidRuntime(t, int64(seed), churn)
			if churn {
				rt.SetDelay(countLate(&late))
			}
			s := New(rt, Config{
				MaxBatch:       1 + r.Intn(16),
				MaxWait:        time.Duration(100+r.Intn(400)) * time.Microsecond,
				QueueDepth:     64,
				DrainMailboxes: []string{"alert", "trace_response"},
			})
			submitErrs := make([]error, len(reqs))
			resps := make([]Response, len(reqs))
			var wg sync.WaitGroup
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var idx []int
					var ps []*Pending
					for i := g; i < len(reqs); i += submitters {
						p, err := s.Submit(reqs[i])
						if err != nil {
							submitErrs[i] = err
							continue
						}
						idx, ps = append(idx, i), append(ps, p)
					}
					for k, p := range ps {
						resps[idx[k]] = p.Wait()
					}
				}(g)
			}
			wg.Wait()
			for i, resp := range resps {
				if submitErrs[i] != nil {
					t.Fatalf("seed %d churn=%v: submit %d: %v", seed, churn, i, submitErrs[i])
				}
				if poison[i] != (resp.Err != nil) {
					t.Fatalf("seed %d churn=%v: request %d (%s) err=%v", seed, churn, i, reqs[i].Mailbox, resp.Err)
				}
			}
			rejected += s.Metrics().RejectedBatches
			s.Close()

			order := make([]int, len(reqs))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				ta, tb := resps[order[a]].Timing, resps[order[b]].Timing
				return ta.Batch < tb.Batch || ta.Batch == tb.Batch && ta.Index < tb.Index
			})
			for k := 1; k < len(order); k++ {
				prev, cur := resps[order[k-1]].Timing, resps[order[k]].Timing
				if prev.Batch == cur.Batch && prev.Index == cur.Index {
					t.Fatalf("seed %d churn=%v: requests %d and %d both ran at (batch %d, index %d)",
						seed, churn, order[k-1], order[k], cur.Batch, cur.Index)
				}
			}
			ref := covidRuntime(t, int64(seed), churn)
			for _, i := range order {
				ref.Inject(reqs[i].Mailbox, reqs[i].Payload)
				ref.Tick()
				ref.RunUntilIdle(256)
			}
			want := canonicalState(ref, covidVars)
			if got := canonicalState(rt, covidVars); got != want {
				t.Fatalf("seed %d churn=%v: served state diverged from executed-order serial\nserial:\n%s\nserved:\n%s",
					seed, churn, want, got)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("sweep never exercised a rejected batch tick")
	}
	if late == 0 {
		t.Fatal("churn arm never delivered a send late")
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
