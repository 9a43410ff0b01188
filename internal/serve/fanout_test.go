package serve

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/shard"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// fanSettleBudget bounds one Settle call on the teed deployment (same
// order as the shard package's own settle budget).
const fanSettleBudget = 400_000

// fanRuntime is the fan-out fixture: the TC program served locally with
// handlers for inserts, deletes, and a poison write to the derived head.
func fanRuntime(t testing.TB, seed int64, churn bool) *transducer.Runtime {
	t.Helper()
	rt := transducer.New("fan", seed)
	if !churn {
		rt.SetDelay(fixedDelay)
	}
	rt.RegisterTable(transducer.TableSchema{Name: "edge", Arity: 2})
	if err := rt.RegisterQueriesIncremental(tcProgram(t)); err != nil {
		t.Fatal(err)
	}
	rt.RegisterHandler("add_edge", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("edge", msg.Payload)
	})
	rt.RegisterHandler("del_edge", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Delete("edge", msg.Payload)
	})
	rt.RegisterHandler("poison", func(tx *transducer.Tx, msg transducer.Message) {
		tx.MergeTuple("path", msg.Payload)
	})
	return rt
}

func genFanRequests(r *rand.Rand, n int) []Request {
	const keys = 9
	var reqs []Request
	for i := 0; i < n; i++ {
		e := datalog.Tuple{int64(r.Intn(keys)), int64(r.Intn(keys))}
		switch k := r.Intn(100); {
		case k < 70:
			reqs = append(reqs, Request{Mailbox: "add_edge", Payload: e})
		case k < 92:
			reqs = append(reqs, Request{Mailbox: "del_edge", Payload: e})
		default:
			reqs = append(reqs, Request{Mailbox: "poison", Payload: e})
		}
	}
	return reqs
}

// TestFanoutEqualsSerial drives the server with a shard.Sink on the
// runtime's durability seam teeing committed ticks into a 2-replica sharded
// deployment, across seeds × churn × rejected ticks. Three-way gate: the
// serving runtime must match the serial reference (canonical state), and
// the deployment's distributed fixpoint must match the serving runtime's
// tables byte for byte — rejected ticks never reach the cluster.
func TestFanoutEqualsSerial(t *testing.T) {
	seeds := *serveSeeds
	if seeds > 6 {
		seeds = 6 // each seed spins up a simulated cluster
	}
	rejected := uint64(0)
	for seed := 0; seed < seeds; seed++ {
		for _, churn := range []bool{false, true} {
			r := rand.New(rand.NewSource(int64(seed)*2 + b2i(churn) + 31337))
			reqs := genFanRequests(r, 40+r.Intn(40))

			topo := cluster.NewTopology(3, 2, 2, cluster.ClassSmall)
			cl := cluster.New(topo, simnet.DefaultConfig(int64(seed)))
			machines, err := topo.SpreadAcross(cluster.AZ, 2)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := shard.Deploy(cl, fmt.Sprintf("fan%d", seed), tcProgram(t), map[string]int{"edge": 2}, machines, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}

			rt := fanRuntime(t, int64(seed), churn)
			if err := rt.SetDurability(shard.NewSink(dep)); err != nil {
				t.Fatal(err)
			}
			s := New(rt, Config{
				MaxBatch:   1 + r.Intn(8),
				MaxWait:    time.Duration(100+r.Intn(400)) * time.Microsecond,
				QueueDepth: 64,
				FanoutPump: func() { dep.Settle(fanSettleBudget) },
			})
			ps := make([]*Pending, len(reqs))
			for i, req := range reqs {
				p, err := s.Submit(req)
				if err != nil {
					t.Fatalf("seed %d churn=%v: submit: %v", seed, churn, err)
				}
				ps[i] = p
			}
			for i, p := range ps {
				resp := p.Wait()
				if (reqs[i].Mailbox == "poison") != (resp.Err != nil) {
					t.Fatalf("seed %d churn=%v: request %d (%s) err=%v", seed, churn, i, reqs[i].Mailbox, resp.Err)
				}
			}
			rejected += s.Metrics().RejectedBatches
			s.Close()

			// Serving runtime ≡ serial reference.
			ref := fanRuntime(t, int64(seed), churn)
			driveSerial(ref, reqs)
			if got, want := canonicalState(rt, nil), canonicalState(ref, nil); got != want {
				t.Fatalf("seed %d churn=%v: fanned serving state diverged from serial\nserial:\n%s\nserved:\n%s",
					seed, churn, want, got)
			}

			// Deployment ≡ serving runtime: every committed tick reached the
			// cluster, no rejected tick did, nothing was double-submitted.
			if !dep.Settle(fanSettleBudget) {
				t.Fatalf("seed %d churn=%v: deployment did not settle", seed, churn)
			}
			refDB := datalog.NewDatabase()
			for _, pred := range dep.Placement().Preds {
				rel := rt.Table(pred)
				if rel == nil {
					continue
				}
				nr := refDB.Ensure(pred, rel.Arity)
				for _, tp := range rel.Tuples() {
					nr.Insert(tp)
				}
			}
			want := shard.DumpDatabase(refDB, dep.Placement().Preds)
			if got := dep.DumpString(); got != want {
				t.Fatalf("seed %d churn=%v: deployment diverged from serving runtime\ndeployment:\n%s\nruntime:\n%s",
					seed, churn, got, want)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("fan-out sweep never exercised a rejected batch tick")
	}
}
