package main

import (
	"fmt"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/durable"
	"hydro/internal/serve"
	"hydro/internal/transducer"
)

// The oracles recompute what the program should hold from the submitted
// payloads alone, with none of the program's code: a union-find for the
// closure, a set for the contacts, a counter for the vaccine stock.

// vaccineStock is the program's `var vaccine_count: int = 100`. vaccinate
// requires vaccine_count >= 0 before it decrements, so stock+1 requests
// succeed. A refused one gets no reply: the handler stages "ABORT" after
// aborting, and the runtime drops an aborted invocation's staged sends, the
// reply among them.
const vaccineStock = 100

// expectedReplies returns the reply each request must get (nil: the
// handler does not reply). vaccinate runs alone in a FIFO lane, so its
// requests succeed in submission order until the stock is gone.
func expectedReplies(reqs []serve.Request) []any {
	want := make([]any, len(reqs))
	vaccinated := 0
	for i, r := range reqs {
		switch r.Mailbox {
		case "add_person", "add_contact", "diagnosed":
			want[i] = "OK"
		case "likelihood":
			want[i] = covidPredict(r.Payload[0].(int64))
		case "vaccinate":
			if vaccinated++; vaccinated <= vaccineStock+1 {
				want[i] = "OK"
			}
		}
	}
	return want
}

func replyIs(got datalog.Tuple, want any) bool {
	if want == nil {
		return len(got) == 0
	}
	return len(got) == 1 && got[0] == want
}

// unionFind over person ids.
type unionFind map[int64]int64

func (u unionFind) find(x int64) int64 {
	p, ok := u[x]
	if !ok {
		u[x] = x
		return x
	}
	if p == x {
		return x
	}
	r := u.find(p)
	u[x] = r
	return r
}

func (u unionFind) union(a, b int64) { u[u.find(a)] = u.find(b) }

// components groups every id the union-find has seen by its root.
func (u unionFind) components() map[int64][]int64 {
	out := map[int64][]int64{}
	for x := range u {
		r := u.find(x)
		out[r] = append(out[r], x)
	}
	return out
}

// contactGraph is the oracle's view of the add_contact payloads.
type contactGraph struct {
	pairs map[[2]int64]bool // symmetrised
	uf    unionFind
}

func newContactGraph(streams ...[]serve.Request) *contactGraph {
	g := &contactGraph{pairs: map[[2]int64]bool{}, uf: unionFind{}}
	for _, reqs := range streams {
		for _, r := range reqs {
			if r.Mailbox != "add_contact" {
				continue
			}
			a, b := r.Payload[0].(int64), r.Payload[1].(int64)
			g.pairs[[2]int64{a, b}] = true
			g.pairs[[2]int64{b, a}] = true
			g.uf.union(a, b)
		}
	}
	return g
}

// checkState compares the runtime's contacts and transitive relations with
// the graph: contacts is the symmetrised payload set, and — every edge
// being symmetric — transitive is the union of C×C over the components C,
// row count and every row.
func (g *contactGraph) checkState(rt *transducer.Runtime) error {
	contacts := rt.Table("contacts")
	if contacts.Len() != len(g.pairs) {
		return fmt.Errorf("contacts has %d rows, the payloads make %d", contacts.Len(), len(g.pairs))
	}
	for p := range g.pairs {
		if !contacts.Contains(datalog.Tuple{p[0], p[1]}) {
			return fmt.Errorf("contacts lacks %v", p)
		}
	}
	closure, rows := rt.Table("transitive"), 0
	for _, c := range g.uf.components() {
		rows += len(c) * len(c)
		for _, x := range c {
			for _, y := range c {
				if !closure.Contains(datalog.Tuple{x, y}) {
					return fmt.Errorf("transitive lacks (%d,%d) of a %d-person component", x, y, len(c))
				}
			}
		}
	}
	if closure.Len() != rows {
		return fmt.Errorf("transitive has %d rows, the components make %d", closure.Len(), rows)
	}
	return nil
}

// expectedSends is the number of alert and trace_response messages reqs
// must fan out when no request of the run changes the graph: one per
// member of the asked person's component.
func (g *contactGraph) expectedSends(reqs []serve.Request) int64 {
	size := map[int64]int64{}
	for root, c := range g.uf.components() {
		size[root] = int64(len(c))
	}
	var n int64
	for _, r := range reqs {
		if r.Mailbox != "trace" && r.Mailbox != "diagnosed" {
			continue
		}
		// A person no contact names has no closure row, and must not be
		// added to the union-find by looking it up.
		pid := r.Payload[0].(int64)
		if _, named := g.uf[pid]; named {
			n += size[g.uf.find(pid)]
		}
	}
	return n
}

// sameRelations reports the first difference between two runtimes'
// relations, as sets of tuples: equal sets dump byte-equal.
func sameRelations(a, b *transducer.Runtime) error {
	if got, want := fmt.Sprint(b.TableNames()), fmt.Sprint(a.TableNames()); got != want {
		return fmt.Errorf("relations %s against %s", got, want)
	}
	for _, name := range a.TableNames() {
		ra, rb := a.Table(name), b.Table(name)
		if ra.Len() != rb.Len() {
			return fmt.Errorf("relation %s: %d rows against %d", name, ra.Len(), rb.Len())
		}
		for _, t := range ra.Tuples() {
			if !rb.Contains(t) {
				return fmt.Errorf("relation %s: %v on one side only", name, t)
			}
		}
	}
	return nil
}

// checkRecovered reopens the closed store of a durable run, recovers a
// fresh runtime from it, and compares every relation with the live one.
// It returns how long the open and the recovery took.
func (s *system) checkRecovered() (open, recover time.Duration, err error) {
	t0 := time.Now()
	store, err := durable.Open(durable.Options{Dir: s.dir, Sync: durable.SyncAlways})
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	open = time.Since(t0)
	rt, err := s.c.Instantiate("recovered", programSeed)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if err := rt.RecoverQueriesIncremental(s.c.Queries, store.Recover); err != nil {
		return 0, 0, err
	}
	recover = time.Since(t1)
	if err := sameRelations(s.rt, rt); err != nil {
		return 0, 0, fmt.Errorf("recovered runtime differs from the live one: %w", err)
	}
	return open, recover, nil
}

// checkDeployment settles the sharded deployment and compares its dump with
// the serving runtime's relations, then the mirrors with each other.
func (s *system) checkDeployment() error {
	if !s.dep.Settle(settleBudget) {
		return fmt.Errorf("deployment did not settle")
	}
	if n := s.settleFailed.Load(); n > 0 {
		return fmt.Errorf("%d Settle calls ran out of budget during the run", n)
	}
	dump := s.dep.Dump()
	for _, pred := range s.dep.Placement().Preds {
		rel := s.rt.Table(pred)
		if rel == nil || rel.Len() != len(dump[pred]) {
			return fmt.Errorf("deployment holds %d rows of %s, the serving runtime differs", len(dump[pred]), pred)
		}
		for _, t := range dump[pred] {
			if !rel.Contains(t) {
				return fmt.Errorf("deployment holds %s%v, the serving runtime does not", pred, t)
			}
		}
	}
	return s.dep.CheckMirrors()
}
