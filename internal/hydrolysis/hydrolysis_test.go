package hydrolysis

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hydro/internal/consistency"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/transducer"
)

func covidUDFs() map[string]UDF {
	return map[string]UDF{
		// Deterministic stand-in for the paper's black-box ML model
		// (DESIGN.md §5 substitution).
		"covid_predict": func(args []any) any {
			pid := args[0].(int64)
			return float64(pid%100) / 100.0
		},
	}
}

func compileCovid(t testing.TB) *Compiled {
	t.Helper()
	c, err := Compile(hlang.CovidSource, Options{UDFs: covidUDFs()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newCovidRuntime(t testing.TB, seed int64) *transducer.Runtime {
	t.Helper()
	rt, err := compileCovid(t).Instantiate("n1", seed)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })
	return rt
}

func TestCompileCovidFacets(t *testing.T) {
	c := compileCovid(t)
	// vaccinate's only non-monotone state is vaccine_count, which no other
	// handler touches; its merge into people commutes with everyone's.
	v := consistency.Select(c.Program, c.Analysis)["vaccinate"]
	if v.Mechanism != consistency.MechCoordination || !v.LocalOnly {
		t.Fatalf("vaccinate: %+v", v)
	}
}

func TestMissingUDFRejectedAtCompileTime(t *testing.T) {
	if _, err := Compile(hlang.CovidSource, Options{}); err == nil {
		t.Fatal("compile must fail without covid_predict implementation")
	}
}

func TestHandlersEndToEnd(t *testing.T) {
	rt := newCovidRuntime(t, 1)
	rt.Inject("add_person", datalog.Tuple{int64(1), "us"})
	rt.Inject("add_person", datalog.Tuple{int64(2), "us"})
	rt.Inject("add_person", datalog.Tuple{int64(3), "fr"})
	rt.Tick()
	if rt.Table("people").Len() != 3 {
		t.Fatalf("people = %v", rt.Table("people").Tuples())
	}
	rt.Inject("add_contact", datalog.Tuple{int64(1), int64(2)})
	rt.Inject("add_contact", datalog.Tuple{int64(2), int64(3)})
	rt.Tick()
	if rt.Table("contacts").Len() != 4 { // symmetric merge
		t.Fatalf("contacts = %v", rt.Table("contacts").Tuples())
	}
	// diagnosed: flag + transitive alert fan-out.
	rt.Inject("diagnosed", datalog.Tuple{int64(1)})
	rt.RunUntilIdle(10)
	if !rt.Table("people").Contains(datalog.Tuple{int64(1), "us", true, false}) {
		t.Fatalf("covid flag not merged: %v", rt.Table("people").Tuples())
	}
	alerts := rt.Peek("alert")
	alerted := map[int64]bool{}
	for _, m := range alerts {
		alerted[m.Payload[0].(int64)] = true
	}
	if !alerted[2] || !alerted[3] {
		t.Fatalf("alerts = %v, want 2 and 3 (transitive)", alerts)
	}
}

func TestVaccinateInvariantAborts(t *testing.T) {
	src := `
table people(pid: int, vaccinated: bool) key(pid)
var vaccine_count: int = 1
on vaccinate(pid: int) consistency(serializable) require(vaccine_count > 0) {
    merge people[pid].vaccinated <- true
    vaccine_count := vaccine_count - 1
    reply "OK"
}
`
	c, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })
	// Two doses requested with one in stock — ticks serialize them.
	rt.Inject("vaccinate", datalog.Tuple{int64(1)})
	rt.Tick()
	rt.Inject("vaccinate", datalog.Tuple{int64(2)})
	rt.Tick()
	if got := rt.Var("vaccine_count").(int64); got != 0 {
		t.Fatalf("vaccine_count = %d, want 0 (invariant enforced)", got)
	}
	if rt.Stats().Aborted != 1 {
		t.Fatalf("aborted = %d, want 1", rt.Stats().Aborted)
	}
	if rt.Table("people").Contains(datalog.Tuple{int64(2), true}) {
		t.Fatal("aborted vaccination leaked state")
	}
}

// TestAbortedInvocationRepliesNothing pins the abort contract: a refused
// require and a failing statement both discard the whole invocation — no
// effect, no reply in the response mailbox — and count in Stats().Aborted.
func TestAbortedInvocationRepliesNothing(t *testing.T) {
	c, err := Compile(`
table people(pid: int, dosed: bool) key(pid)
var share: int = 0
on dose(pid: int, n: int) require(n >= 0) {
    merge people(pid, true)
    share := 10 / n
    reply "OK"
}
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })
	ok := rt.Inject("dose", datalog.Tuple{int64(1), int64(5)})
	rt.Inject("dose", datalog.Tuple{int64(2), int64(-1)}) // require refuses
	rt.Inject("dose", datalog.Tuple{int64(3), int64(0)})  // 10 / 0 fails
	rt.RunUntilIdle(10)
	replies := rt.Peek("dose<response>")
	if len(replies) != 1 || replies[0].Payload[0] != ok || replies[0].Payload[1] != "OK" {
		t.Fatalf("replies = %v, want only OK for message %d", replies, ok)
	}
	if got := rt.Stats().Aborted; got != 2 {
		t.Fatalf("aborted = %d, want 2 (refused require + failing statement)", got)
	}
	if got := rt.Table("people").Tuples(); len(got) != 1 || !got[0].Equal(datalog.Tuple{int64(1), true}) {
		t.Fatalf("people = %v, want only the successful dose", got)
	}
	if got := rt.Var("share").(int64); got != 2 {
		t.Fatalf("share = %d, want 2 (only the successful dose assigns)", got)
	}
}

func TestUDFCalledThroughReply(t *testing.T) {
	rt := newCovidRuntime(t, 2)
	rt.Inject("add_person", datalog.Tuple{int64(42), "us"})
	rt.Tick()
	id := rt.Inject("likelihood", datalog.Tuple{int64(42)})
	rt.Tick()
	rt.Tick()
	resp := rt.Drain("likelihood<response>")
	if len(resp) != 1 || resp[0].Payload[0] != id {
		t.Fatalf("responses = %v", resp)
	}
	if resp[0].Payload[1] != 0.42 {
		t.Fatalf("likelihood = %v, want 0.42", resp[0].Payload[1])
	}
}

func TestQueryFiltersCompile(t *testing.T) {
	src := `
table nums(n: int)
query big(n) :- nums(n), n > 5
on add(n: int) { merge nums(n) }
`
	c, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := c.Instantiate("n1", 1)
	for i := int64(0); i < 10; i++ {
		rt.Inject("add", datalog.Tuple{i})
	}
	rt.Tick()
	rt.Tick() // queries evaluate against the snapshot including inserts
	var got []datalog.Tuple
	rt.RegisterHandler("probe", func(tx *transducer.Tx, msg transducer.Message) {
		got = tx.Query("big")
	})
	rt.Inject("probe", datalog.Tuple{})
	rt.Tick()
	if len(got) != 4 {
		t.Fatalf("big = %v, want 4 rows (6..9)", got)
	}
}

func TestDeleteStmtCompiles(t *testing.T) {
	src := `
table sessions(id: int, user: string) key(id)
on open(id: int, user: string) { merge sessions(id, user) }
on expire(id: int) { delete sessions(id) }
`
	c, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := c.Instantiate("n1", 1)
	rt.Inject("open", datalog.Tuple{int64(1), "ann"})
	rt.Inject("open", datalog.Tuple{int64(2), "bob"})
	rt.Tick()
	rt.Inject("expire", datalog.Tuple{int64(1)})
	rt.Tick()
	if rt.Table("sessions").Len() != 1 {
		t.Fatalf("sessions = %v", rt.Table("sessions").Tuples())
	}
}

func TestWildcardsInQueries(t *testing.T) {
	src := `
table edge(a: int, b: int) key(a, b)
query sources(x) :- edge(x, _)
on add(a: int, b: int) { merge edge(a, b) }
`
	c, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := c.Instantiate("n1", 1)
	rt.Inject("add", datalog.Tuple{int64(1), int64(2)})
	rt.Inject("add", datalog.Tuple{int64(1), int64(3)})
	rt.Tick()
	var got []datalog.Tuple
	rt.RegisterHandler("probe", func(tx *transducer.Tx, msg transducer.Message) {
		got = tx.Query("sources")
	})
	rt.Inject("probe", datalog.Tuple{})
	rt.Tick()
	if len(got) != 1 {
		t.Fatalf("sources = %v, want deduplicated single row", got)
	}
}

// --- E1: sequential reference vs compiled HydroLogic (Fig 2 ≡ Fig 3) ---

// seqCovid is a direct sequential implementation of Fig 2's pseudocode.
type seqCovid struct {
	people  map[int64]*seqPerson
	vaccine int64
	alerts  map[int64]bool
}

type seqPerson struct {
	country    string
	contacts   map[int64]bool
	covid      bool
	vaccinated bool
}

func newSeqCovid() *seqCovid {
	return &seqCovid{people: map[int64]*seqPerson{}, vaccine: 100, alerts: map[int64]bool{}}
}

func (s *seqCovid) addPerson(pid int64, country string) {
	if _, ok := s.people[pid]; !ok {
		s.people[pid] = &seqPerson{country: country, contacts: map[int64]bool{}}
	}
}

func (s *seqCovid) addContact(a, b int64) {
	s.addPersonIfMissing(a)
	s.addPersonIfMissing(b)
	s.people[a].contacts[b] = true
	s.people[b].contacts[a] = true
}

func (s *seqCovid) addPersonIfMissing(pid int64) {
	if _, ok := s.people[pid]; !ok {
		s.people[pid] = &seqPerson{contacts: map[int64]bool{}}
	}
}

func (s *seqCovid) trace(pid int64) []int64 {
	seen := map[int64]bool{}
	stack := []int64{pid}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p, ok := s.people[cur]
		if !ok {
			continue
		}
		for c := range p.contacts {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	delete(seen, pid)
	var out []int64
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *seqCovid) diagnosed(pid int64) {
	s.addPersonIfMissing(pid)
	s.people[pid].covid = true
	for _, c := range s.trace(pid) {
		s.alerts[c] = true
	}
}

func (s *seqCovid) vaccinate(pid int64) bool {
	if s.vaccine < 0 {
		return false
	}
	s.addPersonIfMissing(pid)
	s.people[pid].vaccinated = true
	s.vaccine--
	return true
}

// TestE1CovidEquivalence drives random operation sequences through the
// sequential reference and the compiled HydroLogic program and checks that
// the observable state converges to the same values, and that every trace
// answers what the reference's graph walk answers.
func TestE1CovidEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		seq := newSeqCovid()
		rt := newCovidRuntime(t, seed)

		people := map[int64]string{}
		for i := 0; i < 60; i++ {
			switch r.Intn(5) {
			case 0:
				pid := int64(r.Intn(12))
				country := []string{"us", "fr", "in"}[r.Intn(3)]
				if _, dup := people[pid]; dup {
					continue // sequential map keeps first country; skip dup adds
				}
				people[pid] = country
				seq.addPerson(pid, country)
				rt.Inject("add_person", datalog.Tuple{pid, country})
			case 1:
				a, b := int64(r.Intn(12)), int64(r.Intn(12))
				if a == b {
					continue
				}
				seq.addContact(a, b)
				rt.Inject("add_contact", datalog.Tuple{a, b})
			case 2:
				pid := int64(r.Intn(12))
				seq.diagnosed(pid)
				rt.Inject("diagnosed", datalog.Tuple{pid})
			case 3:
				pid := int64(r.Intn(12))
				seq.vaccinate(pid)
				rt.Inject("vaccinate", datalog.Tuple{pid})
			case 4:
				// The symmetric closure derives transitive(pid, pid), which
				// Fig 2's trace leaves out of its answer.
				pid := int64(r.Intn(12))
				rt.Inject("trace", datalog.Tuple{pid})
				rt.RunUntilIdle(20)
				got := []int64{}
				for _, m := range rt.Drain("trace_response") {
					if p := m.Payload[0].(int64); p != pid {
						got = append(got, p)
					}
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if want := seq.trace(pid); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d op %d: trace(%d) hydro=%v seq=%v", seed, i, pid, got, want)
				}
			}
			// Let the transducer settle between ops so tick interleavings
			// do not change the fixpoint (monotone ops make this safe).
			rt.RunUntilIdle(20)
		}
		rt.RunUntilIdle(50)

		// Compare covid flags and vaccination state per person.
		for _, row := range rt.Table("people").Tuples() {
			pid := row[0].(int64)
			sp, ok := seq.people[pid]
			if !ok {
				t.Fatalf("seed %d: hydro created phantom person %d", seed, pid)
			}
			if row[2].(bool) != sp.covid {
				t.Fatalf("seed %d: covid flag mismatch for %d: hydro=%v seq=%v", seed, pid, row[2], sp.covid)
			}
			if row[3].(bool) != sp.vaccinated {
				t.Fatalf("seed %d: vaccinated mismatch for %d", seed, pid)
			}
		}
		if got := rt.Var("vaccine_count").(int64); got != seq.vaccine {
			t.Fatalf("seed %d: vaccine_count hydro=%d seq=%d", seed, got, seq.vaccine)
		}
		// Alerts: hydro accumulates them in the alert mailbox.
		hydroAlerts := map[int64]bool{}
		for _, m := range rt.Peek("alert") {
			hydroAlerts[m.Payload[0].(int64)] = true
		}
		for pid := range seq.alerts {
			if !hydroAlerts[pid] {
				t.Fatalf("seed %d: missing alert for %d", seed, pid)
			}
		}
	}
}

func TestInstantiateDeterministic(t *testing.T) {
	run := func() string {
		rt := newCovidRuntime(t, 7)
		for i := int64(0); i < 5; i++ {
			rt.Inject("add_person", datalog.Tuple{i, "us"})
			rt.Inject("add_contact", datalog.Tuple{i, (i + 1) % 5})
		}
		rt.Inject("diagnosed", datalog.Tuple{int64(0)})
		rt.RunUntilIdle(30)
		return fmt.Sprint(rt.Table("people").Tuples(), rt.Table("contacts").Len(), len(rt.Peek("alert")))
	}
	if run() != run() {
		t.Fatal("compiled program is not deterministic under a fixed seed")
	}
}
