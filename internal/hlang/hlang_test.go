package hlang

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseCovid(t *testing.T) {
	p, err := Parse(CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tables) != 2 || len(p.Handlers) != 6 {
		t.Fatalf("tables=%d handlers=%d", len(p.Tables), len(p.Handlers))
	}
	people := p.Table("people")
	if people == nil || people.Arity() != 4 {
		t.Fatal("people table wrong")
	}
	if people.Partition != "country" || len(people.Key) != 1 || people.Key[0] != "pid" {
		t.Fatalf("people key/partition = %v/%q", people.Key, people.Partition)
	}
	contacts := p.Table("contacts")
	if len(contacts.Key) != 2 {
		t.Fatalf("contacts key = %v", contacts.Key)
	}
	if len(p.Queries) != 2 || p.Queries[0].Name != "transitive" {
		t.Fatalf("queries = %v", p.QueryNames())
	}
	v := p.Var("vaccine_count")
	if v == nil || v.Init == nil {
		t.Fatal("vaccine_count missing or uninitialized")
	}
	if p.Handler("vaccinate").Consistency != Serializable {
		t.Fatal("vaccinate consistency not parsed")
	}
	if len(p.Handler("vaccinate").Requires) != 1 {
		t.Fatal("vaccinate invariant not parsed")
	}
	if p.UDF("covid_predict") == nil {
		t.Fatal("udf not parsed")
	}
}

func TestFacetResolution(t *testing.T) {
	p, err := Parse(CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	def := p.AvailabilityFor("add_person")
	if def.Domain != "az" || def.Failures != 2 {
		t.Fatalf("default availability = %+v", def)
	}
	lk := p.AvailabilityFor("likelihood")
	if lk.Failures != 1 {
		t.Fatalf("likelihood override = %+v", lk)
	}
	tgt := p.TargetFor("likelihood")
	if tgt.Processor != "gpu" || tgt.Cost != 0.1 || tgt.LatencyMs != 100 {
		t.Fatalf("likelihood target = %+v, want its own processor and cost and the default latency", tgt)
	}
	if p.TargetFor("add_person").LatencyMs != 100 {
		t.Fatalf("default latency = %v", p.TargetFor("add_person").LatencyMs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSubstr string
	}{
		{"unknown decl", "frobnicate x", "unknown declaration"},
		{"bad type", "table t(a: blob)", "unknown type"},
		{"unterminated string", `var s: string = "oops`, "unterminated"},
		{"bad char", "table t(a: int) $", "unexpected character"},
		{"dup table", "table t(a: int)\ntable t(b: int)", "redeclared"},
		{"dup column", "table t(a: int, a: int)", "duplicate column"},
		{"bad key", "table t(a: int) key(zz)", `key column "zz"`},
		{"bad partition", "table t(a: int) partition(zz)", `partition column "zz"`},
		{"unknown pred", "query q(x) :- nothere(x)", "unknown predicate"},
		{"arity", "table t(a: int, b: int)\nquery q(x) :- t(x)", "wants 2 args"},
		{"neg only var", "table t(a: int)\nquery q(x) :- t(x), !t(y)", "only under negation"},
		{"unbound head", "table t(a: int)\nquery q(x, y) :- t(x)", "not bound in body"},
		{"unknown consistency", "on h(x: int) consistency(fuzzy) { reply 1 }", "unknown consistency"},
		{"unknown table merge", "on h(x: int) { merge nope(x) }", "unknown table"},
		{"merge arity", "table t(a: int, b: int)\non h(x: int) { merge t(x) }", "wants 2 columns"},
		{"non-lattice field merge", "table t(a: int, b: string)\non h(x: int) { merge t[x].b <- \"v\" }", "non-lattice"},
		{"assign undeclared", "on h(x: int) { y := 1 }", "undeclared var"},
		{"unknown udf", "on h(x: int) { reply f(x) }", "unknown UDF"},
		{"udf arity", "udf f(int) : int\non h(x: int) { reply f(x, x) }", "wants 1 args"},
		{"bad avail domain", "on h(x: int) { reply 1 }\navailability { h domain=moon failures=1 }", "unknown failure domain"},
		{"avail unknown handler", "availability { nope domain=az failures=1 }", `unknown handler "nope"`},
		{"target unknown handler", "target { nope cost=1 }", `unknown handler "nope"`},
		{"latency not duration", "on h(x: int) { reply 1 }\ntarget { h latency=5 }", "duration"},
		{"unstratifiable", "table t(a: int)\nquery p(x) :- t(x), !q(x)\nquery q(x) :- t(x), !p(x)", "not stratifiable"},
		{"unstratifiable names the atom", "table t(a: int)\nquery p(x) :- t(x), q(x)\nquery q(x) :- t(x), !p(x)", "3:21: queries are not stratifiable: !p(x) in query q"},
		{"query clashes table", "table t(a: int)\nquery t(x) :- t(x)", "clashes with a table"},
		{"send unbound", "table t(a: int)\non h(x: int) { send out(z) :- t(x) }", "not bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSubstr)
			}
			if !strings.Contains(err.Error(), c.wantSubstr) {
				t.Fatalf("error %q does not contain %q", err, c.wantSubstr)
			}
		})
	}
}

func TestExprPrecedence(t *testing.T) {
	src := "var x: int\non h(a: int) { x := 1 + 2 * 3 - 4 / 2 }"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Handler("h").Body[0].(*AssignStmt).Value.String()
	want := "((1 + (2 * 3)) - (4 / 2))"
	if got != want {
		t.Fatalf("parsed %s, want %s", got, want)
	}
}

func TestExprUnaryMinusAndParens(t *testing.T) {
	src := "var x: int\non h(a: int) { x := -(a + 1) * 2 }"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Handler("h").Body[0].(*AssignStmt).Value.String()
	want := "((0 - (a + 1)) * 2)"
	if got != want {
		t.Fatalf("parsed %s, want %s", got, want)
	}
}

func TestAggregateQueryParse(t *testing.T) {
	src := `
table sale(region: string, amt: int)
query total(region, sum<amt>) :- sale(region, amt)
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queries[0]
	if q.Agg != "sum" || q.AggVar != "amt" || len(q.Head) != 2 {
		t.Fatalf("agg parse: %+v", q)
	}
}

func TestDurationLexing(t *testing.T) {
	src := "on h(x: int) { reply 1 }\ntarget { h latency=2s cost=3 }"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.TargetFor("h").LatencyMs != 2000 {
		t.Fatalf("2s = %v ms", p.TargetFor("h").LatencyMs)
	}
}

func TestStmtStrings(t *testing.T) {
	p, err := Parse(CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Handler("diagnosed")
	if got := d.Body[0].String(); got != "merge people[pid].covid <- true" {
		t.Fatalf("MergeFieldStmt.String = %q", got)
	}
	if got := d.Body[1].String(); !strings.Contains(got, "send alert(p) :- transitive(pid, p)") {
		t.Fatalf("SendStmt.String = %q", got)
	}
}

// --- Monotonicity typechecker (experiment E11 lives in the corpus test) ---

func TestAnalyzeCovid(t *testing.T) {
	p, err := Parse(CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(p)
	if a.Queries["transitive"].Mono != Monotone {
		t.Fatalf("transitive closure must be monotone: %v", a.Queries["transitive"].Reasons)
	}
	for _, name := range []string{"add_person", "add_contact", "diagnosed", "trace", "likelihood"} {
		if a.Handlers[name].Mono != Monotone {
			t.Fatalf("%s should be monotone: %v", name, a.Handlers[name].Reasons)
		}
	}
	v := a.Handlers["vaccinate"]
	if v.Mono != NonMonotone {
		t.Fatal("vaccinate must be non-monotone (bare assignment)")
	}
	if len(v.WritesVars) != 1 || v.WritesVars[0] != "vaccine_count" {
		t.Fatalf("vaccinate writes = %v", v.WritesVars)
	}
	// §7's key observation: vaccinate is the only handler touching
	// vaccine_count, so serializability localizes to it.
	for name, h := range a.Handlers {
		if name == "vaccinate" {
			continue
		}
		for _, w := range append(h.WritesVars, h.ReadsVars...) {
			if w == "vaccine_count" {
				t.Fatalf("%s unexpectedly touches vaccine_count", name)
			}
		}
	}
	cps := a.CoordinationPoints(p)
	if len(cps) != 1 || cps[0] != "vaccinate" {
		t.Fatalf("coordination points = %v, want [vaccinate]", cps)
	}
}

// TestE11MonotonicityCorpus is experiment E11: Fig 4 shows manual
// monotonicity review going wrong on Twitter; here a corpus of subtly
// monotone/non-monotone programs is classified mechanically.
func TestE11MonotonicityCorpus(t *testing.T) {
	corpus := []struct {
		name string
		src  string
		want map[string]Monotonicity // handler or query name → expected
	}{
		{
			name: "grow-only set union",
			src: `
table seen(id: int)
on add(id: int) { merge seen(id) }`,
			want: map[string]Monotonicity{"add": Monotone},
		},
		{
			name: "counter overwrite looks innocent but is not",
			src: `
var count: int = 0
on bump(x: int) { count := count + 1 }`,
			want: map[string]Monotonicity{"bump": NonMonotone},
		},
		{
			name: "negation hidden two queries deep",
			src: `
table node(id: int)
table edge(a: int, b: int)
query reached(x) :- edge(1, x)
query isolated(x) :- node(x), !reached(x)
query report(x) :- isolated(x)
on audit(x: int) { send out(y) :- report(y) }`,
			want: map[string]Monotonicity{
				"reached":  Monotone,
				"isolated": NonMonotone,
				"report":   NonMonotone, // inherited, the subtle case
				"audit":    NonMonotone,
			},
		},
		{
			name: "aggregate read as value",
			src: `
table votes(voter: int, choice: string)
query tally(choice, count<voter>) :- votes(voter, choice)
on winner(x: int) { send out(c, n) :- tally(c, n) }`,
			want: map[string]Monotonicity{"tally": NonMonotone, "winner": NonMonotone},
		},
		{
			name: "delete disguised as cleanup",
			src: `
table sessions(id: int)
on expire(id: int) { delete sessions(id) }`,
			want: map[string]Monotonicity{"expire": NonMonotone},
		},
		{
			name: "lattice field merge stays monotone",
			src: `
table acct(id: int, flagged: bool, score: max<int>) key(id)
on flag(id: int) { merge acct[id].flagged <- true }
on bump(id: int, s: int) { merge acct[id].score <- s }`,
			want: map[string]Monotonicity{"flag": Monotone, "bump": Monotone},
		},
		{
			name: "recursive positive query is monotone despite cycles",
			src: `
table edge(a: int, b: int)
query tc(x, y) :- edge(x, y)
query tc(x, z) :- tc(x, y), edge(y, z)
on probe(x: int) { send out(y) :- tc(x, y) }`,
			want: map[string]Monotonicity{"tc": Monotone, "probe": Monotone},
		},
	}
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			p, err := Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			a := Analyze(p)
			for name, want := range c.want {
				var got Monotonicity
				if q, ok := a.Queries[name]; ok {
					got = q.Mono
				} else if h, ok := a.Handlers[name]; ok {
					got = h.Mono
				} else {
					t.Fatalf("no analysis result for %q", name)
				}
				if got != want {
					t.Errorf("%s: classified %v, want %v", name, got, want)
				}
			}
		})
	}
}

func TestAnalysisReport(t *testing.T) {
	p, err := Parse(CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(p).Report()
	if !strings.Contains(rep, "vaccinate") || !strings.Contains(rep, "non-monotone") {
		t.Fatalf("report missing content:\n%s", rep)
	}
	if !strings.Contains(rep, "transitive") {
		t.Fatalf("report missing queries:\n%s", rep)
	}
}

func TestSendDataflowTracked(t *testing.T) {
	p, err := Parse(CovidSource)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(p)
	d := a.Handlers["diagnosed"]
	found := false
	for _, m := range d.SendsTo {
		if m == "alert" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnosed sends = %v, want alert", d.SendsTo)
	}
}

func TestAddressedSendParsesAndFormats(t *testing.T) {
	src := `
table child(rank: string) key(rank)
on bcast(v: int) {
    send bcast@c(v) :- child(c)
}
on poke(peer: string, v: int) {
    send bcast@peer(v)
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fan := p.Handler("bcast").Body[0].(*SendStmt)
	if fan.Mailbox != "bcast" || fan.Dest != "c" || len(fan.Args) != 1 || fan.Args[0].Var != "v" {
		t.Fatalf("rule-driven addressed send parsed as %+v", fan)
	}
	if got := fan.String(); got != "send bcast@c(v) :- child(c)" {
		t.Fatalf("String = %q", got)
	}
	if got := p.Handler("poke").Body[0].String(); got != "send bcast@peer(v)" {
		t.Fatalf("String = %q", got)
	}
	p2, err := Parse(Format(p))
	if err != nil {
		t.Fatal(err)
	}
	zeroPos(p)
	zeroPos(p2)
	if !reflect.DeepEqual(p.Handlers, p2.Handlers) {
		t.Fatalf("addressed sends changed across the round trip:\n%s", Format(p))
	}
	a := Analyze(p)
	for _, h := range []string{"bcast", "poke"} {
		if info := a.Handlers[h]; info.Mono != Monotone || len(info.SendsTo) != 1 || info.SendsTo[0] != "bcast" {
			t.Fatalf("%s: %v, sends to %v", h, info.Mono, info.SendsTo)
		}
	}
}

func TestAddressedSendAndSetTypeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSubstr string
	}{
		{"unbound destination", "on h(x: int) { send b@d(x) }", `send destination "d" not bound`},
		{"unbound destination in a rule", "table t(a: string)\non h(x: int) { send b@d(x) :- t(x) }", `send destination "d" not bound`},
		{"integer parameter destination", "on h(d: int) { send b@d(1) }", `send destination "d" has type int, want string`},
		{"integer column destination", "table t(n: int)\non h(x: int) { send b@n(x) :- t(n) }", `send destination "n" has type int, want string`},
		{"destination is not a name", "on h(x: string) { send b@1(x) }", "expected identifier"},
		{"set column", "table tags(id: int, s: set<string>) key(id)", "table keyed on all of its columns"},
		{"set variable", "var s: set<int>", "table keyed on all of its columns"},
		{"send rule without an atom", "on h(x: int) { send b(x) :- x > 0 }", "filters but no body atom"},
		{"aggregate not last", "table t(a: int, b: int)\nquery q(count<a>, b) :- t(a, b)", "must be the last head argument"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.wantSubstr) {
				t.Fatalf("error %v, want one containing %q", err, c.wantSubstr)
			}
		})
	}
}

// TestThresholdMonotonicity: a count or max aggregate read only through
// >= or > against a fixed bound, or a min one through <= or <, is a
// monotone read; every other read of an aggregate, and every sum, is not.
func TestThresholdMonotonicity(t *testing.T) {
	const decls = `
table manifest(cart: string, item: string) key(cart, item)
table sealed(cart: string, lines: int, score: max<int>) key(cart)
table bids(item: string, amt: int) key(item, amt)
query lines(c, count<i>) :- manifest(c, i)
query top(i, max<a>) :- bids(i, a)
query low(i, min<a>) :- bids(i, a)
query total(c, sum<a>) :- bids(c, a)
query neg(c, count<i>) :- manifest(c, i), !sealed(c, _, _)
query view(c, k) :- lines(c, k)
`
	cases := []struct {
		name string
		rule string
		want Monotonicity
	}{
		{"count >= column", "query r(c) :- lines(c, k), sealed(c, n, _), k >= n", Monotone},
		{"count > constant", "query r(c) :- lines(c, k), k > 2", Monotone},
		{"bound on the left", "query r(c) :- lines(c, k), sealed(c, n, _), n <= k", Monotone},
		{"max >= constant", "query r(i) :- top(i, a), a >= 100", Monotone},
		{"min <= constant", "query r(i) :- low(i, a), a <= 5", Monotone},
		{"min < column", "query r(i) :- low(i, a), sealed(i, n, _), a < n", Monotone},
		{"count == bound", "query r(c) :- lines(c, k), sealed(c, n, _), k == n", NonMonotone},
		{"count <= bound", "query r(c) :- lines(c, k), k <= 3", NonMonotone},
		{"min >= bound", "query r(i) :- low(i, a), a >= 5", NonMonotone},
		{"sum >= bound", "query r(c) :- total(c, s), s >= 10", NonMonotone},
		{"value in the head", "query r(c, k) :- lines(c, k), k >= 1", NonMonotone},
		{"value joined", "query r(c) :- lines(c, k), sealed(c, k, _), k >= 1", NonMonotone},
		{"no threshold", "query r(c) :- lines(c, k)", NonMonotone},
		{"lattice bound", "query r(c) :- lines(c, k), sealed(c, _, s), k >= s", NonMonotone},
		{"derived bound", "query r(c) :- lines(c, k), view(c, n), k >= n", NonMonotone},
		{"aggregate over negation", "query r(c) :- neg(c, k), k >= 1", NonMonotone},
		{"non-aggregate view", "query r(c) :- view(c, k), k >= 1", NonMonotone},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Parse(decls + c.rule)
			if err != nil {
				t.Fatal(err)
			}
			if got := Analyze(p).Queries["r"]; got.Mono != c.want {
				t.Fatalf("r classified %v (%v), want %v", got.Mono, got.Reasons, c.want)
			}
			p2, err := Parse(Format(p))
			if err != nil {
				t.Fatal(err)
			}
			if got := Analyze(p2).Queries["r"]; got.Mono != c.want {
				t.Fatalf("after Format, r classified %v (%v), want %v", got.Mono, got.Reasons, c.want)
			}
		})
	}

	// A send rule reads through a threshold the same way; sending the
	// value itself, or addressing the send with it, is a value read.
	sends := []struct {
		stmt string
		want Monotonicity
	}{
		{"send ok(c) :- lines(c, k), sealed(c, n, _), k >= n", Monotone},
		{"send ok(c) :- lines(c, k), k >= goal", NonMonotone},
		{"send ok(c, k) :- lines(c, k), k >= 1", NonMonotone},
		{"send ok(c) :- lines(c, k), k == 1", NonMonotone},
		{"send ok@k(c) :- lines(c, k), k >= 1", NonMonotone},
	}
	for _, c := range sends {
		p, err := Parse(decls + "on h(goal: int) {\n    " + c.stmt + "\n}")
		if err != nil {
			t.Fatal(err)
		}
		if got := Analyze(p).Handlers["h"]; got.Mono != c.want {
			t.Errorf("%s: classified %v (%v), want %v", c.stmt, got.Mono, got.Reasons, c.want)
		}
	}
}
