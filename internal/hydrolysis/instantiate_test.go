package hydrolysis

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/durable"
	"hydro/internal/hlang"
	"hydro/internal/serve"
)

// noQuerySource declares no query at all; probeFreeSource declares a
// recursive one that no handler ever reads. Both are maintained programs
// like any other (the first with an empty rule set).
const noQuerySource = `
table links(a: int, b: int) key(a, b)

on add_link(a: int, b: int) {
    merge links(a, b)
    reply "OK"
}
`

const probeFreeSource = `
table links(a: int, b: int) key(a, b)

query reach(x, y) :- links(x, y)
query reach(x, z) :- reach(x, y), links(y, z)

on add_link(a: int, b: int) {
    merge links(a, b)
    reply "OK"
}
`

// opSink is a durability sink that counts the base-table ops journaled.
type opSink struct{ ops int }

func (s *opSink) Append(d *datalog.Delta) error        { s.ops += len(d.Ops()); return nil }
func (s *opSink) AbortLast() error                     { return nil }
func (s *opSink) Committed(*datalog.Incremental) error { return nil }

// TestInstantiatedRuntimeTakesDurability: whether a program can be journaled
// or fanned out does not depend on what its handlers read. A program with
// no query, and one whose query no handler reads, both attach a sink, a
// durable.Store and a sink under a serve.Server, and the unread query is
// maintained and visible through Runtime.Table.
func TestInstantiatedRuntimeTakesDurability(t *testing.T) {
	for name, src := range map[string]string{"no query": noQuerySource, "unread query": probeFreeSource} {
		c, err := Compile(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := c.Instantiate("n1", 1)
		if err != nil {
			t.Fatal(err)
		}
		sink := &opSink{}
		if err := rt.SetDurability(sink); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt.Inject("add_link", datalog.Tuple{int64(1), int64(2)})
		rt.Inject("add_link", datalog.Tuple{int64(2), int64(3)})
		rt.RunUntilIdle(10)
		if sink.ops != 2 || rt.Table("links").Len() != 2 {
			t.Fatalf("%s: %d ops journaled, links = %v; want 2 and 2 rows", name, sink.ops, rt.Table("links").Tuples())
		}
		if len(c.Queries.Rules) > 0 && rt.Table("reach").Len() != 3 {
			t.Fatalf("%s: reach = %v, want the 3-row closure", name, rt.Table("reach").Tuples())
		}

		store, err := durable.Open(durable.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rt, err = c.Instantiate("n2", 1); err != nil {
			t.Fatal(err)
		}
		if err := rt.RecoverQueriesIncremental(c.Queries, store.Recover); err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		if err := rt.SetDurability(store); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt.Inject("add_link", datalog.Tuple{int64(1), int64(2)})
		rt.RunUntilIdle(10)
		if rt.LastRejection() != nil || rt.Table("links").Len() != 1 {
			t.Fatalf("%s: durable tick did not commit: %v", name, rt.LastRejection())
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}

		if rt, err = c.Instantiate("n3", 1); err != nil {
			t.Fatal(err)
		}
		rt.SetDelay(func(*rand.Rand) int { return 1 })
		fan := &opSink{}
		if err := rt.SetDurability(fan); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		srv := serve.New(rt, serve.Config{})
		p, err := srv.Submit(serve.Request{Mailbox: "add_link", Payload: datalog.Tuple{int64(1), int64(2)}})
		if err != nil {
			t.Fatal(err)
		}
		if resp := p.Wait(); resp.Err != nil {
			t.Fatalf("%s: served request failed: %v", name, resp.Err)
		}
		srv.Close()
		if fan.ops != 1 {
			t.Fatalf("%s: fan-out saw %d ops, want 1", name, fan.ops)
		}
	}
}

// TestShortPayloadAborts: an invocation whose payload is shorter than the
// handler's parameter list is aborted before any statement runs — no send,
// no reply, no effect, Stats().Aborted +1 — instead of treating the missing
// parameter as a free variable and enumerating the whole closure.
func TestShortPayloadAborts(t *testing.T) {
	rt := newCovidRuntime(t, 1)
	for i := int64(0); i < 20; i++ {
		rt.Inject("add_contact", datalog.Tuple{i, i + 1})
	}
	rt.RunUntilIdle(20)
	rt.Drain("add_contact<response>")
	before := fmt.Sprint(rt.Table("people").Tuples(), rt.Table("contacts").Tuples(), rt.Table("transitive").Len())
	for n, box := range []string{"trace", "diagnosed"} {
		rt.Inject(box, datalog.Tuple{})
		rt.RunUntilIdle(20)
		if got := rt.Stats().Aborted; got != uint64(n+1) {
			t.Fatalf("%s with an empty payload: Aborted = %d, want %d", box, got, n+1)
		}
	}
	for _, box := range []string{"trace_response", "alert", "diagnosed<response>"} {
		if got := len(rt.Peek(box)); got != 0 {
			t.Fatalf("aborted invocations left %d messages in %s", got, box)
		}
	}
	if after := fmt.Sprint(rt.Table("people").Tuples(), rt.Table("contacts").Tuples(), rt.Table("transitive").Len()); after != before {
		t.Fatalf("aborted invocations changed the tables\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestMistypedPayloadAborts: an invocation whose payload value does not
// have its parameter's declared type is aborted before any statement runs,
// like a short payload: add_contact("x", "y") stores nothing in
// contacts(a: int, b: int) and counts in Stats().Aborted. A Go int is an
// int, stored as the int64 every other int is.
func TestMistypedPayloadAborts(t *testing.T) {
	rt := newCovidRuntime(t, 1)
	rt.Inject("add_contact", datalog.Tuple{int64(1), int64(2)})
	rt.RunUntilIdle(20)
	rt.Drain("add_contact<response>")
	before := fmt.Sprint(rt.Table("contacts").Tuples(), rt.Table("transitive").Tuples())
	rt.Inject("add_contact", datalog.Tuple{"x", "y"})
	rt.Inject("add_contact", datalog.Tuple{int64(3), 4.5})
	rt.RunUntilIdle(20)
	if got := rt.Stats().Aborted; got != 2 {
		t.Fatalf("Aborted = %d, want 2", got)
	}
	if got := len(rt.Drain("add_contact<response>")); got != 0 {
		t.Fatalf("aborted invocations replied %d times", got)
	}
	if after := fmt.Sprint(rt.Table("contacts").Tuples(), rt.Table("transitive").Tuples()); after != before {
		t.Fatalf("mistyped payloads changed the tables\nbefore: %s\nafter:  %s", before, after)
	}
	rt.Inject("add_contact", datalog.Tuple{2, int64(3)})
	rt.RunUntilIdle(20)
	if got := rt.Stats().Aborted; got != 2 || !rt.Table("transitive").Contains(datalog.Tuple{int64(1), int64(3)}) {
		t.Fatalf("a Go int payload: Aborted = %d, transitive = %v", got, rt.Table("transitive").Tuples())
	}
}

// TestUnplannableSendFailsCompile: a send argument nothing binds, in an
// unchecked AST, is a CompileProgram error — hlang.Check, which
// CompileProgram runs first, refuses it — not an Instantiate error or a
// per-message abort.
func TestUnplannableSendFailsCompile(t *testing.T) {
	prog, err := hlang.ParseOnly(`
table links(a: int, b: int) key(a, b)
on fan(a: int) { send out(q) :- links(a, b) }
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileProgram(prog, Options{}); err == nil {
		t.Fatal("CompileProgram accepted a send whose head variable no literal binds")
	}
}

// TestCompileProgramChecksItsProgram: CompileProgram refuses a program
// hlang.Check refuses, so an unchecked AST with a field merge on a table
// keyed on two columns fails to compile instead of panicking on its first
// message.
func TestCompileProgramChecksItsProgram(t *testing.T) {
	prog, err := hlang.ParseOnly(`
table items(cart: string, item: string, qty: max<int>) key(cart, item)
on add(c: string) {
    merge items[c].qty <- 3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	const want = `field merge on table "items" keyed on 2 columns`
	if _, err := CompileProgram(prog, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CompileProgram: error %v, want one containing %q", err, want)
	}
}

// TestCompileIsReproducible: wildcards are numbered within their rule, so
// the emitted rules do not depend on what the process compiled before, and
// concurrent compiles share nothing (run under -race).
func TestCompileIsReproducible(t *testing.T) {
	const src = `
table links(a: int, b: int, w: int) key(a, b)
query sources(x) :- links(x, _, _)
query sinks(y) :- links(_, y, _)
on add_link(a: int, b: int, w: int) { merge links(a, b, w) }
`
	rules := make([]string, 8)
	var wg sync.WaitGroup
	for i := range rules {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Compile(src, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			rules[i] = fmt.Sprint(c.Queries.Rules)
		}(i)
	}
	wg.Wait()
	for i, r := range rules {
		if r != rules[0] {
			t.Fatalf("compile %d emitted different rules\nfirst: %s\nthis:  %s", i, rules[0], r)
		}
	}
}

// TestHandlerArithmetic: two integer operands are computed and compared in
// int64, exactly past 2^53, with truncating division; a mixed int/float
// pair takes the float path. A nil want is a division-by-zero error.
func TestHandlerArithmetic(t *testing.T) {
	const p53 = int64(1) << 53
	for _, c := range []struct {
		op   string
		l, r any
		want any
	}{
		{"+", p53 + 1, int64(0), p53 + 1},
		{"-", -(p53 + 1), int64(0), -(p53 + 1)},
		{"*", p53 + 1, int64(1), p53 + 1},
		{"/", p53 + 1, int64(1), p53 + 1},
		{"/", int64(-7), int64(2), int64(-3)},
		{"/", int64(1), int64(0), nil},
		{"/", int64(1), 0.0, nil},
		{"/", int64(3), 2.0, 1.5},
		{"<", p53, p53 + 1, true},
		{">", -p53, -(p53 + 1), true},
		{">=", p53, p53 + 1, false},
	} {
		eval := arith
		if c.op[0] == '<' || c.op[0] == '>' {
			eval = func(op string, l, r any) (any, error) { return datalog.Compare(datalog.CmpOp(op), l, r), nil }
		}
		if got, err := eval(c.op, c.l, c.r); got != c.want || (err != nil) != (c.want == nil) {
			t.Errorf("%v %s %v = %v (%T), %v; want %v (%T)", c.l, c.op, c.r, got, got, err, c.want, c.want)
		}
	}
}

// TestGuardAgreesWithQueryFilter: a handler's require guard and a query's
// filter are one comparison. For n = 1, each comparison below either keeps
// the row in the query and lets the guarded handler reply, or does
// neither; an int compares equal to the float 1.0, and an int against a
// string compares as text rather than aborting the handler.
func TestGuardAgreesWithQueryFilter(t *testing.T) {
	for _, cmp := range []string{
		"n == 1.0", "n != 1.0", "n <= 1.0", "n > 0.5",
		`n < "zzz"`, `n >= "zzz"`, "n == 2", "n != 1",
	} {
		src := fmt.Sprintf(`
table nums(n: int)

query kept(n) :- nums(n), %[1]s

on add(n: int) {
    merge nums(n)
}

on guarded(n: int) require(%[1]s) {
    reply "passed"
}
`, cmp)
		c, err := Compile(src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", cmp, err)
		}
		rt, err := c.Instantiate("n1", 1)
		if err != nil {
			t.Fatal(err)
		}
		rt.Inject("add", datalog.Tuple{int64(1)})
		rt.RunUntilIdle(5)
		rt.Inject("guarded", datalog.Tuple{int64(1)})
		rt.RunUntilIdle(5)
		filter := rt.Table("kept").Len() == 1
		guard := len(rt.Drain("guarded<response>")) == 1
		if filter != guard {
			t.Errorf("%s: query filter kept n = 1: %v; handler guard passed: %v (Aborted %d)", cmp, filter, guard, rt.Stats().Aborted)
		}
	}
}

// TestUDFResultIsTyped: a UDF's result enters tables as its declared type.
// g returns a Go int for a udf declared `: int`; the row it merges into t
// is the int64 5 that u holds too, so the join j sees it and a delete of
// t(5) removes it. A result not of the declared type aborts the invocation
// like a mistyped parameter.
func TestUDFResultIsTyped(t *testing.T) {
	c, err := Compile(`
udf g(int) : int
udf bad(int) : int

table t(x: int)
table u(x: int)

query j(x) :- t(x), u(x)

on put(a: int) {
    merge t(g(a))
    merge u(a)
}

on putbad(a: int) {
    merge t(bad(a))
}

on del(a: int) {
    delete t(a)
}
`, Options{UDFs: map[string]UDF{
		"g":   func(args []any) any { return int(args[0].(int64)) },
		"bad": func(args []any) any { return "five" },
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Instantiate("n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	rt.Inject("put", datalog.Tuple{int64(5)})
	rt.RunUntilIdle(5)
	if !rt.Table("j").Contains(datalog.Tuple{int64(5)}) {
		t.Fatalf("j = %v with t = %v and u = %v, want j(5)", rt.Table("j").Tuples(), rt.Table("t").Tuples(), rt.Table("u").Tuples())
	}
	rt.Inject("putbad", datalog.Tuple{int64(6)})
	rt.RunUntilIdle(5)
	if got := rt.Stats().Aborted; got != 1 {
		t.Fatalf("a string result for an int udf: Aborted = %d, want 1", got)
	}
	rt.Inject("del", datalog.Tuple{int64(5)})
	rt.RunUntilIdle(5)
	if rt.Table("t").Len() != 0 || rt.Table("j").Len() != 0 {
		t.Fatalf("after delete t(5): t = %v, j = %v, want both empty", rt.Table("t").Tuples(), rt.Table("j").Tuples())
	}
}
