package hydrolysis

import (
	"fmt"
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/serve"
)

// mistypedMergeSource merges an int into a bool column, once by field and
// once by tuple, as a sum, which hlang.Check does not type, so the value
// reaches the run-time check; ok is a well-typed merge that replies.
const mistypedMergeSource = `
table t(k: int, b: bool) key(k)

on field(k: int) {
    merge t[k].b <- k + 4
}

on tuple(k: int) {
    merge t(k, k + 4)
}

on ok(k: int) {
    merge t(k, true)
    reply "OK"
}
`

// TestMistypedMergeAborts: a merged value not of its column's type aborts
// the invocation, as a mistyped parameter does, instead of reaching the
// column's join: merge t[k].b <- k + 4 and merge t(k, k + 4) into a bool column,
// each ticked twice (the second on a key the first would have created),
// leave t empty and count four aborts.
func TestMistypedMergeAborts(t *testing.T) {
	rt := newAppRuntime(t, mistypedMergeSource, nil)
	for _, box := range []string{"field", "field", "tuple", "tuple"} {
		rt.Inject(box, datalog.Tuple{int64(1)})
		rt.Tick()
	}
	if got := rt.Stats().Aborted; got != 4 {
		t.Fatalf("Aborted = %d, want 4", got)
	}
	if got := rt.Table("t").Tuples(); len(got) != 0 {
		t.Fatalf("t = %v, want empty", got)
	}
}

// TestServedMistypedMergeKeepsServing: under serve, a mistyped merge is one
// aborted request, answered with no reply, and the serve loop goes on to
// serve the next request.
func TestServedMistypedMergeKeepsServing(t *testing.T) {
	srv := serve.New(newAppRuntime(t, mistypedMergeSource, nil), serve.Config{})
	defer srv.Close()
	for _, req := range []struct {
		box, reply string
	}{{"field", "()"}, {"tuple", "()"}, {"ok", "(OK)"}} {
		p, err := srv.Submit(serve.Request{Mailbox: req.box, Payload: datalog.Tuple{int64(1)}})
		if err != nil {
			t.Fatal(err)
		}
		if resp := p.Wait(); resp.Err != nil || fmt.Sprint(resp.Reply) != req.reply {
			t.Fatalf("%s: reply %v, error %v; want %s", req.box, resp.Reply, resp.Err, req.reply)
		}
	}
}

// TestOneJoinRule pins the one join a keyed table's rows merge by: a bool
// column ors, a max<int> column takes the max, any other column and the key
// keep their first non-zero value, and a new key joins into the zero row —
// so a negative max<int> reaches the bottom, 0, and an int merged into a
// float column is stored as a float64. A field merge t[k].f <- v (lattice
// columns only: Check refuses one into a plain column) leaves the same row
// as a tuple merge of the zero row with f = v.
func TestOneJoinRule(t *testing.T) {
	const src = `
table t(k: int, b: bool, m: max<int>, s: string, x: float) key(k)

on row(k: int, b: bool, m: int, s: string, x: int) {
    merge t(k, b, m, s, x)
}

on fb(k: int, v: bool) {
    merge t[k].b <- v
}

on fm(k: int, v: int) {
    merge t[k].m <- v
}
`
	for _, tc := range []struct {
		name  string
		prior datalog.Tuple // merged first, nil for none
		field string        // the field-merge handler, "" for a plain column
		col   int
		v     any
		want  string
	}{
		{"bool onto a new key", nil, "fb", 1, true, "(7, true, 0, , 0)"},
		{"bool false keeps true", datalog.Tuple{int64(7), true, int64(3), "a", int64(0)}, "fb", 1, false, "(7, true, 3, a, 0)"},
		{"max onto a new key", nil, "fm", 2, int64(5), "(7, false, 5, , 0)"},
		{"negative max reaches the bottom", nil, "fm", 2, int64(-3), "(7, false, 0, , 0)"},
		{"max keeps the larger", datalog.Tuple{int64(7), false, int64(5), "a", int64(2)}, "fm", 2, int64(2), "(7, false, 5, a, 2)"},
		{"max raises", datalog.Tuple{int64(7), true, int64(5), "a", int64(0)}, "fm", 2, int64(9), "(7, true, 9, a, 0)"},
		{"key alone", nil, "fb", 0, int64(7), "(7, false, 0, , 0)"},
		{"string onto a new key", nil, "", 3, "a", "(7, false, 0, a, 0)"},
		{"string keeps the first", datalog.Tuple{int64(7), false, int64(0), "a", int64(0)}, "", 3, "b", "(7, false, 0, a, 0)"},
		{"string fills a zero", datalog.Tuple{int64(7), true, int64(0), "", int64(0)}, "", 3, "b", "(7, true, 0, b, 0)"},
		{"int into a float column", nil, "", 4, int64(2), "(7, false, 0, , 2)"},
	} {
		tuple := datalog.Tuple{int64(7), false, int64(0), "", int64(0)}
		tuple[tc.col] = tc.v
		var field datalog.Tuple
		switch tc.field {
		case "fb":
			field = datalog.Tuple{int64(7), tuple[1]}
		case "fm":
			field = datalog.Tuple{int64(7), tuple[2]}
		}
		payloads := map[string]datalog.Tuple{"row": tuple}
		if field != nil {
			payloads[tc.field] = field
		}
		for box, payload := range payloads {
			rt := newAppRuntime(t, src, nil)
			if tc.prior != nil {
				rt.Inject("row", tc.prior)
				rt.Tick()
			}
			rt.Inject(box, payload)
			rt.Tick()
			got := rt.Table("t").Tuples()
			if rt.Stats().Aborted != 0 || len(got) != 1 || got[0].String() != tc.want {
				t.Fatalf("%s by %s: t = %v (%d aborted), want [%s]", tc.name, box, got, rt.Stats().Aborted, tc.want)
			}
			if _, ok := got[0][4].(float64); !ok {
				t.Fatalf("%s by %s: x = %T, want float64", tc.name, box, got[0][4])
			}
		}
	}
}
