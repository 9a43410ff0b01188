package datalog

import (
	"math"
	"reflect"
	"testing"
)

type otherKind struct{ a, b int }

// codecValues is one value of every kind the codec distinguishes, the
// inline/dictionary boundary on both sides, and the float cases where ==
// and bit equality part ways.
var codecValues = []any{
	int64(0), int64(1), int64(-1), int64(1)<<60 - 1, int64(-1) << 60, // inline extremes
	int64(maxBoxed - 1), int64(maxBoxed), // either side of the boxed-value memo
	int64(1) << 60, int64(-1)<<60 - 1, int64(math.MaxInt64), int64(math.MinInt64), // past them: dictionary
	int(0), int(1), int(-1), int(1)<<60 - 1, int(-1) << 60, int(1) << 60, int(math.MaxInt64), int(math.MinInt64),
	uint64(0), uint64(1), uint64(math.MaxUint64),
	true, false,
	0.0, math.Copysign(0, -1), 1.0, -1.5, math.Inf(1), math.NaN(),
	"", "1", "a", "payload",
	int32(1), otherKind{1, 2},
}

// sameValue is the equality the codec promises: same dynamic type and ==,
// floats by bits.
func sameValue(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return reflect.TypeOf(a) == reflect.TypeOf(b) && a == b
}

func TestCodecRoundTripAndEquality(t *testing.T) {
	d := newDict()
	words := make([]uint64, len(codecValues))
	for i, v := range codecValues {
		words[i] = d.encode(v)
		if words[i] == tombWord {
			t.Fatalf("%T(%v) encodes to the tombstone word", v, v)
		}
		if got := d.decode(words[i]); !sameValue(got, v) {
			t.Errorf("%T(%v) decodes as %T(%v)", v, v, got, got)
		}
		if again := d.encode(v); again != words[i] {
			t.Errorf("%T(%v) encodes to %#x, then to %#x", v, v, words[i], again)
		}
		if w, ok := d.lookup(v); !ok || w != words[i] {
			t.Errorf("lookup(%T(%v)) = %#x, %v after encode gave %#x", v, v, w, ok, words[i])
		}
	}
	for i, a := range codecValues {
		for j, b := range codecValues {
			if (words[i] == words[j]) != sameValue(a, b) {
				t.Errorf("%T(%v) and %T(%v): words equal = %v, values equal = %v", a, a, b, b, words[i] == words[j], sameValue(a, b))
			}
		}
	}
}

func TestCodecInlineBoundary(t *testing.T) {
	d := newDict()
	for _, c := range []struct {
		v      any
		inline bool
	}{
		{int64(1)<<60 - 1, true}, {int64(-1) << 60, true}, {int(1)<<60 - 1, true}, {int(-1) << 60, true}, {true, true},
		{int64(1) << 60, false}, {int64(-1)<<60 - 1, false}, {int64(math.MaxInt64), false}, {int64(math.MinInt64), false},
		{int(1) << 60, false}, {uint64(1), false}, {1.0, false}, {"1", false},
	} {
		before := len(d.vals)
		w := d.encode(c.v)
		if interned := len(d.vals) > before; interned == c.inline {
			t.Errorf("%T(%v): interned = %v, want inline = %v (word %#x)", c.v, c.v, interned, c.inline, w)
		}
	}
}

// TestProbeInternsNothing: reading with a value the dictionary has never
// seen finds nothing and leaves the dictionary as it was, through every
// read entry point.
func TestProbeInternsNothing(t *testing.T) {
	db := NewDatabase()
	rel := db.Ensure("t", 2)
	rel.Insert(Tuple{"seen", int64(1)})
	size := len(db.dict.vals)

	if rel.Contains(Tuple{"unseen", int64(1)}) {
		t.Error("Contains found a tuple with a never-stored string")
	}
	if got := rel.Lookup([]int{0}, []any{"unseen"}); len(got) != 0 {
		t.Errorf("Lookup on a never-stored string = %v", got)
	}
	if rel.Delete(Tuple{"unseen", int64(1)}) {
		t.Error("Delete removed a tuple with a never-stored string")
	}
	pr, err := PrepareRule(Rule{
		Head: Atom{Pred: "out", Args: []Term{V("k"), V("v")}},
		Body: []Literal{{Atom: Atom{Pred: "t", Args: []Term{V("k"), V("v")}}}},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pr.Derive(db, map[string]any{"k": "unseen"}); err != nil || len(got) != 0 {
		t.Errorf("Derive bound to a never-stored string = %v, %v", got, err)
	}
	// A bound value that reaches the head comes back as it went in, still
	// without being interned; one under negation holds.
	echo, err := PrepareRule(Rule{
		Head: Atom{Pred: "out", Args: []Term{V("k"), V("v")}},
		Body: []Literal{
			{Atom: Atom{Pred: "t", Args: []Term{V("s"), V("v")}}},
			{Atom: Atom{Pred: "t", Args: []Term{V("k"), V("v")}}, Negated: true},
		},
		Filters: []Filter{{Op: OpNe, L: V("k"), R: V("s")}},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	got, err := echo.Derive(db, map[string]any{"k": 2.5})
	if err != nil || len(got) != 1 || !got[0].Equal(Tuple{2.5, int64(1)}) {
		t.Errorf("Derive echoing a never-stored value = %v, %v; want [(2.5, 1)]", got, err)
	}
	if len(db.dict.vals) != size {
		t.Errorf("reads grew the dictionary from %d to %d entries", size, len(db.dict.vals))
	}
	if got, err := pr.Derive(db, map[string]any{"k": "seen"}); err != nil || len(got) != 1 {
		t.Errorf("Derive bound to the stored string = %v, %v", got, err)
	}
}

// TestDictionariesAreNotShared: ids mean nothing across databases — the
// same string gets different words in two of them — while a Scratch and a
// Clone share their source's.
func TestDictionariesAreNotShared(t *testing.T) {
	a, b := NewDatabase(), NewDatabase()
	a.Ensure("t", 1).Insert(Tuple{"x"})
	b.Ensure("t", 1).Insert(Tuple{"pad"})
	b.Get("t").Insert(Tuple{"x"})
	wa, _ := a.dict.lookup("x")
	wb, _ := b.dict.lookup("x")
	if wa == wb {
		t.Fatalf("two databases gave %q the same word %#x", "x", wa)
	}
	if _, ok := a.dict.lookup("pad"); ok {
		t.Fatal("a value interned in one database is known to another")
	}
	if s := a.Scratch(); s.dict != a.dict {
		t.Fatal("Scratch does not share its database's dictionary")
	}
	if c := a.Get("t").Clone(); c.dict != a.dict || !c.Contains(Tuple{"x"}) {
		t.Fatal("Clone does not share its source's dictionary")
	}
	if NewRelation("t", 1).dict == NewRelation("t", 1).dict {
		t.Fatal("standalone relations share a dictionary")
	}
}

// TestFloatIdentityIsBits pins the value-semantics fix: hash and equality
// used to disagree on floats (0.0 and -0.0 were == but hashed apart, so
// both were stored and either matched a probe; NaN never equalled itself
// and re-inserted forever). The codec decides: same bits, same value.
func TestFloatIdentityIsBits(t *testing.T) {
	rel := NewRelation("f", 1)
	negZero, nan := math.Copysign(0, -1), math.NaN()
	if !rel.Insert(Tuple{0.0}) || !rel.Insert(Tuple{negZero}) {
		t.Fatal("0.0 and -0.0 are distinct values and both insert")
	}
	if rel.Insert(Tuple{0.0}) || rel.Insert(Tuple{negZero}) {
		t.Fatal("re-inserting a zero reported a new tuple")
	}
	if got := rel.Lookup([]int{0}, []any{negZero}); len(got) != 1 || !math.Signbit(got[0][0].(float64)) {
		t.Fatalf("Lookup(-0.0) = %v, want exactly the negative zero", got)
	}
	if !rel.Insert(Tuple{nan}) || rel.Insert(Tuple{nan}) {
		t.Fatal("NaN inserts once")
	}
	if !rel.Contains(Tuple{nan}) || !rel.Delete(Tuple{nan}) || rel.Contains(Tuple{nan}) {
		t.Fatal("NaN is found and deleted like any value")
	}
	if rel.Len() != 2 {
		t.Fatalf("relation holds %d tuples, want the two zeros", rel.Len())
	}
}

// TestIntegerComparisonIsExact: integers past 2^53, which float64 cannot
// tell apart, compare exactly — inline (2^53+1 vs 2^53) and dictionary
// encoded (2^62+1 vs 2^62) — in filters and in max, under every evaluator.
func TestIntegerComparisonIsExact(t *testing.T) {
	p, err := NewProgram(
		Rule{
			Head:    Atom{Pred: "gt", Args: []Term{V("x"), V("y")}},
			Body:    []Literal{{Atom: Atom{Pred: "n", Args: []Term{V("x"), V("y")}}}},
			Filters: []Filter{{Op: OpGt, L: V("x"), R: V("y")}},
		},
		Rule{
			Head:   Atom{Pred: "top", Args: []Term{V("k"), V("v")}},
			Body:   []Literal{{Atom: Atom{Pred: "m", Args: []Term{V("k"), V("v")}}}},
			Agg:    AggMax,
			AggVar: "v",
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for _, e := range []int64{1 << 53, 1 << 62} {
		db.Ensure("n", 2).Insert(Tuple{e + 1, e})
		db.Ensure("m", 2).Insert(Tuple{e, e})
		db.Ensure("m", 2).Insert(Tuple{e, e + 1})
	}
	run := map[string]func(*Database) error{
		"Eval":      func(db *Database) error { _, err := p.Eval(db); return err },
		"EvalNaive": func(db *Database) error { _, err := p.EvalNaive(db); return err },
		"Incremental": func(db *Database) error {
			_, err := NewIncremental(p, db)
			return err
		},
	}
	for name, eval := range run {
		out := db.Clone()
		if err := eval(out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range []int64{1 << 53, 1 << 62} {
			if !out.Get("gt").Contains(Tuple{e + 1, e}) {
				t.Errorf("%s: filter %d > %d derived no row", name, e+1, e)
			}
			if !out.Get("top").Contains(Tuple{e, e + 1}) {
				t.Errorf("%s: max over %d, %d = %v", name, e, e+1, out.Get("top").Tuples())
			}
		}
	}
}
