package shard

import (
	"math"
	"testing"

	"hydro/internal/datalog"
)

// TestWordRoutingIsTupleRouting: a derived row is routed on its words
// (shardOfRow) and a base op on its tuple (shardOf, coord.go). For every
// value kind both pick the same replica, by one column and by the whole
// row, so a derived row and the base rows it joins meet at one owner. The
// words are a Batch's: inline ints, int64s and bools, and dictionary ids
// for an int64 beyond 61 bits, uint64, float64 (NaN and −0.0 included) and
// string.
func TestWordRoutingIsTupleRouting(t *testing.T) {
	vals := []any{0, -7, 1 << 40, int64(3), int64(-1) << 60, int64(1)<<62 + 5, int64(-1) << 62,
		uint64(7), uint64(1) << 63, 2.5, math.NaN(), math.Copysign(0, -1), 0.0, true, false, "", "a", "contact-17"}
	inline := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true} // vals' indexes of inline integers
	for i, v := range vals {
		for _, tu := range []datalog.Tuple{{v}, {v, vals[(i+5)%len(vals)], vals[(i+11)%len(vals)]}} {
			d := datalog.NewDelta()
			d.Insert("r", tu)
			b := d.Batch()
			row := b.Runs[0].Rows
			if _, _, isInt := datalog.Word(row[0], b.Values); isInt != inline[i] {
				t.Fatalf("%T %v: inline integer %v, want %v", v, v, isInt, inline[i])
			}
			for n := 2; n <= 5; n++ {
				for col := -1; col <= len(tu); col++ {
					if got, want := shardOfRow(row, b.Values, col, n), shardOf(tu, col, n); got != want {
						t.Errorf("%v on column %d of %d replicas: words go to %d, the tuple to %d", tu, col, n, got, want)
					}
				}
			}
		}
	}
}
