package hydro

// Ablation benchmarks for the design choices DESIGN.md §3 calls out: what
// each optimization buys, measured by switching it off.

import (
	"testing"

	"hydro/internal/datalog"
)

// Ablation: relation lookup through the on-demand column index vs a forced
// full scan (datalog join inner loop).
func BenchmarkAblationDatalogIndexed(b *testing.B) {
	r := datalog.NewRelation("t", 2)
	for i := 0; i < 5000; i++ {
		r.Insert(datalog.Tuple{int64(i % 100), int64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup([]int{0}, []any{int64(i % 100)})
	}
}

func BenchmarkAblationDatalogScan(b *testing.B) {
	r := datalog.NewRelation("t", 2)
	for i := 0; i < 5000; i++ {
		r.Insert(datalog.Tuple{int64(i % 100), int64(i)})
	}
	rows := r.Tuples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A lookup with no usable index: scan every row for the key.
		key, n := int64(i%100), 0
		for _, row := range rows {
			if row[0] == key {
				n++
			}
		}
		scanHits = n
	}
}

var scanHits int
