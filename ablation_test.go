package hydro

// Ablation benchmarks for the design choices DESIGN.md §3 calls out: what
// each optimization buys, measured by switching it off.

import (
	"fmt"
	"testing"

	"hydro/internal/chestnut"
	"hydro/internal/datalog"
	"hydro/internal/storage"
)

// Ablation: hash index on vs off for point lookups (the access-path choice
// of §5.1).
func BenchmarkAblationIndexedLookup(b *testing.B) {
	tbl := chestnut.Build("t", "id", chestnut.Design{Layout: storage.LayoutHash})
	for i := 0; i < 10000; i++ {
		tbl.Insert(storage.Row{"id": fmt.Sprintf("k%05d", i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup("id", fmt.Sprintf("k%05d", i%10000))
	}
}

func BenchmarkAblationScanLookup(b *testing.B) {
	tbl := chestnut.Build("t", "id", chestnut.Design{Layout: storage.LayoutHeap})
	for i := 0; i < 10000; i++ {
		tbl.Insert(storage.Row{"id": fmt.Sprintf("k%05d", i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup("id", fmt.Sprintf("k%05d", i%10000))
	}
}

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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Full enumeration stands in for a lookup with no usable index.
		for range r.Tuples() {
			break
		}
	}
}
