package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeBasics(t *testing.T) {
	bt := NewBTree()
	bt.Put("b", 2)
	bt.Put("a", 1)
	bt.Put("c", 3)
	if bt.Len() != 3 {
		t.Fatalf("len = %d", bt.Len())
	}
	if v, ok := bt.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %v %v", v, ok)
	}
	bt.Put("b", 20) // update
	if v, _ := bt.Get("b"); v != 20 {
		t.Fatal("update lost")
	}
	if bt.Len() != 3 {
		t.Fatal("update changed size")
	}
	if _, ok := bt.Get("zz"); ok {
		t.Fatal("phantom key")
	}
	if k, v, ok := bt.Min(); !ok || k != "a" || v != 1 {
		t.Fatalf("Min = %v %v %v", k, v, ok)
	}
}

func TestBTreeSplitsAndOrder(t *testing.T) {
	bt := NewBTree()
	r := rand.New(rand.NewSource(7))
	keys := r.Perm(5000)
	for _, k := range keys {
		bt.Put(fmt.Sprintf("k%06d", k), k)
	}
	if bt.Len() != 5000 {
		t.Fatalf("len = %d", bt.Len())
	}
	if bt.Depth() < 3 {
		t.Fatalf("depth = %d; 5000 keys at order 32 must split", bt.Depth())
	}
	var got []string
	bt.Scan("", "", func(k string, v any) bool {
		got = append(got, k)
		return true
	})
	if !sort.StringsAreSorted(got) {
		t.Fatal("scan out of order")
	}
	if len(got) != 5000 {
		t.Fatalf("scan visited %d keys", len(got))
	}
}

func TestBTreeRangeScan(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 100; i++ {
		bt.Put(fmt.Sprintf("k%02d", i), i)
	}
	var got []string
	bt.Scan("k10", "k20", func(k string, v any) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != "k10" || got[9] != "k19" {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	count := 0
	bt.Scan("", "", func(k string, v any) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

// Property: B+-tree matches a reference map under random puts.
func TestBTreeMatchesMapQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bt := NewBTree()
		ref := map[string]int{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%02d", r.Intn(60))
			bt.Put(k, i)
			ref[k] = i
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := bt.Get(k)
			if !ok || got != v {
				return false
			}
		}
		// Scan order and completeness.
		var scanned []string
		bt.Scan("", "", func(k string, v any) bool {
			scanned = append(scanned, k)
			return true
		})
		return sort.StringsAreSorted(scanned) && len(scanned) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTableLayouts(t *testing.T) {
	for _, layout := range []Layout{LayoutHeap, LayoutHash, LayoutBTree} {
		tbl := NewTable("users", "id", layout)
		for i := 0; i < 50; i++ {
			tbl.Insert(Row{"id": fmt.Sprintf("u%02d", i), "age": i % 5})
		}
		if tbl.Len() != 50 {
			t.Fatalf("%v: len = %d", layout, tbl.Len())
		}
		rows := tbl.Lookup("id", "u07")
		if len(rows) != 1 || rows[0]["age"] != 2 {
			t.Fatalf("%v: lookup = %v", layout, rows)
		}
		if got := tbl.Lookup("id", "zz"); len(got) != 0 {
			t.Fatalf("%v: phantom row", layout)
		}
		// Non-key lookup without index: scan path.
		if got := tbl.Lookup("age", 3); len(got) != 10 {
			t.Fatalf("%v: age lookup = %d rows", layout, len(got))
		}
	}
}

func TestTableUpsertOnKeyedLayouts(t *testing.T) {
	for _, layout := range []Layout{LayoutHash, LayoutBTree} {
		tbl := NewTable("t", "id", layout)
		tbl.Insert(Row{"id": "a", "v": 1})
		tbl.Insert(Row{"id": "a", "v": 2})
		if tbl.Len() != 1 {
			t.Fatalf("%v: upsert created duplicate", layout)
		}
		if tbl.Lookup("id", "a")[0]["v"] != 2 {
			t.Fatalf("%v: upsert kept old row", layout)
		}
	}
}

func TestSecondaryIndexUsedAndMaintained(t *testing.T) {
	tbl := NewTable("users", "id", LayoutHash)
	for i := 0; i < 100; i++ {
		tbl.Insert(Row{"id": fmt.Sprintf("u%03d", i), "country": fmt.Sprintf("c%d", i%4)})
	}
	tbl.AddSecondaryIndex("country")
	before := tbl.Stats
	rows := tbl.Lookup("country", "c1")
	if len(rows) != 25 {
		t.Fatalf("indexed lookup = %d rows", len(rows))
	}
	if tbl.Stats.Scans != before.Scans {
		t.Fatal("secondary lookup fell back to a scan")
	}
	// Index maintained across later inserts.
	tbl.Insert(Row{"id": "u999", "country": "c1"})
	if len(tbl.Lookup("country", "c1")) != 26 {
		t.Fatal("secondary index went stale")
	}
}

func TestRangeQueries(t *testing.T) {
	bt := NewTable("t", "id", LayoutBTree)
	heap := NewTable("t", "id", LayoutHeap)
	for i := 0; i < 100; i++ {
		r := Row{"id": fmt.Sprintf("k%02d", i)}
		bt.Insert(r)
		heap.Insert(r)
	}
	a, b := bt.Range("k10", "k20"), heap.Range("k10", "k20")
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("range = %d / %d rows", len(a), len(b))
	}
	// BTree range touches ~10 rows; heap touches all 100.
	if bt.Stats.RowsTouched >= heap.Stats.RowsTouched {
		t.Fatalf("btree range (%d) should touch fewer rows than heap (%d)",
			bt.Stats.RowsTouched, heap.Stats.RowsTouched)
	}
}

func TestAccessStatsDistinguishPaths(t *testing.T) {
	hash := NewTable("t", "id", LayoutHash)
	heap := NewTable("t", "id", LayoutHeap)
	for i := 0; i < 1000; i++ {
		r := Row{"id": fmt.Sprintf("k%04d", i)}
		hash.Insert(r)
		heap.Insert(r)
	}
	hash.Lookup("id", "k0500")
	heap.Lookup("id", "k0500")
	if hash.Stats.RowsTouched != 1 {
		t.Fatalf("hash point lookup touched %d rows", hash.Stats.RowsTouched)
	}
	if heap.Stats.RowsTouched != 1000 {
		t.Fatalf("heap lookup touched %d rows, expected full scan", heap.Stats.RowsTouched)
	}
}
