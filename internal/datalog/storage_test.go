package datalog

import (
	"fmt"
	"math/rand"
	"testing"
)

// storageModel is the plain reference a Relation is checked against: the
// live tuples in insertion order.
type storageModel struct {
	rows []Tuple
}

func (m *storageModel) find(t Tuple) int {
	for i, r := range m.rows {
		if r.Equal(t) {
			return i
		}
	}
	return -1
}

func (m *storageModel) remove(i int) {
	m.rows = append(m.rows[:i:i], m.rows[i+1:]...)
}

// checkAgainst compares everything observable: Len, scan order, membership
// of every live tuple, and — per column and per column pair, for sampled
// keys plus an absent one — the bucket in insertion order.
func (m *storageModel) checkAgainst(r *rand.Rand, rel *Relation) error {
	if rel.Len() != len(m.rows) {
		return fmt.Errorf("Len = %d, model has %d", rel.Len(), len(m.rows))
	}
	i := 0
	var err error
	rel.scanRows(func(w []uint64) {
		if t := rel.dict.tuple(w); err == nil && !t.Equal(m.rows[i]) {
			err = fmt.Errorf("scan position %d holds %v, model %v", i, t, m.rows[i])
		}
		i++
	})
	if err != nil {
		return err
	}
	for _, t := range m.rows {
		if !rel.Contains(t) {
			return fmt.Errorf("live tuple %v not found", t)
		}
	}
	for _, pos := range [][]int{{0}, {1}, {2}, {0, 2}} {
		absent := []any{"absent", "absent"}
		keys := [][]any{absent[:len(pos)]}
		for n := 0; n < 8 && len(m.rows) > 0; n++ {
			t := m.rows[r.Intn(len(m.rows))]
			key := make([]any, len(pos))
			for k, p := range pos {
				key[k] = t[p]
			}
			keys = append(keys, key)
		}
		for _, key := range keys {
			var want []Tuple
			for _, t := range m.rows {
				match := true
				for k, p := range pos {
					match = match && t[p] == key[k]
				}
				if match {
					want = append(want, t)
				}
			}
			if got := rel.Lookup(pos, key); fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("Lookup(%v, %v) = %v, insertion order has %v", pos, key, got, want)
			}
		}
	}
	return nil
}

// TestStorageChurnMatchesModel drives the row set and the column indexes
// through insert / delete / re-insert churn — enough
// deletes to cross maybeCompact's threshold repeatedly and enough inserts to
// grow every table several times — plus Clear, bulkLoad and Clone, checking
// the relation against the model after every few steps.
func TestStorageChurnMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		rel := NewDatabase().Ensure("t", 3)
		m := &storageModel{}
		randTuple := func() Tuple {
			return Tuple{int64(r.Intn(40)), fmt.Sprintf("k%d", r.Intn(12)), r.Intn(5) == 0}
		}
		check := func(step int, what string) {
			t.Helper()
			if err := m.checkAgainst(r, rel); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, what, err)
			}
		}
		compactions := 0
		for step := 0; step < 3000; step++ {
			what := "insert"
			switch k := r.Intn(100); {
			case k < 45:
				tu := randTuple()
				i := m.find(tu)
				if rel.Insert(tu) != (i < 0) {
					t.Fatalf("seed %d step %d: Insert(%v) reported %v with the model holding it at %d", seed, step, tu, i >= 0, i)
				} else if i < 0 {
					m.rows = append(m.rows, tu)
				}
			case k < 90:
				// Deletes outnumber what survives, in bursts, so tombstones
				// come to dominate and compaction runs with indexes built.
				what = "delete"
				tu := randTuple()
				if len(m.rows) > 0 && r.Intn(4) > 0 {
					tu = m.rows[r.Intn(len(m.rows))]
				}
				i, slots := m.find(tu), rel.slots()
				if rel.Delete(tu) != (i >= 0) {
					t.Fatalf("seed %d step %d: Delete(%v) reported %v with the model holding it at %d", seed, step, tu, i < 0, i)
				}
				if i >= 0 {
					m.remove(i)
				}
				if rel.slots() < slots {
					compactions++
				}
			case k < 91:
				what = "clone"
				c := rel.Clone()
				if err := m.checkAgainst(r, c); err != nil {
					t.Fatalf("seed %d step %d: clone: %v", seed, step, err)
				}
				// Mutating the clone must not show in rel (checked below).
				c.Insert(Tuple{int64(-1), "clone-only", true})
				if len(m.rows) > 0 {
					c.Delete(m.rows[0])
				}
			case k == 99 && r.Intn(5) == 0:
				what = "clear+bulkLoad"
				var rows []uint64
				for _, tu := range m.rows {
					rows = rel.dict.encodeRow(rows, tu)
				}
				rel.Clear()
				if rel.Len() != 0 || rel.Contains(randTuple()) {
					t.Fatalf("seed %d step %d: Clear left tuples behind", seed, step)
				}
				if !rel.bulkLoad(rows) {
					t.Fatalf("seed %d step %d: bulkLoad found a duplicate row", seed, step)
				}
			}
			if step%25 == 0 || what != "insert" && what != "delete" {
				check(step, what)
			}
		}
		check(3000, "the run")
		if compactions == 0 {
			t.Fatalf("seed %d: the churn never compacted the slab", seed)
		}
	}
}
