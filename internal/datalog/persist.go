package datalog

import (
	"fmt"
	"slices"
)

// This file is the serialization boundary of the incremental evaluator: a
// FixpointState is the evaluator's own representation — the dictionary
// values its rows reference plus each relation's live slab rows and, on a
// counting component's head, the derivation count beside each row
// (Relation.addCount) — and RestoreIncremental adopts one without decoding
// a row or re-deriving anything. The durable layer (internal/durable)
// frames FixpointStates as snapshot files and replays changelog suffixes
// through Apply; words stay opaque to it.
//
// Dictionary ids are renumbered densely in first-use order (relations by
// name, rows in slot order), so a state depends only on the maintained
// contents and their scan order, never on which values the dictionary
// interned and forgot: two evaluators holding the same relations in the
// same order capture identical states, and a restored evaluator captures
// the state it was restored from.

// RelationState is one relation's persisted form: its live slab rows in
// slot (scan) order, max(Arity, 1) words per row — an arity-0 row is one
// zero word. Counts runs parallel to the rows and is non-nil exactly on the
// heads of counting components.
type RelationState struct {
	Name   string
	Arity  int
	Rows   []uint64
	Counts []int
}

// FixpointState is a point-in-time capture of an Incremental's maintained
// state. Relations are in name order; a row's dictionary word names
// Values[id].
type FixpointState struct {
	Values    []any
	Relations []RelationState
}

// countingHeads returns the heads of the counting (non-recursive monotone)
// components: the relations that carry derivation counts.
func (inc *Incremental) countingHeads() map[string]bool {
	heads := map[string]bool{}
	for _, c := range inc.comps {
		if !c.Recursive && !c.NonMono {
			for _, h := range c.Heads {
				heads[h] = true
			}
		}
	}
	return heads
}

// State captures the maintained database and derivation counts in one pass
// over the slabs.
func (inc *Incremental) State() *FixpointState {
	d := inc.db.dictionary()
	counting := inc.countingHeads()
	renum := make([]uint64, len(d.vals)) // dictionary id → state id + 1
	st := &FixpointState{}
	for _, name := range inc.db.Names() {
		r := inc.db.Get(name)
		rs := RelationState{Name: name, Arity: r.Arity, Rows: make([]uint64, 0, r.Len()*r.stride)}
		if counting[name] {
			rs.Counts = make([]int, 0, r.Len())
		}
		for s, n := 0, r.slots(); s < n; s++ {
			if !r.live(s) {
				continue
			}
			for _, w := range r.rows[s*r.stride:][:r.stride] {
				if w&tagMask == tagDict {
					id := w >> tagBits
					if renum[id] == 0 {
						st.Values = append(st.Values, d.vals[id])
						renum[id] = uint64(len(st.Values))
					}
					w = (renum[id]-1)<<tagBits | tagDict
				}
				rs.Rows = append(rs.Rows, w)
			}
			if rs.Counts != nil {
				rs.Counts = append(rs.Counts, r.counts[s])
			}
		}
		st.Relations = append(st.Relations, rs)
	}
	return st
}

// RestoreIncremental rebuilds an evaluator from a captured state: the
// values are interned into db's dictionary, the rows are copied into each
// relation's slab with their dictionary words remapped, membership is
// built once, and the program is compiled and classified exactly as
// NewIncremental would, adopting the derivation counts instead of seeding
// the fixpoint. Restore is O(state) — no joins, no fixpoint, no Tuple.
//
// A state that a correct State() cannot produce is rejected before any
// relation of db changes (only the append-only dictionary may have grown),
// so a failed restore leaves db as it found it.
func RestoreIncremental(p *Program, db *Database, st *FixpointState) (*Incremental, error) {
	inc, err := newIncrementalCore(p, db)
	if err != nil {
		return nil, err
	}
	rels, err := loadState(p, db, inc.countingHeads(), st)
	if err != nil {
		return nil, fmt.Errorf("datalog: restore: %w", err)
	}
	for _, r := range rels {
		if old := db.Get(r.Name); old != nil {
			*old = *r // keep the registered relation's identity
		} else {
			db.rels[r.Name] = r
			db.names = nil
		}
	}
	return inc, nil
}

// loadState validates st against p, db and the counting heads and builds
// its relations, detached from db, in db's dictionary.
func loadState(p *Program, db *Database, counting map[string]bool, st *FixpointState) ([]*Relation, error) {
	d := db.dictionary()
	words := make([]uint64, len(st.Values)) // state id → db word
	for i, v := range st.Values {
		if _, ok := inline(v); ok {
			return nil, fmt.Errorf("dictionary value %d (%T %v) is encoded inline, not by id", i, v, v)
		}
		words[i] = d.encode(v)
	}
	seen := make([]bool, len(d.vals))
	for i, w := range words {
		if seen[w>>tagBits] {
			return nil, fmt.Errorf("dictionary value %d (%v) is a duplicate", i, st.Values[i])
		}
		seen[w>>tagBits] = true
	}
	next := uint64(0) // the first state id no row has used yet
	rels := make([]*Relation, len(st.Relations))
	for i := range st.Relations {
		rs := &st.Relations[i]
		if i > 0 && rs.Name <= st.Relations[i-1].Name {
			return nil, fmt.Errorf("relation %s is out of name order", rs.Name)
		}
		want, ok := p.prep.arity[rs.Name]
		if old := db.Get(rs.Name); old != nil {
			if old.Len() > 0 {
				return nil, fmt.Errorf("relation %s already holds tuples", rs.Name)
			}
			want, ok = old.Arity, true
		}
		if rs.Arity < 0 || ok && rs.Arity != want {
			return nil, fmt.Errorf("relation %s has arity %d but state says %d", rs.Name, want, rs.Arity)
		}
		r := newRelation(d, rs.Name, rs.Arity)
		if len(rs.Rows)%r.stride != 0 {
			return nil, fmt.Errorf("relation %s: %d words is not a whole number of rows", rs.Name, len(rs.Rows))
		}
		n := len(rs.Rows) / r.stride
		if counting[rs.Name] != (rs.Counts != nil) || rs.Counts != nil && len(rs.Counts) != n {
			return nil, fmt.Errorf("relation %s has %d rows and %d derivation counts (counting component head: %v)",
				rs.Name, n, len(rs.Counts), counting[rs.Name])
		}
		if slices.ContainsFunc(rs.Counts, func(c int) bool { return c <= 0 }) {
			return nil, fmt.Errorf("relation %s has a non-positive derivation count", rs.Name)
		}
		rows := make([]uint64, len(rs.Rows))
		for j, w := range rs.Rows {
			switch tag := w & tagMask; {
			case rs.Arity == 0 && w != 0, tag > tagDict, tag == tagBool && w>>tagBits > 1:
				return nil, fmt.Errorf("relation %s: word %#x encodes no stored value", rs.Name, w)
			case tag == tagDict:
				id := w >> tagBits
				if id > next || id >= uint64(len(words)) {
					return nil, fmt.Errorf("relation %s: dictionary id %d is not among the %d values, or out of first-use order", rs.Name, id, len(words))
				}
				if id == next {
					next++
				}
				w = words[id]
			}
			rows[j] = w
		}
		if !r.bulkLoad(rows) {
			return nil, fmt.Errorf("relation %s holds a row twice", rs.Name)
		}
		r.counts = slices.Clone(rs.Counts)
		rels[i] = r
	}
	if next != uint64(len(words)) {
		return nil, fmt.Errorf("%d dictionary values are referenced by no row", uint64(len(words))-next)
	}
	return rels, nil
}
