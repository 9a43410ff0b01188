package datalog

import "fmt"

// This file is the serialization boundary of the incremental evaluator: a
// FixpointState captures everything an Incremental needs beyond its compiled
// program — the database (base relations plus the materialized fixpoint, in
// insertion order) and the counted-derivation multiplicities of the
// non-recursive monotone components — and RestoreIncremental rebuilds a
// working evaluator from one without re-deriving anything. In the live
// evaluator a count sits beside its tuple, in the head relation's slot
// (Relation.addCount); CountsState is read off that relation in scan order
// and restored onto it. The durable
// layer (internal/durable) encodes FixpointStates into snapshot files and
// replays changelog suffixes through Apply; keeping the state shape here
// means the encoding never reaches into evaluator internals.
//
// Capture and restore both preserve insertion order (relations) and
// first-seen order (counts), so a restored evaluator is byte-for-byte
// equivalent to the one that was captured: identical scan orders, identical
// future emission orders, identical subsequent snapshots.

// RelationState is one relation's persisted form: tuples in insertion
// (scan) order.
type RelationState struct {
	Name   string
	Arity  int
	Tuples []Tuple
}

// CountEntry is one maintained derivation count (always positive: zero
// counts are dropped from the live state).
type CountEntry struct {
	Tuple Tuple
	Count int
}

// CountsState is the derivation-count table of one counting component's
// head predicate, in first-seen order.
type CountsState struct {
	Pred    string
	Entries []CountEntry
}

// FixpointState is a point-in-time capture of an Incremental's maintained
// state. Relations are listed in sorted-name order (deterministic bytes for
// a fixed state), tuples within each in insertion order.
type FixpointState struct {
	Relations []RelationState
	Counts    []CountsState
}

// State captures the maintained database and derivation counts. It fails on
// a broken evaluator — persisting a half-applied batch would make the
// corruption durable.
func (inc *Incremental) State() (*FixpointState, error) {
	if inc.broken {
		return nil, fmt.Errorf("datalog: incremental evaluator unusable after earlier error")
	}
	st := &FixpointState{}
	// Relations in sorted-name order, each decoded once over one backing
	// array; a counted relation's entries reuse those tuples, in the head
	// relation's scan order — the order the counted tuples were first
	// derived in.
	for _, name := range inc.db.Names() {
		rel := inc.db.Get(name)
		rs := RelationState{Name: name, Arity: rel.Arity, Tuples: rel.appendTuples(make([]Tuple, 0, rel.Len()))}
		st.Relations = append(st.Relations, rs)
		if rel.counts == nil || len(rs.Tuples) == 0 {
			continue
		}
		cs := CountsState{Pred: name, Entries: make([]CountEntry, 0, len(rs.Tuples))}
		for s, n := 0, rel.slots(); s < n; s++ {
			if rel.live(s) {
				cs.Entries = append(cs.Entries, CountEntry{Tuple: rs.Tuples[len(cs.Entries)], Count: rel.counts[s]})
			}
		}
		st.Counts = append(st.Counts, cs)
	}
	return st, nil
}

// RestoreIncremental rebuilds an evaluator from a captured state: relations
// are loaded into db (which must not already hold tuples for them), the
// program is compiled and classified exactly as NewIncremental would, and
// the derivation counts are adopted instead of re-seeding the fixpoint.
// Restore is O(state) — no joins, no fixpoint — which is what makes
// snapshot recovery beat cold recomputation.
func RestoreIncremental(p *Program, db *Database, st *FixpointState) (*Incremental, error) {
	for _, rs := range st.Relations {
		rel := db.Ensure(rs.Name, rs.Arity)
		if rel.Arity != rs.Arity {
			return nil, fmt.Errorf("datalog: restore: relation %s has arity %d but state says %d", rs.Name, rel.Arity, rs.Arity)
		}
		if rel.Len() > 0 {
			return nil, fmt.Errorf("datalog: restore: relation %s already holds tuples", rs.Name)
		}
		if err := rel.bulkLoad(rs.Tuples); err != nil {
			return nil, err
		}
	}
	inc, err := newIncrementalCore(p, db)
	if err != nil {
		return nil, err
	}
	counting := map[string]bool{}
	for _, c := range inc.comps {
		if !c.recursive && !c.nonMono {
			for _, h := range c.heads {
				counting[h] = true
			}
		}
	}
	for _, cs := range st.Counts {
		if !counting[cs.Pred] {
			return nil, fmt.Errorf("datalog: restore: %s carries derivation counts but is not a counting component head", cs.Pred)
		}
		rel := inc.db.Get(cs.Pred)
		for _, e := range cs.Entries {
			if e.Count <= 0 {
				return nil, fmt.Errorf("datalog: restore: non-positive derivation count %d for %s%v", e.Count, cs.Pred, e.Tuple)
			}
			var buf [8]uint64
			w, ok := inc.db.dictionary().lookupRow(buf[:0], e.Tuple)
			if rel == nil || !ok || len(w) != rel.Arity || rel.findRow(w) < 0 {
				return nil, fmt.Errorf("datalog: restore: counted tuple %s%v is not in the restored fixpoint", cs.Pred, e.Tuple)
			}
			rel.addCount(w, e.Count)
		}
	}
	// Every counting head's counts must cover its relation exactly: an
	// uncounted tuple (or a count without a tuple, caught above) would
	// corrupt every future zero-crossing decision.
	for h := range counting {
		rel := inc.db.Get(h)
		if rel == nil {
			continue
		}
		n := 0
		rel.scanCountRows(func(_ []uint64, c int) {
			if c > 0 {
				n++
			}
		})
		if rel.Len() != n {
			return nil, fmt.Errorf("datalog: restore: %s has %d tuples but %d derivation counts", h, rel.Len(), n)
		}
	}
	return inc, nil
}
