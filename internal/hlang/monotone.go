package hlang

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the monotonicity typechecker the paper calls for in
// §8.2 ("we wish to go further, providing an explicit monotone type
// modifier, and a compiler that can typecheck monotonicity") and the CALM
// analysis that drives the consistency facet: monotone handlers need no
// coordination, and consistency.Select gives every handler its mechanism
// from this analysis and the handler's declared level.

// Monotonicity classifies a query or handler.
type Monotonicity int

// Monotonicity values.
const (
	// Monotone: output only grows as inputs grow; coordination-free.
	Monotone Monotonicity = iota
	// NonMonotone: may retract or overwrite; requires coordination for
	// deterministic outcomes (CALM theorem).
	NonMonotone
)

func (m Monotonicity) String() string {
	if m == Monotone {
		return "monotone"
	}
	return "non-monotone"
}

// Reason explains one source of non-monotonicity, with position.
type Reason struct {
	At   Pos
	What string
}

func (r Reason) String() string { return fmt.Sprintf("%s: %s", r.At, r.What) }

// QueryInfo is the analysis result for one named query.
type QueryInfo struct {
	Name    string
	Mono    Monotonicity
	Reasons []Reason
}

// HandlerInfo is the analysis result for one handler.
type HandlerInfo struct {
	Name    string
	Mono    Monotonicity
	Reasons []Reason
	// ReadsVars / WritesVars track scalar variable usage for the
	// serializability analysis of §7 (vaccinate is the only writer of
	// vaccine_count, so it serializes locally).
	ReadsVars  []string
	WritesVars []string
	// Tables touched, for metaconsistency dataflow analysis.
	ReadsTables  []string
	WritesTables []string
	// SendsTo lists mailboxes this handler sends to (composition paths).
	SendsTo []string
}

// Analysis is the whole-program monotonicity and dataflow analysis.
type Analysis struct {
	Queries  map[string]*QueryInfo
	Handlers map[string]*HandlerInfo
	// thresholds maps each query that is non-monotone only for its own
	// count, max or min aggregate to that aggregate: a rule that reads it
	// through a threshold (thresholdRead) stays monotone.
	thresholds map[string]string
}

// Analyze computes monotonicity for every query and handler.
//
// Rules (Bloom/CALM discipline):
//   - A query is monotone iff all its rules use only positive body atoms
//     over monotone predicates and no aggregation, with one exception: a
//     count<…> or max<…> query read only through k >= b or k > b, or a
//     min<…> one read only through k <= b or k < b, grows past a bound
//     and never back (Conway et al., "Logic and Lattices for Distributed
//     Programming", SoCC 2012). The bound b is a constant or a non-lattice
//     column of a positive base-table atom. Any other read of an aggregate
//     (==, the opposite comparison, the value in a head or a send) and
//     every sum<…> read stays non-monotone.
//   - merge statements into lattice-typed storage are monotone.
//   - := assignment and delete are non-monotone.
//   - send of monotone-derived tuples is monotone (asynchronous merge).
//   - UDF calls are opaque: monotone per the paper's memoized-UDF
//     semantics, since they cannot read program state.
func Analyze(p *Program) *Analysis {
	a := &Analysis{Queries: map[string]*QueryInfo{}, Handlers: map[string]*HandlerInfo{}, thresholds: map[string]string{}}

	// Per-rule reasons first (local), then propagation through query
	// dependencies (inherited): a query reading a non-monotone query, other
	// than through a threshold, is itself non-monotone. A query with local
	// reasons reports only those.
	local := map[string][]Reason{}
	aggKinds := map[string]map[string]bool{} // query → its rules' aggregates ("" for none)
	negates := map[string]bool{}
	for _, q := range p.Queries {
		if q.Agg != "" {
			local[q.Name] = append(local[q.Name],
				Reason{At: q.Pos, What: fmt.Sprintf("aggregate %s<%s> is order-sensitive when read as a value", q.Agg, q.AggVar)})
		}
		for _, b := range q.Body {
			if b.Negated {
				negates[q.Name] = true
				local[q.Name] = append(local[q.Name],
					Reason{At: b.Pos, What: fmt.Sprintf("negation !%s retracts as %s grows", b.Pred, b.Pred)})
			}
		}
		if aggKinds[q.Name] == nil {
			aggKinds[q.Name] = map[string]bool{}
		}
		aggKinds[q.Name][q.Agg] = true
	}
	inherited := map[string][]Reason{}
	nonMono := func(name string) bool { return len(local[name])+len(inherited[name]) > 0 }
	// thresholdKind is the aggregate a threshold may read query name
	// through: count, max or min, when that is its only non-monotone
	// ingredient; "" otherwise.
	thresholdKind := func(name string) string {
		if len(aggKinds[name]) != 1 || negates[name] || len(inherited[name]) > 0 {
			return ""
		}
		for k := range aggKinds[name] {
			if k == "count" || k == "max" || k == "min" {
				return k
			}
		}
		return ""
	}
	for changed := true; changed; {
		changed = false
		for _, q := range p.Queries {
			if len(inherited[q.Name]) > 0 {
				continue
			}
			for _, b := range q.Body {
				if nonMono(b.Pred) && !thresholdRead(p, thresholdKind(b.Pred), b, q.Body, q.Filters, q.Head, "") {
					inherited[q.Name] = append(inherited[q.Name],
						Reason{At: b.Pos, What: fmt.Sprintf("depends on non-monotone query %q", b.Pred)})
					changed = true
					break
				}
			}
		}
	}
	for name := range aggKinds {
		if k := thresholdKind(name); k != "" {
			a.thresholds[name] = k
		}
	}
	for _, name := range p.QueryNames() {
		info := &QueryInfo{Name: name, Mono: Monotone, Reasons: local[name]}
		if len(info.Reasons) == 0 {
			info.Reasons = inherited[name]
		}
		if len(info.Reasons) > 0 {
			info.Mono = NonMonotone
		}
		a.Queries[name] = info
	}

	for _, h := range p.Handlers {
		info := analyzeHandler(p, a, h)
		a.Handlers[h.Name] = info
	}
	return a
}

// thresholdRead reports whether body atom b reads a query whose aggregate
// is kind ("" when it may not be read through a threshold) only through a
// threshold. b's aggregate column must be a variable k that appears in no
// other atom, head argument (out) or destination (dest), and in at least one
// filter; every filter mentioning k must compare it with the aggregate's
// growing direction (k >= bound or k > bound for count and max, k <= bound
// or k < bound for min, either side) against a fixedBound.
func thresholdRead(p *Program, kind string, b BodyAtom, body []BodyAtom, filters []Expr, out []QueryArg, dest string) bool {
	if kind == "" || b.Negated || len(b.Args) == 0 {
		return false
	}
	k := b.Args[len(b.Args)-1].Var
	if k == "" || k == dest {
		return false
	}
	for _, arg := range out {
		if arg.Var == k {
			return false
		}
	}
	uses := 0
	for _, atom := range body {
		for _, arg := range atom.Args {
			if arg.Var == k {
				uses++
			}
		}
	}
	if uses != 1 {
		return false
	}
	reads := 0
	for _, f := range filters {
		mentions := false
		WalkExpr(f, func(e Expr) {
			if v, ok := e.(*VarRef); ok && v.Name == k {
				mentions = true
			}
		})
		if !mentions {
			continue
		}
		bin, ok := f.(*BinExpr)
		if !ok {
			return false
		}
		op, bound := bin.Op, bin.R
		if v, ok := bin.R.(*VarRef); ok && v.Name == k {
			op, bound = map[string]string{">=": "<=", ">": "<", "<=": ">=", "<": ">"}[op], bin.L
		} else if v, ok := bin.L.(*VarRef); !ok || v.Name != k {
			return false
		}
		grows := op == ">=" || op == ">"
		if kind == "min" {
			grows = op == "<=" || op == "<"
		}
		if !grows || !fixedBound(p, bound, body, k) {
			return false
		}
		reads++
	}
	return reads > 0
}

// fixedBound reports whether e is a threshold's bound: a constant, or a
// variable other than k bound by a positive base-table atom at a
// non-lattice column.
func fixedBound(p *Program, e Expr, body []BodyAtom, k string) bool {
	switch x := e.(type) {
	case *IntLit, *FloatLit, *StringLit, *BoolLit:
		return true
	case *VarRef:
		if x.Name == k {
			return false
		}
		for _, b := range body {
			t := p.Table(b.Pred)
			if t == nil || b.Negated {
				continue
			}
			for i, arg := range b.Args {
				if arg.Var == x.Name && !t.Fields[i].Type.IsLattice() {
					return true
				}
			}
		}
	}
	return false
}

func analyzeHandler(p *Program, a *Analysis, h *HandlerDecl) *HandlerInfo {
	info := &HandlerInfo{Name: h.Name, Mono: Monotone}
	addReason := func(at Pos, format string, args ...any) {
		info.Mono = NonMonotone
		info.Reasons = append(info.Reasons, Reason{At: at, What: fmt.Sprintf(format, args...)})
	}
	readVar := func(name string) {
		if p.Var(name) != nil {
			info.ReadsVars = appendUnique(info.ReadsVars, name)
		}
	}
	scanExpr := func(e Expr) {
		WalkExpr(e, func(x Expr) {
			switch v := x.(type) {
			case *VarRef:
				readVar(v.Name)
			case *FieldRef:
				info.ReadsTables = appendUnique(info.ReadsTables, v.Table)
			}
		})
	}
	for _, r := range h.Requires {
		scanExpr(r)
	}
	for _, s := range h.Body {
		switch st := s.(type) {
		case *MergeTupleStmt:
			info.WritesTables = appendUnique(info.WritesTables, st.Table)
			for _, e := range st.Args {
				scanExpr(e)
			}
		case *MergeFieldStmt:
			info.WritesTables = appendUnique(info.WritesTables, st.Table)
			scanExpr(st.Key)
			scanExpr(st.Value)
			// Check validated lattice-ness; merge into a lattice column
			// is monotone by construction.
		case *AssignStmt:
			info.WritesVars = appendUnique(info.WritesVars, st.Var)
			scanExpr(st.Value)
			addReason(st.At, "assignment %s := ... overwrites (non-monotonic mutation)", st.Var)
		case *DeleteStmt:
			info.WritesTables = appendUnique(info.WritesTables, st.Table)
			for _, e := range st.Args {
				scanExpr(e)
			}
			addReason(st.At, "delete from %s retracts tuples", st.Table)
		case *SendStmt:
			info.SendsTo = appendUnique(info.SendsTo, st.Mailbox)
			for _, b := range st.Body {
				if b.Negated {
					addReason(st.At, "send rule negates %s", b.Pred)
				}
				if q, ok := a.Queries[b.Pred]; ok && q.Mono == NonMonotone &&
					!thresholdRead(p, a.thresholds[b.Pred], b, st.Body, st.Filters, st.Args, st.Dest) {
					addReason(st.At, "send rule reads non-monotone query %q", b.Pred)
				}
				info.ReadsTables = appendUnique(info.ReadsTables, b.Pred)
			}
		case *ReplyStmt:
			scanExpr(st.Value)
		}
	}
	// Reading a scalar var that anything assigns is a snapshot read of
	// mutable state — fine within a tick, but the *handler* remains
	// monotone only if it does not itself overwrite. (Reads alone do not
	// break monotonicity; the transducer snapshot makes them stable.)
	return info
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// Report renders a human-readable analysis summary, the artifact Fig 4
// motivates: machine-checked monotonicity instead of Twitter threads.
func (a *Analysis) Report() string {
	var b strings.Builder
	var qnames []string
	for n := range a.Queries {
		qnames = append(qnames, n)
	}
	sort.Strings(qnames)
	for _, n := range qnames {
		q := a.Queries[n]
		fmt.Fprintf(&b, "query %-20s %s\n", n, q.Mono)
		for _, r := range q.Reasons {
			fmt.Fprintf(&b, "    %s\n", r)
		}
	}
	var hnames []string
	for n := range a.Handlers {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := a.Handlers[n]
		fmt.Fprintf(&b, "on %-23s %s\n", n, h.Mono)
		for _, r := range h.Reasons {
			fmt.Fprintf(&b, "    %s\n", r)
		}
	}
	return b.String()
}
