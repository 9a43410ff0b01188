package hlang

import (
	"fmt"
	"maps"
	"sort"
)

// Check runs semantic analysis over a parsed program: name resolution,
// arity/type checks, facet validation, and query stratification sanity.
// Monotonicity classification lives in Analyze (monotone.go); Check only
// rejects ill-formed programs.
func Check(p *Program) error {
	if err := checkDecls(p); err != nil {
		return err
	}
	for _, q := range p.Queries {
		if err := checkQuery(p, q); err != nil {
			return err
		}
	}
	for _, h := range p.Handlers {
		if err := checkHandler(p, h); err != nil {
			return err
		}
	}
	if err := checkFacets(p); err != nil {
		return err
	}
	return checkStratified(p)
}

func checkDecls(p *Program) error {
	seen := map[string]Pos{}
	declare := func(kind, name string, pos Pos) error {
		if prev, ok := seen[name]; ok {
			return errAt(pos, "%s %q redeclared (previously at %s)", kind, name, prev)
		}
		seen[name] = pos
		return nil
	}
	for _, t := range p.Tables {
		if err := declare("table", t.Name, t.Pos); err != nil {
			return err
		}
		if len(t.Fields) == 0 {
			return errAt(t.Pos, "table %q has no columns", t.Name)
		}
		cols := map[string]bool{}
		for _, f := range t.Fields {
			if cols[f.Name] {
				return errAt(t.Pos, "table %q: duplicate column %q", t.Name, f.Name)
			}
			cols[f.Name] = true
		}
		for _, k := range t.Key {
			if !cols[k] {
				return errAt(t.Pos, "table %q: key column %q not declared", t.Name, k)
			}
		}
		if t.Partition != "" && !cols[t.Partition] {
			return errAt(t.Pos, "table %q: partition column %q not declared", t.Name, t.Partition)
		}
	}
	for _, v := range p.Vars {
		if err := declare("var", v.Name, v.Pos); err != nil {
			return err
		}
	}
	for _, u := range p.UDFs {
		if err := declare("udf", u.Name, u.Pos); err != nil {
			return err
		}
	}
	handlerSeen := map[string]Pos{}
	for _, h := range p.Handlers {
		if prev, ok := handlerSeen[h.Name]; ok {
			return errAt(h.Pos, "handler %q redeclared (previously at %s)", h.Name, prev)
		}
		handlerSeen[h.Name] = h.Pos
		if _, clash := seen[h.Name]; clash {
			return errAt(h.Pos, "handler %q clashes with a table/var/udf name", h.Name)
		}
	}
	// Query names may not clash with tables (they share predicate space).
	for _, q := range p.Queries {
		if p.Table(q.Name) != nil {
			return errAt(q.Pos, "query %q clashes with a table name", q.Name)
		}
	}
	return nil
}

// predArity returns the arity of a body predicate: a table, a query, or a
// handler mailbox (handlers can be joined as their message mailboxes).
func predArity(p *Program, name string) (int, bool) {
	if t := p.Table(name); t != nil {
		return t.Arity(), true
	}
	for _, q := range p.Queries {
		if q.Name == name {
			return len(q.Head), true
		}
	}
	if h := p.Handler(name); h != nil {
		return len(h.Params), true
	}
	return 0, false
}

func checkBody(p *Program, owner string, body []BodyAtom, filters []Expr, boundOut map[string]bool) error {
	for _, a := range body {
		arity, ok := predArity(p, a.Pred)
		if !ok {
			return errAt(a.Pos, "%s: unknown predicate %q", owner, a.Pred)
		}
		if len(a.Args) != arity {
			return errAt(a.Pos, "%s: predicate %q wants %d args, got %d", owner, a.Pred, arity, len(a.Args))
		}
		if !a.Negated {
			for _, arg := range a.Args {
				if arg.Var != "" {
					boundOut[arg.Var] = true
				}
			}
		}
	}
	for _, a := range body {
		if !a.Negated {
			continue
		}
		for _, arg := range a.Args {
			if arg.Var != "" && !boundOut[arg.Var] {
				return errAt(a.Pos, "%s: variable %q appears only under negation", owner, arg.Var)
			}
		}
	}
	for _, f := range filters {
		var bad string
		WalkExpr(f, func(e Expr) {
			if v, ok := e.(*VarRef); ok && !boundOut[v.Name] && p.Var(v.Name) == nil && bad == "" {
				bad = v.Name
			}
		})
		if bad != "" {
			return fmt.Errorf("%s: filter references unbound variable %q", owner, bad)
		}
	}
	return nil
}

func checkQuery(p *Program, q *QueryRule) error {
	owner := "query " + q.Name
	bound := map[string]bool{}
	if err := checkBody(p, owner, q.Body, q.Filters, bound); err != nil {
		return err
	}
	if len(q.Body) == 0 {
		return errAt(q.Pos, "%s: empty body", owner)
	}
	for i, h := range q.Head {
		// The aggregate output slot is produced, not consumed.
		if q.Agg != "" && i == len(q.Head)-1 {
			continue
		}
		if h.Var != "" && !bound[h.Var] {
			return errAt(q.Pos, "%s: head variable %q not bound in body", owner, h.Var)
		}
	}
	if q.Agg != "" && !bound[q.AggVar] {
		return errAt(q.Pos, "%s: aggregate variable %q not bound in body", owner, q.AggVar)
	}
	// All rules for one query name must agree on arity.
	for _, other := range p.Queries {
		if other.Name == q.Name && len(other.Head) != len(q.Head) {
			return errAt(q.Pos, "%s: conflicting arities across rules", owner)
		}
	}
	return nil
}

func checkHandler(p *Program, h *HandlerDecl) error {
	owner := "handler " + h.Name
	scope := map[string]bool{}
	for _, prm := range h.Params {
		scope[prm.Name] = true
	}
	checkExpr := func(e Expr) error {
		var err error
		WalkExpr(e, func(x Expr) {
			if err != nil {
				return
			}
			switch v := x.(type) {
			case *VarRef:
				if !scope[v.Name] && p.Var(v.Name) == nil {
					err = fmt.Errorf("%s: unknown name %q", owner, v.Name)
				}
			case *FieldRef:
				t := p.Table(v.Table)
				if t == nil {
					err = fmt.Errorf("%s: unknown table %q", owner, v.Table)
					return
				}
				if t.FieldIndex(v.Field) < 0 {
					err = fmt.Errorf("%s: table %q has no column %q", owner, v.Table, v.Field)
				}
			case *CallExpr:
				u := p.UDF(v.Func)
				if u == nil {
					err = fmt.Errorf("%s: unknown UDF %q", owner, v.Func)
					return
				}
				if len(v.Args) != len(u.Params) {
					err = fmt.Errorf("%s: UDF %q wants %d args, got %d", owner, v.Func, len(u.Params), len(v.Args))
				}
			}
		})
		return err
	}
	for _, r := range h.Requires {
		if err := checkExpr(r); err != nil {
			return err
		}
	}
	for _, s := range h.Body {
		switch st := s.(type) {
		case *MergeTupleStmt:
			t := p.Table(st.Table)
			if t == nil {
				return errAt(st.At, "%s: merge into unknown table %q", owner, st.Table)
			}
			if len(st.Args) != t.Arity() {
				return errAt(st.At, "%s: table %q wants %d columns, got %d", owner, st.Table, t.Arity(), len(st.Args))
			}
			for _, a := range st.Args {
				if err := checkExpr(a); err != nil {
					return err
				}
			}
		case *MergeFieldStmt:
			t := p.Table(st.Table)
			if t == nil {
				return errAt(st.At, "%s: merge into unknown table %q", owner, st.Table)
			}
			fi := t.FieldIndex(st.Field)
			if fi < 0 {
				return errAt(st.At, "%s: table %q has no column %q", owner, st.Table, st.Field)
			}
			if !t.Fields[fi].Type.IsLattice() {
				return errAt(st.At, "%s: column %s.%s has non-lattice type %s; use := via a keyed update or declare a lattice type",
					owner, st.Table, st.Field, t.Fields[fi].Type)
			}
			if err := checkExpr(st.Key); err != nil {
				return err
			}
			if err := checkExpr(st.Value); err != nil {
				return err
			}
		case *AssignStmt:
			if p.Var(st.Var) == nil {
				return errAt(st.At, "%s: assignment to undeclared var %q", owner, st.Var)
			}
			if err := checkExpr(st.Value); err != nil {
				return err
			}
		case *DeleteStmt:
			t := p.Table(st.Table)
			if t == nil {
				return errAt(st.At, "%s: delete from unknown table %q", owner, st.Table)
			}
			if len(st.Args) != len(t.Key) {
				return errAt(st.At, "%s: delete from %q keys on %d columns, got %d", owner, st.Table, len(t.Key), len(st.Args))
			}
			for _, a := range st.Args {
				if err := checkExpr(a); err != nil {
					return err
				}
			}
		case *SendStmt:
			// The mailbox may be a declared handler (internal call), or a
			// free mailbox (external service) — both allowed; arity is
			// checked when it is a known handler.
			if tgt := p.Handler(st.Mailbox); tgt != nil && len(st.Args) != len(tgt.Params) {
				return errAt(st.At, "%s: send to %q wants %d args, got %d", owner, st.Mailbox, len(tgt.Params), len(st.Args))
			}
			if len(st.Body) == 0 && len(st.Filters) > 0 {
				return errAt(st.At, "%s: send rule has filters but no body atom", owner)
			}
			bound := maps.Clone(scope)
			if len(st.Body) > 0 {
				if err := checkBody(p, owner, st.Body, st.Filters, bound); err != nil {
					return err
				}
				for _, a := range st.Args {
					if a.Var != "" && !bound[a.Var] {
						return errAt(st.At, "%s: send argument %q not bound by rule body or params", owner, a.Var)
					}
				}
			} else {
				for _, a := range st.Args {
					if a.Wildcard {
						return errAt(st.At, "%s: wildcard in a plain send", owner)
					}
					if a.Var != "" && !scope[a.Var] && p.Var(a.Var) == nil {
						return errAt(st.At, "%s: unknown name %q in send", owner, a.Var)
					}
				}
			}
			if err := checkDest(p, h, st, bound); err != nil {
				return err
			}
		case *ReplyStmt:
			if err := checkExpr(st.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDest checks an addressed send's destination: a variable the
// handler's parameters or the send's rule body bind, holding a node name.
func checkDest(p *Program, h *HandlerDecl, st *SendStmt, bound map[string]bool) error {
	if st.Dest == "" {
		return nil
	}
	if !bound[st.Dest] {
		return errAt(st.At, "handler %s: send destination %q not bound by rule body or params", h.Name, st.Dest)
	}
	wrong := func(ty Type) error {
		return errAt(st.At, "handler %s: send destination %q has type %s, want string", h.Name, st.Dest, ty)
	}
	for _, prm := range h.Params {
		if prm.Name == st.Dest && prm.Type.Kind != TString {
			return wrong(prm.Type)
		}
	}
	for _, a := range st.Body {
		if t := p.Table(a.Pred); t != nil {
			for i, arg := range a.Args {
				if arg.Var == st.Dest && t.Fields[i].Type.Kind != TString {
					return wrong(t.Fields[i].Type)
				}
			}
		}
	}
	return nil
}

func checkFacets(p *Program) error {
	names := map[string]bool{"default": true}
	for _, h := range p.Handlers {
		names[h.Name] = true
	}
	var keys []string
	for k := range p.Availability {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !names[k] {
			return fmt.Errorf("availability: unknown handler %q", k)
		}
		if p.Availability[k].Failures < 0 {
			return fmt.Errorf("availability %q: negative failure count", k)
		}
	}
	keys = keys[:0]
	for k := range p.Targets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !names[k] {
			return fmt.Errorf("target: unknown handler %q", k)
		}
		t := p.Targets[k]
		if t.LatencyMs < 0 || t.Cost < 0 {
			return fmt.Errorf("target %q: negative latency or cost", k)
		}
	}
	return nil
}

// checkStratified rejects negation or aggregation through query recursion
// at the language level, so the error names the atom: a negated atom, or
// any atom of an aggregate query, must not read a query that reaches back
// to the rule's own head.
func checkStratified(p *Program) error {
	reads := map[string][]string{} // query → the predicates its rules read
	for _, q := range p.Queries {
		for _, a := range q.Body {
			reads[q.Name] = append(reads[q.Name], a.Pred)
		}
	}
	// reaches reports whether from is target or reads it, directly or
	// through other queries.
	reaches := func(from, target string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == target {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, reads[v]...)
			}
		}
		return false
	}
	for _, q := range p.Queries {
		for _, a := range q.Body {
			if (a.Negated || q.Agg != "") && reaches(a.Pred, q.Name) {
				return errAt(a.Pos, "queries are not stratifiable: %s in query %s reaches back to it (negation or aggregation through recursion)", a, q.Name)
			}
		}
	}
	return nil
}
