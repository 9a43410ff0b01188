// Package hydrolysis is the Hydro compiler (§2.2): it checks a HydroLogic
// program and lowers it once — every query rule and every
// rule-driven send through one lowering, lowerRule — into what the runtime
// executes: the datalog program for the query facet, a prepared plan per
// rule-driven send, the monotonicity analysis, the handlers whose
// consistency choice (consistency.Select) is coordination, and, per
// Instantiate, handler closures for the transducer runtime that only look
// those plans up. Instantiate registers each coordinated handler as one
// whose messages tick alone (transducer.Runtime.RegisterSerial), and a
// serving shell cuts its batches on that verdict. The metaconsistency
// check stays report-only, computed on demand by package consistency.
package hydrolysis

import (
	"fmt"
	"slices"

	"hydro/internal/consistency"
	"hydro/internal/datalog"
	"hydro/internal/hlang"
)

// UDF is a registered black-box function implementation.
type UDF func(args []any) any

// Compiled is the output of Compile: a deployable program description.
type Compiled struct {
	Program  *hlang.Program
	Analysis *hlang.Analysis
	// Queries is the datalog program the runtime keeps at fixpoint.
	Queries *datalog.Program
	// UDFs holds the user-supplied implementations.
	UDFs map[string]UDF

	// sends holds the plan of every rule-driven send, made once by
	// CompileProgram and shared by every instance.
	sends map[*hlang.SendStmt]*datalog.PreparedRule
	// serial names the handlers consistency.Select gives
	// MechCoordination: each of their messages ticks alone.
	serial map[string]bool
	// vars holds each variable's typed initial value, by Program.Vars.
	vars []any
}

// Options configures compilation.
type Options struct {
	// UDFs supplies implementations for declared UDFs. Missing UDFs
	// compile to an error at build time, not call time.
	UDFs map[string]UDF
}

// Compile parses, checks, analyzes and compiles a HydroLogic source text.
func Compile(src string, opts Options) (*Compiled, error) {
	prog, err := hlang.ParseOnly(src) // CompileProgram checks it
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog, opts)
}

// CompileProgram checks prog (hlang.Check), then compiles it: it lowers
// the query rules to the datalog program and plans every rule-driven send,
// with the handler parameters the send's rule names pre-bound (bound at
// Derive time, not substituted as constants per message), and records the
// handlers that need coordination. A program Check refuses, a mistyped var
// initializer or an unplannable send fails here, not at Instantiate.
func CompileProgram(prog *hlang.Program, opts Options) (*Compiled, error) {
	if err := hlang.Check(prog); err != nil {
		return nil, err
	}
	for _, u := range prog.UDFs {
		if _, ok := opts.UDFs[u.Name]; !ok {
			return nil, fmt.Errorf("hydrolysis: no implementation supplied for udf %q", u.Name)
		}
	}
	var rules []datalog.Rule
	for _, q := range prog.Queries {
		r, _, err := lowerRule(q.Name, q.Head, q.Body, q.Filters, nil)
		if err != nil {
			return nil, err
		}
		r.Agg, r.AggVar = datalog.AggKind(q.Agg), q.AggVar
		rules = append(rules, r)
	}
	queries, err := datalog.NewProgram(rules...)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Program:  prog,
		Analysis: hlang.Analyze(prog),
		Queries:  queries,
		UDFs:     opts.UDFs,
		sends:    map[*hlang.SendStmt]*datalog.PreparedRule{},
		serial:   map[string]bool{},
	}
	for name, ch := range consistency.Select(prog, c.Analysis) {
		c.serial[name] = ch.Mechanism == consistency.MechCoordination
	}
	for _, v := range prog.Vars {
		init := zeroValue(v.Type)
		if v.Init != nil {
			if init, err = constExpr(v.Init); err != nil {
				return nil, err
			}
		}
		init, ok := typed(v.Type, init)
		if !ok {
			return nil, fmt.Errorf("hydrolysis: var %s: initializer %s is not of type %s", v.Name, v.Init, v.Type)
		}
		c.vars = append(c.vars, init)
	}
	for _, h := range prog.Handlers {
		params := map[string]bool{}
		for _, p := range h.Params {
			params[p.Name] = true
		}
		for _, s := range h.Body {
			st, ok := s.(*hlang.SendStmt)
			if !ok || len(st.Body) == 0 {
				continue
			}
			// An addressed send's rule heads its rows with the destination.
			head := st.Args
			if st.Dest != "" {
				head = append([]hlang.QueryArg{{Var: st.Dest}}, head...)
			}
			r, bound, err := lowerRule("__send", head, st.Body, st.Filters, params)
			if err == nil {
				c.sends[st], err = datalog.PrepareRule(r, bound...)
			}
			if err != nil {
				return nil, fmt.Errorf("hydrolysis: handler %s: send %s: %w", h.Name, st.Mailbox, err)
			}
		}
	}
	return c, nil
}

// lowerRule lowers one rule, head pred(head) with body and filters, to the
// datalog engine's form. Each wildcard gets a fresh variable numbered
// within the rule, so the emitted rules are the same whatever was compiled
// before. bound lists the names in params the rule mentions, sorted: the
// handler parameters a send's plan takes per message.
func lowerRule(pred string, head []hlang.QueryArg, body []hlang.BodyAtom, filters []hlang.Expr, params map[string]bool) (datalog.Rule, []string, error) {
	var bound []string
	var err error
	wildcards := 0
	variable := func(name string) datalog.Term {
		if params[name] && !slices.Contains(bound, name) {
			bound = append(bound, name)
		}
		return datalog.V(name)
	}
	constant := func(e hlang.Expr) datalog.Term {
		v, cerr := constExpr(e)
		if err == nil {
			err = cerr
		}
		return datalog.C(v)
	}
	terms := func(args []hlang.QueryArg) []datalog.Term {
		var out []datalog.Term
		for _, a := range args {
			switch {
			case a.Wildcard:
				wildcards++
				out = append(out, datalog.V(fmt.Sprintf("_w%d", wildcards)))
			case a.Var != "":
				out = append(out, variable(a.Var))
			default:
				out = append(out, constant(a.Const))
			}
		}
		return out
	}
	operand := func(x hlang.Expr) datalog.Term {
		if v, ok := x.(*hlang.VarRef); ok {
			return variable(v.Name)
		}
		return constant(x)
	}
	r := datalog.Rule{Head: datalog.Atom{Pred: pred, Args: terms(head)}}
	for _, b := range body {
		r.Body = append(r.Body, datalog.Literal{Atom: datalog.Atom{Pred: b.Pred, Args: terms(b.Args)}, Negated: b.Negated})
	}
	for _, f := range filters {
		bin, ok := f.(*hlang.BinExpr)
		if !ok {
			return r, nil, fmt.Errorf("hydrolysis: rule filter %s must be a comparison", f)
		}
		op := datalog.CmpOp(bin.Op)
		if !slices.Contains([]datalog.CmpOp{datalog.OpEq, datalog.OpNe, datalog.OpLt, datalog.OpLe, datalog.OpGt, datalog.OpGe}, op) {
			return r, nil, fmt.Errorf("hydrolysis: unsupported filter operator %q", bin.Op)
		}
		r.Filters = append(r.Filters, datalog.Filter{Op: op, L: operand(bin.L), R: operand(bin.R)})
	}
	slices.Sort(bound)
	return r, bound, err
}

func constExpr(e hlang.Expr) (any, error) {
	switch x := e.(type) {
	case *hlang.IntLit:
		return x.V, nil
	case *hlang.FloatLit:
		return x.V, nil
	case *hlang.StringLit:
		return x.V, nil
	case *hlang.BoolLit:
		return x.V, nil
	}
	return nil, fmt.Errorf("hydrolysis: expression %s is not a constant", e)
}
