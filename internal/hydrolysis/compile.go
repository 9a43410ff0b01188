// Package hydrolysis is the Hydro compiler (§2.2): it takes a HydroLogic
// program and produces what the runtime executes — datalog rules for the
// query facet, the monotonicity analysis, and executable handler closures
// for the transducer runtime. The consistency choice and
// metaconsistency check are report-only, computed on demand from a
// Compiled program's Program and Analysis by package consistency.
package hydrolysis

import (
	"fmt"

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
}

// Options configures compilation.
type Options struct {
	// UDFs supplies implementations for declared UDFs. Missing UDFs
	// compile to an error at build time, not call time.
	UDFs map[string]UDF
}

// Compile parses, checks, analyzes and compiles a HydroLogic source text.
func Compile(src string, opts Options) (*Compiled, error) {
	prog, err := hlang.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog, opts)
}

// CompileProgram compiles an already-parsed program.
func CompileProgram(prog *hlang.Program, opts Options) (*Compiled, error) {
	for _, u := range prog.UDFs {
		if _, ok := opts.UDFs[u.Name]; !ok {
			return nil, fmt.Errorf("hydrolysis: no implementation supplied for udf %q", u.Name)
		}
	}
	analysis := hlang.Analyze(prog)
	rules, err := QueriesToDatalog(prog)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Program:  prog,
		Analysis: analysis,
		Queries:  rules,
		UDFs:     opts.UDFs,
	}, nil
}

// QueriesToDatalog lowers the program's query rules to the datalog engine's
// rule form.
func QueriesToDatalog(p *hlang.Program) (*datalog.Program, error) {
	var rules []datalog.Rule
	for _, q := range p.Queries {
		r, err := queryToRule(q)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return datalog.NewProgram(rules...)
}

// argToTerm lowers one rule argument. wildcards counts the wildcards of the
// rule being lowered: each gets a fresh variable, numbered within its rule,
// so the emitted rules are the same whatever was compiled before.
func argToTerm(a hlang.QueryArg, wildcards *int) (datalog.Term, error) {
	switch {
	case a.Wildcard:
		*wildcards++
		return datalog.V(fmt.Sprintf("_w%d", *wildcards)), nil
	case a.Var != "":
		return datalog.V(a.Var), nil
	default:
		v, err := constExpr(a.Const)
		if err != nil {
			return datalog.Term{}, err
		}
		return datalog.C(v), nil
	}
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

func queryToRule(q *hlang.QueryRule) (datalog.Rule, error) {
	r := datalog.Rule{Head: datalog.Atom{Pred: q.Name}}
	wildcards := 0
	for _, a := range q.Head {
		t, err := argToTerm(a, &wildcards)
		if err != nil {
			return r, err
		}
		r.Head.Args = append(r.Head.Args, t)
	}
	for _, b := range q.Body {
		lit := datalog.Literal{Atom: datalog.Atom{Pred: b.Pred}, Negated: b.Negated}
		for _, a := range b.Args {
			t, err := argToTerm(a, &wildcards)
			if err != nil {
				return r, err
			}
			lit.Args = append(lit.Args, t)
		}
		r.Body = append(r.Body, lit)
	}
	for _, f := range q.Filters {
		df, err := filterToDatalog(f)
		if err != nil {
			return r, err
		}
		r.Filters = append(r.Filters, df)
	}
	if q.Agg != "" {
		r.Agg = datalog.AggKind(q.Agg)
		r.AggVar = q.AggVar
	}
	return r, nil
}

// filterToDatalog lowers a comparison expression over rule variables.
func filterToDatalog(e hlang.Expr) (datalog.Filter, error) {
	bin, ok := e.(*hlang.BinExpr)
	if !ok {
		return datalog.Filter{}, fmt.Errorf("hydrolysis: query filter %s must be a comparison", e)
	}
	var op datalog.CmpOp
	switch bin.Op {
	case "==":
		op = datalog.OpEq
	case "!=":
		op = datalog.OpNe
	case "<":
		op = datalog.OpLt
	case "<=":
		op = datalog.OpLe
	case ">":
		op = datalog.OpGt
	case ">=":
		op = datalog.OpGe
	default:
		return datalog.Filter{}, fmt.Errorf("hydrolysis: unsupported filter operator %q", bin.Op)
	}
	toTerm := func(x hlang.Expr) (datalog.Term, error) {
		if v, ok := x.(*hlang.VarRef); ok {
			return datalog.V(v.Name), nil
		}
		c, err := constExpr(x)
		if err != nil {
			return datalog.Term{}, err
		}
		return datalog.C(c), nil
	}
	l, err := toTerm(bin.L)
	if err != nil {
		return datalog.Filter{}, err
	}
	r, err := toTerm(bin.R)
	if err != nil {
		return datalog.Filter{}, err
	}
	return datalog.Filter{Op: op, L: l, R: r}, nil
}
