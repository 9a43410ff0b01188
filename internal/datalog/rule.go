package datalog

import (
	"fmt"
	"strings"
)

// Term is a rule argument: either a variable or a constant.
type Term struct {
	Var   string // non-empty for variables
	Const any    // used when Var == ""
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(val any) Term { return Term{Const: val} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		return "?" + t.Var
	}
	return fmt.Sprint(t.Const)
}

// Atom is a predicate applied to terms, e.g. contact(?p, ?q).
type Atom struct {
	Pred string
	Args []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Literal is an atom, possibly negated. Negation is interpreted under
// stratified semantics: the negated predicate must be fully computed in a
// lower stratum.
type Literal struct {
	Atom
	Negated bool
}

func (l Literal) String() string {
	if l.Negated {
		return "!" + l.Atom.String()
	}
	return l.Atom.String()
}

// CmpOp is a comparison operator for filter conditions. Its strings are
// HydroLogic's comparison operators, so a handler expression converts its
// operator directly.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "=="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Filter is a comparison between two terms, evaluated against a binding.
// Filters are monotone: they only restrict, never retract.
type Filter struct {
	Op   CmpOp
	L, R Term
}

func (f Filter) String() string { return f.L.String() + " " + string(f.Op) + " " + f.R.String() }

// AggKind names an aggregate function.
type AggKind string

// Aggregates. Count, Sum, Max and Min over grouped rows. Max/Min/Count are
// monotone morphisms from the set lattice; Sum is monotone only when the
// aggregated values are non-negative (the analyzer is conservative).
const (
	AggCount AggKind = "count"
	AggSum   AggKind = "sum"
	AggMax   AggKind = "max"
	AggMin   AggKind = "min"
)

// Rule derives head tuples from a conjunctive body with optional negation,
// filters and aggregation:
//
//	head(X, agg<Y>) :- body1(X, Y), !body2(X), X < 10.
//
// When Agg is set, the final head argument is the aggregate of AggVar over
// the groups formed by the remaining head arguments.
type Rule struct {
	Head    Atom
	Body    []Literal
	Filters []Filter
	Agg     AggKind // "" for none
	AggVar  string  // variable aggregated when Agg != ""
}

func (r Rule) String() string {
	parts := make([]string, 0, len(r.Body)+len(r.Filters))
	for _, l := range r.Body {
		parts = append(parts, l.String())
	}
	for _, f := range r.Filters {
		parts = append(parts, f.String())
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Validate checks range restriction: every head variable and every filter
// variable must be bound by a positive body literal, and negated literals
// must not introduce new variables.
func (r Rule) Validate() error { return validateWith(r, nil) }

// binding maps variable names to constants during evaluation.
type binding map[string]any

func (b binding) clone() binding {
	c := make(binding, len(b)+2)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// resolve returns the constant a term denotes under b, and whether it is
// fully resolved.
func (b binding) resolve(t Term) (any, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := b[t.Var]
	return v, ok
}

// evalFilter applies a comparison under a binding. Unresolvable terms fail
// closed (Validate rules that out for well-formed rules).
func evalFilter(f Filter, b binding) bool {
	l, okL := b.resolve(f.L)
	r, okR := b.resolve(f.R)
	if !okL || !okR {
		return false
	}
	return Compare(f.Op, l, r)
}

// Compare applies op to two values: the one comparison query filters and
// handler expressions share. Two integers compare in int64, since a
// float64 holds integers exactly only up to 2^53. Other numeric pairs
// coerce to float64; everything else compares as strings for ordering and
// natively for (in)equality.
func Compare(op CmpOp, l, r any) bool {
	if li, ok := toInt(l); ok {
		if ri, ok := toInt(r); ok {
			return compareOrdered(op, li, ri)
		}
	}
	lf, lNum := toFloat(l)
	rf, rNum := toFloat(r)
	if lNum && rNum {
		return compareOrdered(op, lf, rf)
	}
	switch op {
	case OpEq:
		return l == r
	case OpNe:
		return l != r
	}
	return compareOrdered(op, fmt.Sprint(l), fmt.Sprint(r))
}

// compareOrdered applies op to two operands of one ordered type.
func compareOrdered[T int64 | float64 | string](op CmpOp, l, r T) bool {
	switch op {
	case OpEq:
		return l == r
	case OpNe:
		return l != r
	case OpLt:
		return l < r
	case OpLe:
		return l <= r
	case OpGt:
		return l > r
	case OpGe:
		return l >= r
	}
	return false
}

// toInt reads v as an int64 when it is int64 or int, the integer kinds
// handler expressions compare exactly too.
func toInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}
