// Package hlang defines the HydroLogic intermediate representation (§3 of
// the paper): a declarative, faceted language with tables, lattice-typed
// variables, Datalog-style queries, event handlers, and the three
// distribution facets (availability, consistency, targets). It provides a
// lexer, parser, semantic checker and the monotonicity typechecker that §8.2
// calls for.
//
// The concrete syntax here is Datalog/Bloom-flavored rather than the
// paper's expository Pythonic sketch; the paper explicitly defers concrete
// syntax design. Example:
//
//	table people(pid: int, country: string, covid: bool) key(pid) partition(country)
//	var vaccine_count: int = 100
//
//	query transitive(x, y) :- contacts(x, y)
//	query transitive(x, z) :- transitive(x, y), contacts(y, z)
//
//	on vaccinate(pid: int) consistency(serializable) require(vaccine_count >= 0) {
//	    merge people[pid].vaccinated <- true
//	    vaccine_count := vaccine_count - 1
//	    reply "OK"
//	}
//
//	availability { default domain=az failures=2 }
//	target { default latency=100ms cost=0.01 }
package hlang

import (
	"fmt"
	"strings"
)

// Pos is a source position for diagnostics.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Type is a HydroLogic value type. Lattice-ness is part of the type: a Bool
// column merged with `merge` behaves as the or-lattice; MaxInt as the max
// lattice. A grow-only set is a table keyed on all of its columns.
type Type struct {
	Kind TypeKind
}

// TypeKind enumerates HydroLogic types.
type TypeKind int

// Type kinds.
const (
	TInt TypeKind = iota
	TFloat
	TString
	TBool
	TMaxInt // max-lattice integer
)

func (t Type) String() string {
	switch t.Kind {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBool:
		return "bool"
	case TMaxInt:
		return "max<int>"
	}
	return "?"
}

// IsLattice reports whether merge on this type is a true lattice join
// (monotonic). Plain int/float/string have no join, so merging them is a
// type error; bool merges as or.
func (t Type) IsLattice() bool {
	switch t.Kind {
	case TBool, TMaxInt:
		return true
	}
	return false
}

// holds reports whether a t can store a value of type v: the same kind, an
// int as a max<int> and back, or an int widened to a float.
func (t Type) holds(v Type) bool {
	isInt := func(k TypeKind) bool { return k == TInt || k == TMaxInt }
	return t.Kind == v.Kind || isInt(v.Kind) && (isInt(t.Kind) || t.Kind == TFloat)
}

// Field is a named, typed table column.
type Field struct {
	Name string
	Type Type
}

// TableDecl declares persistent state (the data-model facet, §5).
type TableDecl struct {
	Pos       Pos
	Name      string
	Fields    []Field
	Key       []string // key column names; defaults to the first column
	Partition string   // optional partition column hint
}

// Arity returns the number of columns.
func (t *TableDecl) Arity() int { return len(t.Fields) }

// PartitionCol is the column a sharded deployment hashes the table's rows
// on: the `partition(col)` hint, else the first key column (the paper:
// "HydroLogic uses the class's unique id to partition by default"). The
// checker rejects a hint that names no column.
func (t *TableDecl) PartitionCol() int {
	if t.Partition != "" {
		return t.FieldIndex(t.Partition)
	}
	return t.FieldIndex(t.Key[0])
}

// keyField is the column a single-column key t[k] addresses.
func (t *TableDecl) keyField() Field { return t.Fields[t.FieldIndex(t.Key[0])] }

// FieldIndex returns the column index of name, or -1.
func (t *TableDecl) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// VarDecl declares a scalar program variable (e.g. vaccine_count).
type VarDecl struct {
	Pos  Pos
	Name string
	Type Type
	Init Expr // optional
}

// QueryArg is an argument of a query head or body atom: a variable,
// constant, or wildcard.
type QueryArg struct {
	Var      string // variable name if non-empty
	Const    Expr   // literal constant when Var == "" and !Wildcard
	Wildcard bool
}

func (a QueryArg) String() string {
	switch {
	case a.Wildcard:
		return "_"
	case a.Var != "":
		return a.Var
	default:
		return a.Const.String()
	}
}

// BodyAtom is one conjunct of a query body: predicate over args, possibly
// negated.
type BodyAtom struct {
	Pos     Pos
	Pred    string
	Args    []QueryArg
	Negated bool
}

func (b BodyAtom) String() string {
	parts := make([]string, len(b.Args))
	for i, a := range b.Args {
		parts[i] = a.String()
	}
	s := b.Pred + "(" + strings.Join(parts, ", ") + ")"
	if b.Negated {
		return "!" + s
	}
	return s
}

// QueryRule is one rule contributing to a named query. Multiple rules with
// the same name merge their results, as in Datalog (paper §3.1: base and
// inductive cases of transitive closure).
type QueryRule struct {
	Pos     Pos
	Name    string
	Head    []QueryArg
	Body    []BodyAtom
	Filters []Expr // boolean expressions over body variables
	Agg     string // "", "count", "sum", "max", "min"
	AggVar  string // aggregated variable when Agg != ""
}

// ConsistencyLevel is a history-based consistency spec for a handler (§7).
type ConsistencyLevel string

// Consistency levels, weakest to strongest.
const (
	Eventual     ConsistencyLevel = "eventual"
	Causal       ConsistencyLevel = "causal"
	Serializable ConsistencyLevel = "serializable"
)

// HandlerDecl is an `on` handler: the reaction to one mailbox of messages.
type HandlerDecl struct {
	Pos         Pos
	Name        string
	Params      []Field
	Consistency ConsistencyLevel // "" means default (eventual)
	Requires    []Expr           // application-centric invariants (§7.1)
	Body        []Stmt
}

// UDFDecl imports a black-box function (FaaS-style UDF).
type UDFDecl struct {
	Pos    Pos
	Name   string
	Params []Type
	Result Type
}

// Stmt is a handler statement.
type Stmt interface {
	stmt()
	Pos() Pos
	String() string
}

// MergeTupleStmt inserts a tuple into a table: `merge people(pid, c, false)`.
// Monotonic.
type MergeTupleStmt struct {
	At    Pos
	Table string
	Args  []Expr
}

// MergeFieldStmt merges a lattice value into one column of a keyed row:
// `merge people[pid].covid <- true`. Monotonic iff the column type is a
// lattice.
type MergeFieldStmt struct {
	At    Pos
	Table string
	Key   Expr
	Field string
	Value Expr
}

// AssignStmt is an arbitrary (non-monotonic) variable overwrite:
// `vaccine_count := vaccine_count - 1`.
type AssignStmt struct {
	At    Pos
	Var   string
	Value Expr
}

// SendStmt asynchronously merges tuples into a mailbox. With a Query body it
// sends one message per derived row (`send alert(p) :- transitive(pid, p)`);
// without, it sends the single tuple of Args. An addressed send
// (`send bcast@c(v) :- child(c)`) names the node each row goes to: Dest is
// a string variable bound by the body or a handler parameter, and the row
// is sent to that node's Mailbox.
type SendStmt struct {
	At      Pos
	Mailbox string
	Dest    string // "" for a send to this node
	Args    []QueryArg
	Body    []BodyAtom // optional rule body
	Filters []Expr
}

// DeleteStmt removes a tuple (non-monotonic): `delete people(pid, ...)`.
type DeleteStmt struct {
	At    Pos
	Table string
	Args  []Expr
}

// ReplyStmt returns a value to the caller's response mailbox.
type ReplyStmt struct {
	At    Pos
	Value Expr
}

func (s *MergeTupleStmt) stmt() {}
func (s *MergeFieldStmt) stmt() {}
func (s *AssignStmt) stmt()     {}
func (s *SendStmt) stmt()       {}
func (s *DeleteStmt) stmt()     {}
func (s *ReplyStmt) stmt()      {}

// Pos implements Stmt.
func (s *MergeTupleStmt) Pos() Pos { return s.At }

// Pos implements Stmt.
func (s *MergeFieldStmt) Pos() Pos { return s.At }

// Pos implements Stmt.
func (s *AssignStmt) Pos() Pos { return s.At }

// Pos implements Stmt.
func (s *SendStmt) Pos() Pos { return s.At }

// Pos implements Stmt.
func (s *DeleteStmt) Pos() Pos { return s.At }

// Pos implements Stmt.
func (s *ReplyStmt) Pos() Pos { return s.At }

func exprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

func (s *MergeTupleStmt) String() string {
	return "merge " + s.Table + "(" + exprList(s.Args) + ")"
}

func (s *MergeFieldStmt) String() string {
	return fmt.Sprintf("merge %s[%s].%s <- %s", s.Table, s.Key, s.Field, s.Value)
}

func (s *AssignStmt) String() string { return s.Var + " := " + s.Value.String() }

func (s *SendStmt) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	out := "send " + s.Mailbox
	if s.Dest != "" {
		out += "@" + s.Dest
	}
	out += "(" + strings.Join(parts, ", ") + ")"
	if len(s.Body) > 0 {
		out += " :- " + formatBody(s.Body, s.Filters)
	}
	return out
}

func (s *DeleteStmt) String() string {
	return "delete " + s.Table + "(" + exprList(s.Args) + ")"
}

func (s *ReplyStmt) String() string { return "reply " + s.Value.String() }

// AvailSpec configures the availability facet for one handler (§6).
type AvailSpec struct {
	Domain   string // "vm", "rack", "dc", "az"
	Failures int    // tolerate f failures across that domain
}

// TargetSpec configures the target facet for one handler (§9).
type TargetSpec struct {
	LatencyMs float64 // 0 = unconstrained
	Cost      float64 // per-call budget; 0 = unconstrained
	Processor string  // "", "cpu", "gpu"
}

// Program is a parsed HydroLogic compilation unit.
type Program struct {
	Tables   []*TableDecl
	Vars     []*VarDecl
	Queries  []*QueryRule
	Handlers []*HandlerDecl
	UDFs     []*UDFDecl

	// Facet blocks, keyed by handler name; "default" applies to all
	// handlers without an explicit entry.
	Availability map[string]AvailSpec
	Targets      map[string]TargetSpec
}

// Table returns the named table declaration, or nil.
func (p *Program) Table(name string) *TableDecl {
	for _, t := range p.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Var returns the named variable declaration, or nil.
func (p *Program) Var(name string) *VarDecl {
	for _, v := range p.Vars {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// Handler returns the named handler, or nil.
func (p *Program) Handler(name string) *HandlerDecl {
	for _, h := range p.Handlers {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// UDF returns the named UDF declaration, or nil.
func (p *Program) UDF(name string) *UDFDecl {
	for _, u := range p.UDFs {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// QueryNames returns distinct query names in declaration order.
func (p *Program) QueryNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, q := range p.Queries {
		if !seen[q.Name] {
			seen[q.Name] = true
			names = append(names, q.Name)
		}
	}
	return names
}

// AvailabilityFor resolves the effective availability spec for a handler,
// falling back to the default and then to a single-failure VM domain.
func (p *Program) AvailabilityFor(handler string) AvailSpec {
	if s, ok := p.Availability[handler]; ok {
		return s
	}
	if s, ok := p.Availability["default"]; ok {
		return s
	}
	return AvailSpec{Domain: "vm", Failures: 1}
}

// TargetFor resolves the effective target spec for a handler: each field
// the handler's line leaves unset (zero) comes from the default line.
func (p *Program) TargetFor(handler string) TargetSpec {
	s := p.Targets["default"]
	h := p.Targets[handler]
	if h.LatencyMs != 0 {
		s.LatencyMs = h.LatencyMs
	}
	if h.Cost != 0 {
		s.Cost = h.Cost
	}
	if h.Processor != "" {
		s.Processor = h.Processor
	}
	return s
}
