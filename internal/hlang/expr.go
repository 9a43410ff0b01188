package hlang

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a HydroLogic expression.
type Expr interface {
	expr()
	String() string
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// FloatLit is a floating-point literal.
type FloatLit struct{ V float64 }

// StringLit is a string literal.
type StringLit struct{ V string }

// BoolLit is true/false.
type BoolLit struct{ V bool }

// VarRef names a handler parameter or program variable.
type VarRef struct{ Name string }

// FieldRef reads a column of a keyed table row: people[pid].covid.
type FieldRef struct {
	Table string
	Key   Expr
	Field string
}

// BinExpr is a binary operation. Ops: + - * / and comparisons == != < <= >
// >= plus && and ||.
type BinExpr struct {
	Op   string
	L, R Expr
}

// CallExpr invokes a declared UDF.
type CallExpr struct {
	Func string
	Args []Expr
}

func (*IntLit) expr()    {}
func (*FloatLit) expr()  {}
func (*StringLit) expr() {}
func (*BoolLit) expr()   {}
func (*VarRef) expr()    {}
func (*FieldRef) expr()  {}
func (*BinExpr) expr()   {}
func (*CallExpr) expr()  {}

func (e *IntLit) String() string { return strconv.FormatInt(e.V, 10) }
func (e *FloatLit) String() string {
	s := strconv.FormatFloat(e.V, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0" // still a float when reparsed
	}
	return s
}

// String quotes with the lexer's escapes: \" \\ \n \t, every other byte raw.
func (e *StringLit) String() string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(e.V); i++ {
		switch c := e.V[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
func (e *BoolLit) String() string { return strconv.FormatBool(e.V) }
func (e *VarRef) String() string  { return e.Name }
func (e *FieldRef) String() string {
	return fmt.Sprintf("%s[%s].%s", e.Table, e.Key, e.Field)
}
func (e *BinExpr) String() string { return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")" }
func (e *CallExpr) String() string {
	return e.Func + "(" + exprList(e.Args) + ")"
}

// WalkExpr visits e and all sub-expressions depth-first.
func WalkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *FieldRef:
		WalkExpr(x.Key, visit)
	case *BinExpr:
		WalkExpr(x.L, visit)
		WalkExpr(x.R, visit)
	case *CallExpr:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	}
}
