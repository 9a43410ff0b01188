package hydrolysis

import (
	"fmt"
	"slices"

	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/transducer"
)

// Instantiate builds a runnable transducer for the compiled program: it
// registers table schemas (each keyed table with its one Join, tableSchema),
// scalar variables, the query program, one handler closure per `on`
// declaration, and, beside each handler that needs coordination, the
// verdict that its messages tick alone. The returned runtime is the
// "single node" of §3.1; distributed deployments host several of these
// via the cluster package.
//
// The query program is maintained across ticks: the fixpoint is kept inside
// the runtime database and folded forward from each tick's realized effects
// (inserts through semi-naive propagation, deletions through DRed or
// per-component recompute). That holds for every query,
// read by a handler or not — an unread one costs O(delta) per tick and is
// visible through Runtime.Table — and for a program with no query at all,
// whose empty rule set is still a maintained program, so any instantiated
// runtime can be made durable or fanned out to shards. Nothing is planned
// here: every rule-driven send runs the plan CompileProgram made, shared by
// every instance.
func (c *Compiled) Instantiate(name string, seed int64) (*transducer.Runtime, error) {
	rt := transducer.New(name, seed)
	for _, t := range c.Program.Tables {
		rt.RegisterTable(tableSchema(t))
	}
	for i, v := range c.Program.Vars {
		rt.RegisterVar(v.Name, c.vars[i])
	}
	if err := rt.RegisterQueriesIncremental(c.Queries); err != nil {
		return nil, err
	}
	for _, h := range c.Program.Handlers {
		rt.RegisterHandler(h.Name, c.compileHandler(h))
		if c.serial[h.Name] {
			rt.RegisterSerial(h.Name)
		}
	}
	return rt, nil
}

func zeroValue(t hlang.Type) any {
	switch t.Kind {
	case hlang.TInt, hlang.TMaxInt:
		return int64(0)
	case hlang.TFloat:
		return float64(0)
	case hlang.TString:
		return ""
	case hlang.TBool:
		return false
	}
	return nil
}

// tableSchema is t's schema with its one join, applied column by column: a
// bool column joins with or, a max<int> column with max, the key stays,
// and any other column keeps its first non-zero value. A new key joins
// into the zero row, the bottom of every column, so a column no merge has
// raised reads as a missing row does.
func tableSchema(t *hlang.TableDecl) transducer.TableSchema {
	s := transducer.TableSchema{Name: t.Name, Arity: t.Arity()}
	for _, k := range t.Key {
		s.Key = append(s.Key, t.FieldIndex(k))
	}
	zero := make(datalog.Tuple, len(t.Fields))
	for i, f := range t.Fields {
		zero[i] = zeroValue(f.Type)
	}
	s.Join = func(old, staged datalog.Tuple) datalog.Tuple {
		if old == nil {
			old = zero
		}
		for i, f := range t.Fields {
			switch a, b := old[i], staged[i]; {
			case slices.Contains(s.Key, i):
			case f.Type.Kind == hlang.TBool:
				staged[i] = a.(bool) || b.(bool)
			case f.Type.Kind == hlang.TMaxInt:
				staged[i] = max(a.(int64), b.(int64))
			case a != zero[i]:
				staged[i] = a
			}
		}
		return staged
	}
	return s
}

// env is an expression-evaluation environment for one handler invocation.
type env struct {
	c      *Compiled
	tx     *transducer.Tx
	params map[string]any
}

// compileHandler returns h's handler closure. A field merge or read names a
// single-column key (hlang.Check refuses any other), and a rule-driven send
// runs its plan from c.sends.
func (c *Compiled) compileHandler(h *hlang.HandlerDecl) transducer.Handler {
	return func(tx *transducer.Tx, msg transducer.Message) {
		// A payload shorter than the parameter list, or with a value not of
		// its parameter's type, aborts before any statement runs: a missing
		// parameter is not a free variable, and a mistyped one would be
		// stored in a typed table.
		if len(msg.Payload) < len(h.Params) {
			tx.Abort()
			return
		}
		params := map[string]any{}
		for i, p := range h.Params {
			v, ok := typed(p.Type, msg.Payload[i])
			if !ok {
				tx.Abort()
				return
			}
			params[p.Name] = v
		}
		e := &env{c: c, tx: tx, params: params}
		// require(...) invariants abort the whole invocation when false, and
		// so does a statement that fails. An aborted invocation sends no
		// reply: the runtime truncates everything it staged, replies
		// included (transducer.Runtime.Tick), so the requester's response
		// resolves nil and the refusal shows only in Stats().Aborted.
		for _, r := range h.Requires {
			v, err := e.eval(r)
			if err != nil || v != true {
				tx.Abort()
				return
			}
		}
		for _, s := range h.Body {
			if err := e.exec(s); err != nil {
				tx.Abort()
				return
			}
		}
	}
}

func (e *env) exec(s hlang.Stmt) error {
	switch st := s.(type) {
	case *hlang.MergeTupleStmt:
		return e.merge(e.c.Program.Table(st.Table), st.Args)
	case *hlang.MergeFieldStmt:
		t := e.c.Program.Table(st.Table)
		args := make([]hlang.Expr, t.Arity())
		args[t.FieldIndex(t.Key[0])], args[t.FieldIndex(st.Field)] = st.Key, st.Value
		return e.merge(t, args)
	case *hlang.AssignStmt:
		v, err := e.evalAs(st.Value, e.c.Program.Var(st.Var).Type)
		if err != nil {
			return err
		}
		e.tx.Assign(st.Var, v)
	case *hlang.DeleteStmt:
		t := e.c.Program.Table(st.Table)
		// Delete by key: find matching rows in the snapshot and stage
		// deletions, each key value typed against its key column.
		keyIdx := make([]int, len(st.Args))
		keyVals := make([]any, len(st.Args))
		for i, a := range st.Args {
			keyIdx[i] = t.FieldIndex(t.Key[i])
			v, err := e.evalAs(a, t.Fields[keyIdx[i]].Type)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		for _, row := range e.tx.QueryWhere(st.Table, keyIdx, keyVals) {
			e.tx.Delete(st.Table, row)
		}
	case *hlang.SendStmt:
		return e.execSend(st)
	case *hlang.ReplyStmt:
		v, err := e.eval(st.Value)
		if err != nil {
			return err
		}
		e.tx.Reply(v)
	default:
		return fmt.Errorf("hydrolysis: unknown statement %T", s)
	}
	return nil
}

// merge builds one row of table t from args, a column's zero value where
// its arg is nil, types every value against its column (evalAs), and stages
// it: t(...) names every column, and a field merge t[k].f <- v the key and
// f, so it is the zero row with k and v filled in.
func (e *env) merge(t *hlang.TableDecl, args []hlang.Expr) error {
	row := make(datalog.Tuple, len(args))
	for i, f := range t.Fields {
		row[i] = zeroValue(f.Type)
		if args[i] != nil {
			var err error
			if row[i], err = e.evalAs(args[i], f.Type); err != nil {
				return fmt.Errorf("merge into %s.%s: %w", t.Name, f.Name, err)
			}
		}
	}
	e.tx.MergeTuple(t.Name, row)
	return nil
}

// evalAs evaluates x as a value of type t for a column, a key or a variable,
// typed as parameters are: a value not of t fails the invocation.
func (e *env) evalAs(x hlang.Expr, t hlang.Type) (any, error) {
	v, err := e.eval(x)
	if err != nil {
		return nil, err
	}
	tv, ok := typed(t, v)
	if !ok {
		return nil, fmt.Errorf("%v is not of type %s", v, t)
	}
	return tv, nil
}

// execSend handles both plain sends and rule-driven sends; the latter run
// the plan CompileProgram prepared. An addressed send goes to mailbox
// "node/box" of the node its destination names, the runtime's remote
// routing.
func (e *env) execSend(st *hlang.SendStmt) error {
	if len(st.Body) == 0 {
		row := make(datalog.Tuple, len(st.Args))
		for i, a := range st.Args {
			v, err := e.queryArgValue(a)
			if err != nil {
				return err
			}
			row[i] = v
		}
		box := st.Mailbox
		if st.Dest != "" {
			var err error
			if box, err = address(e.params[st.Dest], box); err != nil {
				return err
			}
		}
		e.tx.Send(box, row)
		return nil
	}
	rows, err := e.tx.DerivePrepared(e.c.sends[st], e.params)
	if err != nil {
		return err
	}
	if st.Dest == "" {
		e.tx.SendAll(st.Mailbox, rows)
		return nil
	}
	for i := range rows.Len() {
		row := rows.Row(i)
		box, err := address(row[0], st.Mailbox)
		if err != nil {
			return err
		}
		e.tx.Send(box, row[1:])
	}
	return nil
}

// address names mailbox box on node: the runtime routes "node/box" to that
// node, or to its own mailbox when node is the runtime itself.
func address(node any, box string) (string, error) {
	name, ok := node.(string)
	if !ok {
		return "", fmt.Errorf("send destination %v is not a node name", node)
	}
	return name + "/" + box, nil
}

func (e *env) queryArgValue(a hlang.QueryArg) (any, error) {
	if a.Var != "" {
		if v, ok := e.params[a.Var]; ok {
			return v, nil
		}
		return e.eval(&hlang.VarRef{Name: a.Var})
	}
	return constExpr(a.Const)
}

// eval evaluates a handler expression against the snapshot.
func (e *env) eval(x hlang.Expr) (any, error) {
	switch v := x.(type) {
	case *hlang.IntLit:
		return v.V, nil
	case *hlang.FloatLit:
		return v.V, nil
	case *hlang.StringLit:
		return v.V, nil
	case *hlang.BoolLit:
		return v.V, nil
	case *hlang.VarRef:
		if p, ok := e.params[v.Name]; ok {
			return p, nil
		}
		if e.c.Program.Var(v.Name) != nil {
			return e.tx.ReadVar(v.Name), nil
		}
		return nil, fmt.Errorf("unknown name %q", v.Name)
	case *hlang.FieldRef:
		t := e.c.Program.Table(v.Table)
		k := t.FieldIndex(t.Key[0])
		key, err := e.evalAs(v.Key, t.Fields[k].Type)
		if err != nil {
			return nil, err
		}
		rows := e.tx.QueryWhere(v.Table, []int{k}, []any{key})
		if len(rows) == 0 {
			return zeroValue(t.Fields[t.FieldIndex(v.Field)].Type), nil
		}
		return rows[0][t.FieldIndex(v.Field)], nil
	case *hlang.CallExpr:
		fn := e.c.UDFs[v.Func]
		args := make([]any, len(v.Args))
		for i, a := range v.Args {
			val, err := e.eval(a)
			if err != nil {
				return nil, err
			}
			args[i] = val
		}
		// The result enters tables as the declared type, as a parameter
		// does; a result not of that type fails the invocation.
		want := e.c.Program.UDF(v.Func).Result
		res, ok := typed(want, fn(args))
		if !ok {
			return nil, fmt.Errorf("udf %s returned a value not of type %s", v.Func, want)
		}
		return res, nil
	case *hlang.BinExpr:
		return e.evalBin(v)
	}
	return nil, fmt.Errorf("unsupported expression %T", x)
}

func (e *env) evalBin(b *hlang.BinExpr) (any, error) {
	l, err := e.eval(b.L)
	if err != nil {
		return nil, err
	}
	// Short-circuit boolean operators.
	if b.Op == "&&" || b.Op == "||" {
		lb, ok := l.(bool)
		if !ok {
			return nil, fmt.Errorf("non-boolean operand for %s", b.Op)
		}
		if b.Op == "&&" && !lb {
			return false, nil
		}
		if b.Op == "||" && lb {
			return true, nil
		}
		r, err := e.eval(b.R)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(bool)
		if !ok {
			return nil, fmt.Errorf("non-boolean operand for %s", b.Op)
		}
		return rb, nil
	}
	r, err := e.eval(b.R)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "+", "-", "*", "/":
		return arith(b.Op, l, r)
	case "==", "!=", "<", "<=", ">", ">=":
		return datalog.Compare(datalog.CmpOp(b.Op), l, r), nil
	}
	return nil, fmt.Errorf("unknown operator %q", b.Op)
}

// typed converts v to HydroLogic type t's Go kind — int64 for int and
// max<int>, float64 for float — and reports whether v has that type in a
// kind the expression evaluator reads: an integer kind (datalog.ToInt) for
// int, an integer kind or float64 for float. A value already of its kind
// is returned as it is, not boxed again.
func typed(t hlang.Type, v any) (any, bool) {
	switch t.Kind {
	case hlang.TInt, hlang.TMaxInt:
		if i, ok := v.(int); ok {
			return int64(i), true
		}
		_, ok := v.(int64)
		return v, ok
	case hlang.TFloat:
		if i, ok := datalog.ToInt(v); ok {
			return float64(i), true
		}
		_, ok := v.(float64)
		return v, ok
	case hlang.TString:
		_, ok := v.(string)
		return v, ok
	case hlang.TBool:
		_, ok := v.(bool)
		return v, ok
	}
	return nil, false
}

// arith computes a handler's arithmetic in datalog's number model: two
// integer operands in int64 (as datalog.Compare compares them), any other
// numeric pair in float64, and + on two strings concatenates.
func arith(op string, l, r any) (any, error) {
	li, lok := datalog.ToInt(l)
	ri, rok := datalog.ToInt(r)
	if lok && rok {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		}
		if ri == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		return li / ri, nil // truncates toward zero
	}
	lf, lok := datalog.ToFloat(l)
	rf, rok := datalog.ToFloat(r)
	if !lok || !rok {
		if op == "+" {
			ls, lok := l.(string)
			rs, rok := r.(string)
			if lok && rok {
				return ls + rs, nil
			}
		}
		return nil, fmt.Errorf("non-numeric operands for %s: %T, %T", op, l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	}
	if rf == 0 {
		return nil, fmt.Errorf("division by zero")
	}
	return lf / rf, nil
}
