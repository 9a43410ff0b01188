package hydrolysis

import (
	"fmt"
	"sort"

	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/transducer"
)

// Instantiate builds a runnable transducer for the compiled program: it
// registers table schemas (with lattice merges for lattice-typed columns),
// scalar variables, the query program, and one handler closure per `on`
// declaration. The returned runtime is the "single node" of §3.1;
// distributed deployments host several of these via the cluster package.
//
// The query program is maintained across ticks: the fixpoint is kept inside
// the runtime database and folded forward from each tick's realized effects
// (inserts through counted derivations or semi-naive propagation, deletions
// through DRed or per-component recompute). That holds for every query,
// read by a handler or not — an unread one costs O(delta) per tick and is
// visible through Runtime.Table — and for a program with no query at all,
// whose empty rule set is still a maintained program, so any instantiated
// runtime can be made durable or fanned out to shards. Everything a handler
// needs planned (a rule-driven send) is planned here: a send the planner
// refuses fails Instantiate, not the first message.
func (c *Compiled) Instantiate(name string, seed int64) (*transducer.Runtime, error) {
	rt := transducer.New(name, seed)
	for _, t := range c.Program.Tables {
		schema, err := tableSchema(t)
		if err != nil {
			return nil, err
		}
		rt.RegisterTable(schema)
	}
	for _, v := range c.Program.Vars {
		var init any
		if v.Init != nil {
			val, err := constExpr(v.Init)
			if err != nil {
				return nil, fmt.Errorf("hydrolysis: var %s initializer: %w", v.Name, err)
			}
			init = val
		} else {
			init = zeroValue(v.Type)
		}
		rt.RegisterVar(v.Name, init)
	}
	if err := rt.RegisterQueriesIncremental(c.Queries); err != nil {
		return nil, err
	}
	for _, h := range c.Program.Handlers {
		handler, err := c.compileHandler(h)
		if err != nil {
			return nil, err
		}
		rt.RegisterHandler(h.Name, handler)
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

func tableSchema(t *hlang.TableDecl) (transducer.TableSchema, error) {
	s := transducer.TableSchema{
		Name:         t.Name,
		Arity:        t.Arity(),
		LatticeMerge: map[int]func(a, b any) any{},
	}
	for _, k := range t.Key {
		s.Key = append(s.Key, t.FieldIndex(k))
	}
	for i, f := range t.Fields {
		switch f.Type.Kind {
		case hlang.TBool:
			s.LatticeMerge[i] = func(a, b any) any { return a.(bool) || b.(bool) }
		case hlang.TMaxInt:
			s.LatticeMerge[i] = func(a, b any) any {
				x, y := toInt64(a), toInt64(b)
				if x > y {
					return x
				}
				return y
			}
		}
	}
	fields := t.Fields
	s.Zero = func(key []any) datalog.Tuple {
		row := make(datalog.Tuple, len(fields))
		for i, f := range fields {
			row[i] = zeroValue(f.Type)
		}
		for ki, idx := range s.Key {
			row[idx] = key[ki]
		}
		return row
	}
	return s, nil
}

func toInt64(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	return 0
}

// env is an expression-evaluation environment for one handler invocation.
type env struct {
	c         *Compiled
	tx        *transducer.Tx
	params    map[string]any
	sendPlans map[*hlang.SendStmt]*datalog.PreparedRule
}

// prepareSend compiles a rule-driven send statement once per handler: the
// datalog rule is planned with the handler's parameters declared as
// pre-bound variables (bound at Derive time, not substituted as constants
// per message), so per-message work is pure plan execution. An addressed
// send's rule heads its rows with the destination node.
func prepareSend(st *hlang.SendStmt, paramSet map[string]bool) (*datalog.PreparedRule, error) {
	rule := datalog.Rule{Head: datalog.Atom{Pred: "__send"}}
	usedParams := map[string]bool{}
	wildcards := 0
	bindArg := func(a hlang.QueryArg) (datalog.Term, error) {
		if a.Var != "" && paramSet[a.Var] {
			usedParams[a.Var] = true
		}
		return argToTerm(a, &wildcards)
	}
	args := st.Args
	if st.Dest != "" {
		args = append([]hlang.QueryArg{{Var: st.Dest}}, args...)
	}
	for _, a := range args {
		t, err := bindArg(a)
		if err != nil {
			return nil, err
		}
		rule.Head.Args = append(rule.Head.Args, t)
	}
	for _, b := range st.Body {
		lit := datalog.Literal{Atom: datalog.Atom{Pred: b.Pred}, Negated: b.Negated}
		for _, a := range b.Args {
			t, err := bindArg(a)
			if err != nil {
				return nil, err
			}
			lit.Args = append(lit.Args, t)
		}
		rule.Body = append(rule.Body, lit)
	}
	for _, f := range st.Filters {
		df, err := filterToDatalog(f)
		if err != nil {
			return nil, err
		}
		for _, term := range []datalog.Term{df.L, df.R} {
			if term.IsVar() && paramSet[term.Var] {
				usedParams[term.Var] = true
			}
		}
		rule.Filters = append(rule.Filters, df)
	}
	var bound []string
	for p := range usedParams {
		bound = append(bound, p)
	}
	sort.Strings(bound)
	return datalog.PrepareRule(rule, bound...)
}

func (c *Compiled) compileHandler(h *hlang.HandlerDecl) (transducer.Handler, error) {
	// Compile rule-driven sends once per handler.
	paramSet := map[string]bool{}
	for _, p := range h.Params {
		paramSet[p.Name] = true
	}
	sendPlans := map[*hlang.SendStmt]*datalog.PreparedRule{}
	for _, s := range h.Body {
		if st, ok := s.(*hlang.SendStmt); ok && len(st.Body) > 0 {
			pr, err := prepareSend(st, paramSet)
			if err != nil {
				return nil, fmt.Errorf("hydrolysis: handler %s: send %s: %w", h.Name, st.Mailbox, err)
			}
			sendPlans[st] = pr
		}
	}

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
		e := &env{c: c, tx: tx, params: params, sendPlans: sendPlans}
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
	}, nil
}

func (e *env) exec(s hlang.Stmt) error {
	switch st := s.(type) {
	case *hlang.MergeTupleStmt:
		row := make(datalog.Tuple, len(st.Args))
		for i, a := range st.Args {
			v, err := e.eval(a)
			if err != nil {
				return err
			}
			row[i] = v
		}
		e.tx.MergeTuple(st.Table, row)
	case *hlang.MergeFieldStmt:
		t := e.c.Program.Table(st.Table)
		keyVal, err := e.eval(st.Key)
		if err != nil {
			return err
		}
		val, err := e.eval(st.Value)
		if err != nil {
			return err
		}
		// Single-column keys use the key expression directly; composite
		// keys are not addressable by a single [expr].
		if len(t.Key) != 1 {
			return fmt.Errorf("field merge on composite-key table %s", st.Table)
		}
		e.tx.MergeField(st.Table, []any{keyVal}, t.FieldIndex(st.Field), val)
	case *hlang.AssignStmt:
		v, err := e.eval(st.Value)
		if err != nil {
			return err
		}
		e.tx.Assign(st.Var, v)
	case *hlang.DeleteStmt:
		t := e.c.Program.Table(st.Table)
		// Delete by key: find matching rows in the snapshot and stage
		// deletions.
		keyVals := make([]any, len(st.Args))
		for i, a := range st.Args {
			v, err := e.eval(a)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		var keyIdx []int
		for _, k := range t.Key {
			keyIdx = append(keyIdx, t.FieldIndex(k))
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

// execSend handles both plain sends and rule-driven sends; the latter run
// the plan compileHandler prepared. An addressed send goes to mailbox
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
	rows, err := e.tx.DerivePrepared(e.sendPlans[st], e.params)
	if err != nil {
		return err
	}
	if st.Dest == "" {
		e.tx.SendAll(st.Mailbox, rows)
		return nil
	}
	for _, row := range rows {
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
		if len(t.Key) != 1 {
			return nil, fmt.Errorf("field read on composite-key table %s", v.Table)
		}
		key, err := e.eval(v.Key)
		if err != nil {
			return nil, err
		}
		rows := e.tx.QueryWhere(v.Table, []int{t.FieldIndex(t.Key[0])}, []any{key})
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
		return fn(args), nil
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

// integer reads v as an int64 when it is one of the integer kinds handler
// values take. Two integer operands are computed in int64 (and compared in
// int64 by datalog.Compare): a float64 holds integers exactly only up to
// 2^53.
func integer(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}

// numeric reads v as a float64 when it is any numeric kind: the path for
// mixed integer/float operands.
func numeric(v any) (float64, bool) {
	if x, ok := v.(float64); ok {
		return x, true
	}
	i, ok := integer(v)
	return float64(i), ok
}

// typed converts v to HydroLogic type t's Go kind — int64 for int and
// max<int>, float64 for float — and reports whether v has that type in a
// kind the expression evaluator reads: an integer kind for int, an integer
// kind or float64 for float.
func typed(t hlang.Type, v any) (any, bool) {
	switch t.Kind {
	case hlang.TInt, hlang.TMaxInt:
		if i, ok := integer(v); ok {
			return i, true
		}
	case hlang.TFloat:
		if f, ok := numeric(v); ok {
			return f, true
		}
	case hlang.TString:
		_, ok := v.(string)
		return v, ok
	case hlang.TBool:
		_, ok := v.(bool)
		return v, ok
	}
	return nil, false
}

func arith(op string, l, r any) (any, error) {
	li, lok := integer(l)
	ri, rok := integer(r)
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
	lf, lok := numeric(l)
	rf, rok := numeric(r)
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
