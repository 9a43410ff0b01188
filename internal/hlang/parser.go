package hlang

// Parse parses a HydroLogic source file into a Program and runs semantic
// checks (name resolution, typing, facet validation).
func Parse(src string) (*Program, error) {
	p, err := ParseOnly(src)
	if err != nil {
		return nil, err
	}
	if err := Check(p); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseOnly parses without semantic checking (used by tests that exercise
// the checker separately).
func ParseOnly(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	pr := &parser{toks: toks}
	return pr.program()
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// skipNewlines consumes any run of newline tokens.
func (p *parser) skipNewlines() {
	for p.cur().kind == tokNewline {
		p.next()
	}
}

func (p *parser) expectPunct(s string) (token, error) {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return t, errAt(t.pos, "expected %q, found %s", s, t)
	}
	return p.next(), nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return t, errAt(t.pos, "expected identifier, found %s", t)
	}
	return p.next(), nil
}

func (p *parser) atPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) program() (*Program, error) {
	prog := &Program{
		Availability: map[string]AvailSpec{},
		Targets:      map[string]TargetSpec{},
	}
	for {
		p.skipNewlines()
		t := p.cur()
		if t.kind == tokEOF {
			return prog, nil
		}
		if t.kind != tokIdent {
			return nil, errAt(t.pos, "expected declaration, found %s", t)
		}
		switch t.text {
		case "table":
			d, err := p.tableDecl()
			if err != nil {
				return nil, err
			}
			prog.Tables = append(prog.Tables, d)
		case "var":
			d, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			prog.Vars = append(prog.Vars, d)
		case "query":
			d, err := p.queryRule()
			if err != nil {
				return nil, err
			}
			prog.Queries = append(prog.Queries, d)
		case "on":
			d, err := p.handlerDecl()
			if err != nil {
				return nil, err
			}
			prog.Handlers = append(prog.Handlers, d)
		case "udf":
			d, err := p.udfDecl()
			if err != nil {
				return nil, err
			}
			prog.UDFs = append(prog.UDFs, d)
		case "availability":
			if err := p.availBlock(prog); err != nil {
				return nil, err
			}
		case "target":
			if err := p.targetBlock(prog); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(t.pos, "unknown declaration %q", t.text)
		}
	}
}

func (p *parser) parseType() (Type, error) {
	t, err := p.expectIdent()
	if err != nil {
		return Type{}, err
	}
	switch t.text {
	case "int":
		return Type{Kind: TInt}, nil
	case "float":
		return Type{Kind: TFloat}, nil
	case "string":
		return Type{Kind: TString}, nil
	case "bool":
		return Type{Kind: TBool}, nil
	case "max":
		if _, err := p.expectPunct("<"); err != nil {
			return Type{}, err
		}
		inner, err := p.expectIdent()
		if err != nil {
			return Type{}, err
		}
		if inner.text != "int" {
			return Type{}, errAt(inner.pos, "max<> supports only int")
		}
		if _, err := p.expectPunct(">"); err != nil {
			return Type{}, err
		}
		return Type{Kind: TMaxInt}, nil
	case "set":
		return Type{}, errAt(t.pos, "set<...> is not a column type: declare a grow-only set as a table keyed on all of its columns")
	}
	return Type{}, errAt(t.pos, "unknown type %q", t.text)
}

func (p *parser) fieldList(close string) ([]Field, error) {
	var fields []Field
	for !p.atPunct(close) {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fields = append(fields, Field{Name: name.text, Type: ty})
		if p.atPunct(",") {
			p.next()
		}
	}
	p.next() // consume close
	return fields, nil
}

func (p *parser) tableDecl() (*TableDecl, error) {
	kw := p.next() // "table"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fields, err := p.fieldList(")")
	if err != nil {
		return nil, err
	}
	d := &TableDecl{Pos: kw.pos, Name: name.text, Fields: fields}
	for p.cur().kind == tokIdent {
		opt := p.next()
		switch opt.text {
		case "key":
			if _, err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for !p.atPunct(")") {
				k, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				d.Key = append(d.Key, k.text)
				if p.atPunct(",") {
					p.next()
				}
			}
			p.next()
		case "partition":
			if _, err := p.expectPunct("("); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			d.Partition = col.text
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(opt.pos, "unknown table option %q", opt.text)
		}
	}
	if len(d.Key) == 0 && len(d.Fields) > 0 {
		d.Key = []string{d.Fields[0].Name}
	}
	return d, nil
}

func (p *parser) varDecl() (*VarDecl, error) {
	kw := p.next() // "var"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Pos: kw.pos, Name: name.text, Type: ty}
	if p.atPunct("=") {
		p.next()
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

func (p *parser) queryArg() (QueryArg, error) {
	t := p.cur()
	switch {
	case t.kind == tokIdent && t.text == "_":
		p.next()
		return QueryArg{Wildcard: true}, nil
	case t.kind == tokIdent && (t.text == "true" || t.text == "false"):
		p.next()
		return QueryArg{Const: &BoolLit{V: t.text == "true"}}, nil
	case t.kind == tokIdent:
		p.next()
		return QueryArg{Var: t.text}, nil
	case t.kind == tokInt:
		p.next()
		return QueryArg{Const: &IntLit{V: t.i}}, nil
	case t.kind == tokFloat:
		p.next()
		return QueryArg{Const: &FloatLit{V: t.f}}, nil
	case t.kind == tokString:
		p.next()
		return QueryArg{Const: &StringLit{V: t.s}}, nil
	}
	return QueryArg{}, errAt(t.pos, "expected query argument, found %s", t)
}

func (p *parser) queryArgs() ([]QueryArg, error) {
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []QueryArg
	for !p.atPunct(")") {
		a, err := p.queryArg()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.atPunct(",") {
			p.next()
		}
	}
	p.next()
	return args, nil
}

// bodyAtomOrFilter parses one conjunct: either a (possibly negated)
// predicate atom or a filter expression.
func (p *parser) bodyConjunct(atoms *[]BodyAtom, filters *[]Expr) error {
	t := p.cur()
	if p.atPunct("!") {
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		args, err := p.queryArgs()
		if err != nil {
			return err
		}
		*atoms = append(*atoms, BodyAtom{Pos: t.pos, Pred: name.text, Args: args, Negated: true})
		return nil
	}
	// An atom looks like ident( ; anything else is a filter expression.
	if t.kind == tokIdent && p.peek().kind == tokPunct && p.peek().text == "(" &&
		t.text != "true" && t.text != "false" {
		name := p.next()
		args, err := p.queryArgs()
		if err != nil {
			return err
		}
		*atoms = append(*atoms, BodyAtom{Pos: t.pos, Pred: name.text, Args: args})
		return nil
	}
	e, err := p.expr()
	if err != nil {
		return err
	}
	*filters = append(*filters, e)
	return nil
}

func (p *parser) ruleBody() ([]BodyAtom, []Expr, error) {
	var atoms []BodyAtom
	var filters []Expr
	for {
		if err := p.bodyConjunct(&atoms, &filters); err != nil {
			return nil, nil, err
		}
		if p.atPunct(",") {
			p.next()
			// allow line continuation after comma
			p.skipNewlines()
			continue
		}
		break
	}
	return atoms, filters, nil
}

func (p *parser) queryRule() (*QueryRule, error) {
	kw := p.next() // "query"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q := &QueryRule{Pos: kw.pos, Name: name.text}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	aggAt := -1
	for !p.atPunct(")") {
		// Aggregate head argument: count<v>, sum<v>, max<v>, min<v>.
		t := p.cur()
		if t.kind == tokIdent && (t.text == "count" || t.text == "sum" || t.text == "max" || t.text == "min") &&
			p.peek().kind == tokPunct && p.peek().text == "<" {
			agg := p.next().text
			p.next() // <
			v, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(">"); err != nil {
				return nil, err
			}
			if q.Agg != "" {
				return nil, errAt(t.pos, "multiple aggregates in one query head")
			}
			q.Agg, q.AggVar, aggAt = agg, v.text, len(q.Head)
			q.Head = append(q.Head, QueryArg{Var: v.text})
		} else {
			a, err := p.queryArg()
			if err != nil {
				return nil, err
			}
			q.Head = append(q.Head, a)
		}
		if p.atPunct(",") {
			p.next()
		}
	}
	if q.Agg != "" && aggAt != len(q.Head)-1 {
		return nil, errAt(p.cur().pos, "aggregate %s<%s> must be the last head argument", q.Agg, q.AggVar)
	}
	p.next() // )
	if _, err := p.expectPunct(":-"); err != nil {
		return nil, err
	}
	p.skipNewlines()
	atoms, filters, err := p.ruleBody()
	if err != nil {
		return nil, err
	}
	q.Body, q.Filters = atoms, filters
	return q, nil
}

func (p *parser) udfDecl() (*UDFDecl, error) {
	kw := p.next() // "udf"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	d := &UDFDecl{Pos: kw.pos, Name: name.text}
	for !p.atPunct(")") {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		d.Params = append(d.Params, ty)
		if p.atPunct(",") {
			p.next()
		}
	}
	p.next()
	if _, err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	res, err := p.parseType()
	if err != nil {
		return nil, err
	}
	d.Result = res
	return d, nil
}

func (p *parser) handlerDecl() (*HandlerDecl, error) {
	kw := p.next() // "on"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	params, err := p.fieldList(")")
	if err != nil {
		return nil, err
	}
	h := &HandlerDecl{Pos: kw.pos, Name: name.text, Params: params}
	for p.cur().kind == tokIdent {
		opt := p.next()
		switch opt.text {
		case "consistency":
			if _, err := p.expectPunct("("); err != nil {
				return nil, err
			}
			lvl, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			switch ConsistencyLevel(lvl.text) {
			case Eventual, Causal, Serializable:
				h.Consistency = ConsistencyLevel(lvl.text)
			default:
				return nil, errAt(lvl.pos, "unknown consistency level %q", lvl.text)
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		case "require":
			if _, err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			h.Requires = append(h.Requires, e)
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(opt.pos, "unknown handler option %q", opt.text)
		}
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for {
		p.skipNewlines()
		if p.atPunct("}") {
			p.next()
			return h, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		h.Body = append(h.Body, s)
	}
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, errAt(t.pos, "expected statement, found %s", t)
	}
	switch t.text {
	case "merge":
		p.next()
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.atPunct("[") {
			p.next()
			key, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("."); err != nil {
				return nil, err
			}
			field, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("<-"); err != nil {
				return nil, err
			}
			val, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &MergeFieldStmt{At: t.pos, Table: table.text, Key: key, Field: field.text, Value: val}, nil
		}
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var args []Expr
		for !p.atPunct(")") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if p.atPunct(",") {
				p.next()
			}
		}
		p.next()
		return &MergeTupleStmt{At: t.pos, Table: table.text, Args: args}, nil
	case "send":
		p.next()
		box, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s := &SendStmt{At: t.pos, Mailbox: box.text}
		if p.atPunct("@") {
			p.next()
			dest, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			s.Dest = dest.text
		}
		if s.Args, err = p.queryArgs(); err != nil {
			return nil, err
		}
		if p.atPunct(":-") {
			p.next()
			p.skipNewlines()
			atoms, filters, err := p.ruleBody()
			if err != nil {
				return nil, err
			}
			s.Body, s.Filters = atoms, filters
		}
		return s, nil
	case "delete":
		p.next()
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var args []Expr
		for !p.atPunct(")") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if p.atPunct(",") {
				p.next()
			}
		}
		p.next()
		return &DeleteStmt{At: t.pos, Table: table.text, Args: args}, nil
	case "reply":
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ReplyStmt{At: t.pos, Value: e}, nil
	default:
		// Assignment: ident := expr
		if p.peek().kind == tokPunct && p.peek().text == ":=" {
			name := p.next()
			p.next() // :=
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{At: t.pos, Var: name.text, Value: e}, nil
		}
		return nil, errAt(t.pos, "unknown statement %q", t.text)
	}
}

func (p *parser) availBlock(prog *Program) error {
	p.next() // "availability"
	if _, err := p.expectPunct("{"); err != nil {
		return err
	}
	for {
		p.skipNewlines()
		if p.atPunct("}") {
			p.next()
			return nil
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		spec := AvailSpec{}
		for p.cur().kind == tokIdent {
			key := p.next()
			if _, err := p.expectPunct("="); err != nil {
				return err
			}
			switch key.text {
			case "domain":
				v, err := p.expectIdent()
				if err != nil {
					return err
				}
				switch v.text {
				case "vm", "rack", "dc", "az":
					spec.Domain = v.text
				default:
					return errAt(v.pos, "unknown failure domain %q", v.text)
				}
			case "failures":
				v := p.cur()
				if v.kind != tokInt {
					return errAt(v.pos, "failures wants an integer")
				}
				p.next()
				spec.Failures = int(v.i)
			default:
				return errAt(key.pos, "unknown availability key %q", key.text)
			}
		}
		if _, dup := prog.Availability[name.text]; dup {
			return errAt(name.pos, "duplicate availability entry %q", name.text)
		}
		prog.Availability[name.text] = spec
	}
}

func (p *parser) targetBlock(prog *Program) error {
	p.next() // "target"
	if _, err := p.expectPunct("{"); err != nil {
		return err
	}
	for {
		p.skipNewlines()
		if p.atPunct("}") {
			p.next()
			return nil
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		spec := TargetSpec{}
		for p.cur().kind == tokIdent {
			key := p.next()
			if _, err := p.expectPunct("="); err != nil {
				return err
			}
			v := p.cur()
			switch key.text {
			case "latency":
				if v.kind != tokDuration {
					return errAt(v.pos, "latency wants a duration like 100ms")
				}
				p.next()
				spec.LatencyMs = v.f
			case "cost":
				switch v.kind {
				case tokFloat:
					spec.Cost = v.f
				case tokInt:
					spec.Cost = float64(v.i)
				default:
					return errAt(v.pos, "cost wants a number")
				}
				p.next()
			case "processor":
				if v.kind != tokIdent || (v.text != "cpu" && v.text != "gpu") {
					return errAt(v.pos, "processor must be cpu or gpu")
				}
				p.next()
				spec.Processor = v.text
			default:
				return errAt(key.pos, "unknown target key %q", key.text)
			}
		}
		if _, dup := prog.Targets[name.text]; dup {
			return errAt(name.pos, "duplicate target entry %q", name.text)
		}
		prog.Targets[name.text] = spec
	}
}

// --- expressions (precedence climbing) ---

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next().text
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Op: op, L: lhs, R: rhs}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.next()
		return &IntLit{V: t.i}, nil
	case tokFloat:
		p.next()
		return &FloatLit{V: t.f}, nil
	case tokString:
		p.next()
		return &StringLit{V: t.s}, nil
	case tokIdent:
		switch t.text {
		case "true", "false":
			p.next()
			return &BoolLit{V: t.text == "true"}, nil
		}
		name := p.next()
		// UDF call: ident(...)
		if p.atPunct("(") {
			p.next()
			var args []Expr
			for !p.atPunct(")") {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, e)
				if p.atPunct(",") {
					p.next()
				}
			}
			p.next()
			return &CallExpr{Func: name.text, Args: args}, nil
		}
		// Field ref: ident[expr].field
		if p.atPunct("[") {
			p.next()
			key, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("."); err != nil {
				return nil, err
			}
			field, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &FieldRef{Table: name.text, Key: key, Field: field.text}, nil
		}
		return &VarRef{Name: name.text}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" {
			p.next()
			e, err := p.primary()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: "-", L: &IntLit{V: 0}, R: e}, nil
		}
	}
	return nil, errAt(t.pos, "expected expression, found %s", t)
}
