package transducer

import "hydro/internal/datalog"

// Tx is a handler's view of one tick: reads come from the runtime database
// (which no tick mutates before its end) and the variable snapshot, writes
// are staged and applied at end of tick. This is what makes handler bodies
// order-independent within a tick.
type Tx struct {
	rt       *Runtime
	snapVars map[string]any
	eff      *effects
	msg      Message
	aborted  bool
	mark     effectMark
}

type tableRow struct {
	table string
	row   datalog.Tuple
}

type fieldMerge struct {
	table string
	key   []any
	col   int
	value any
}

// effects accumulates a tick's staged mutations across all handler
// invocations.
type effects struct {
	inserts     []tableRow
	fieldMerges []fieldMerge
	assigns     map[string]any
	assignKeys  []string // insertion order, for truncate
	deletes     []tableRow
	sends       []Message
}

// effectMark snapshots effect counts so an aborted handler's staged effects
// can be discarded.
type effectMark struct {
	inserts, merges, assigns, deletes, sends int
}

func (e *effects) mark() effectMark {
	return effectMark{len(e.inserts), len(e.fieldMerges), len(e.assignKeys), len(e.deletes), len(e.sends)}
}

func (e *effects) truncate(m effectMark) {
	e.inserts = e.inserts[:m.inserts]
	e.fieldMerges = e.fieldMerges[:m.merges]
	for _, k := range e.assignKeys[m.assigns:] {
		delete(e.assigns, k)
	}
	e.assignKeys = e.assignKeys[:m.assigns]
	e.deletes = e.deletes[:m.deletes]
	e.sends = e.sends[:m.sends]
}

// newTx is created per message by the runtime; handlers never construct one.
func (rt *Runtime) newTx(snapVars map[string]any, eff *effects, msg Message) *Tx {
	return &Tx{rt: rt, snapVars: snapVars, eff: eff, msg: msg, mark: eff.mark()}
}

// Msg returns the message being handled.
func (tx *Tx) Msg() Message { return tx.msg }

// Query returns the snapshot contents of a relation (table or compiled
// query) as of the start of the tick, fixpoint included.
func (tx *Tx) Query(name string) []datalog.Tuple {
	rel := tx.rt.db.Get(name)
	if rel == nil {
		return nil
	}
	return rel.Tuples()
}

// QueryWhere returns snapshot tuples whose columns at pos equal vals.
func (tx *Tx) QueryWhere(name string, pos []int, vals []any) []datalog.Tuple {
	rel := tx.rt.db.Get(name)
	if rel == nil {
		return nil
	}
	return rel.Lookup(pos, vals)
}

// ReadVar reads a scalar variable from the snapshot.
func (tx *Tx) ReadVar(name string) any { return tx.snapVars[name] }

// DerivePrepared evaluates a rule compiled once with datalog.PrepareRule
// against the tick snapshot, binding the rule's declared variables from
// bound — how compiled rule-driven sends read.
func (tx *Tx) DerivePrepared(pr *datalog.PreparedRule, bound map[string]any) ([]datalog.Tuple, error) {
	return pr.Derive(tx.rt.db, bound)
}

// MergeTuple stages a (monotonic) tuple insertion.
func (tx *Tx) MergeTuple(table string, row datalog.Tuple) {
	tx.eff.inserts = append(tx.eff.inserts, tableRow{table: table, row: row})
}

// MergeField stages a (monotonic) lattice merge into one column of the row
// identified by key.
func (tx *Tx) MergeField(table string, key []any, col int, value any) {
	tx.eff.fieldMerges = append(tx.eff.fieldMerges, fieldMerge{table: table, key: key, col: col, value: value})
}

// Assign stages a (non-monotonic) scalar overwrite.
func (tx *Tx) Assign(name string, value any) {
	if _, ok := tx.eff.assigns[name]; !ok {
		tx.eff.assignKeys = append(tx.eff.assignKeys, name)
	}
	tx.eff.assigns[name] = value
}

// Delete stages a (non-monotonic) tuple removal.
func (tx *Tx) Delete(table string, row datalog.Tuple) {
	tx.eff.deletes = append(tx.eff.deletes, tableRow{table: table, row: row})
}

// Send stages an asynchronous message. Mailbox may be "node/mailbox" to
// address another transducer through the cluster transport.
func (tx *Tx) Send(mailbox string, payload datalog.Tuple) {
	tx.eff.sends = append(tx.eff.sends, Message{Mailbox: mailbox, Payload: payload})
}

// Reply stages a response to the current message's implicit response
// mailbox (mailbox + "<response>"), correlated by message ID — the sugar
// described under "Handlers" in §3.1.
func (tx *Tx) Reply(values ...any) {
	payload := append(datalog.Tuple{tx.msg.ID}, values...)
	box := tx.msg.Mailbox + "<response>"
	if tx.msg.From != "" && tx.msg.From != "external" && tx.msg.From != tx.rt.Name {
		box = tx.msg.From + "/" + box
	}
	tx.eff.sends = append(tx.eff.sends, Message{Mailbox: box, Payload: payload})
}

// Abort discards every effect this handler invocation has staged — used by
// compiled `require(...)` invariants.
func (tx *Tx) Abort() { tx.aborted = true }
