package transducer

import "hydro/internal/datalog"

// Tx is a handler's view of one tick: reads come from the runtime database,
// variables included (no tick mutates it before its end), writes are
// staged and applied at end of tick. This is what makes handler bodies
// order-independent within a tick.
type Tx struct {
	rt      *Runtime
	msg     Message
	aborted bool
	mark    effectMark
}

type tableRow struct {
	table string
	row   datalog.Tuple
}

// sendEntry is one staged send: a derived set (SendAll), or a single row
// (Send, Reply) wrapped as a one-row set. Each row becomes one message at
// commit, its payload a view into the set's payload array; reply marks
// Reply's entries, and their messages (Message.Reply).
type sendEntry struct {
	mailbox string
	rows    datalog.Rows
	reply   bool
}

// effects accumulates a tick's staged mutations across all handler
// invocations. The runtime owns one and reuses it every tick (reset).
type effects struct {
	inserts []tableRow
	deletes []tableRow
	sends   []sendEntry
}

// effectMark snapshots effect counts so an aborted handler's staged effects
// can be discarded.
type effectMark struct {
	inserts, deletes, sends int
}

func (e *effects) mark() effectMark {
	return effectMark{len(e.inserts), len(e.deletes), len(e.sends)}
}

// truncate discards everything staged after m. The discarded tails are
// cleared so the reused buffers retain no payload.
func (e *effects) truncate(m effectMark) {
	e.inserts = truncated(e.inserts, m.inserts)
	e.deletes = truncated(e.deletes, m.deletes)
	e.sends = truncated(e.sends, m.sends)
}

// reset empties the buffers for the next tick, keeping their capacity.
func (e *effects) reset() {
	e.truncate(effectMark{})
}

func truncated[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// QueryWhere returns the snapshot tuples of a relation (table or compiled
// query, fixpoint included) as of the start of the tick whose columns at
// pos equal vals; empty pos returns them all.
func (tx *Tx) QueryWhere(name string, pos []int, vals []any) []datalog.Tuple {
	rel := tx.rt.db.Get(name)
	if rel == nil {
		return nil
	}
	return rel.Lookup(pos, vals)
}

// ReadVar reads a scalar variable as of the start of the tick: assigns are
// staged, so its VarRelation row is read in place (Runtime.Var).
func (tx *Tx) ReadVar(name string) any { return tx.rt.Var(name) }

// DerivePrepared evaluates a rule compiled once with datalog.PrepareRule
// against the tick snapshot, binding the rule's declared variables from
// bound — how compiled rule-driven sends read. The rows stay one flat set
// until SendAll's messages take them as payloads.
func (tx *Tx) DerivePrepared(pr *datalog.PreparedRule, bound map[string]any) (datalog.Rows, error) {
	return pr.Derive(tx.rt.db, bound)
}

// MergeTuple stages a (monotonic) merge of row into table: a set insert,
// or, into a table of one row per key, the join of row into its key's row
// (TableSchema.Join). The runtime keeps row, and the join may write into
// it. A merge into one column is a row with every other non-key column at
// its bottom.
func (tx *Tx) MergeTuple(table string, row datalog.Tuple) {
	tx.rt.eff.inserts = append(tx.rt.eff.inserts, tableRow{table: table, row: row})
}

// Assign stages a (non-monotonic) scalar overwrite: the variable's
// VarRelation row, whose Join keeps the last value staged.
func (tx *Tx) Assign(name string, value any) { tx.MergeTuple(VarRelation, datalog.Tuple{name, value}) }

// Delete stages a (non-monotonic) tuple removal.
func (tx *Tx) Delete(table string, row datalog.Tuple) {
	tx.rt.eff.deletes = append(tx.rt.eff.deletes, tableRow{table: table, row: row})
}

// Send stages an asynchronous message. Mailbox may be "node/mailbox" to
// address another transducer through the cluster transport.
func (tx *Tx) Send(mailbox string, payload datalog.Tuple) {
	tx.rt.eff.sends = append(tx.rt.eff.sends, sendEntry{mailbox: mailbox, rows: datalog.NewRows(1, len(payload), payload)})
}

// SendAll stages one message per row to mailbox, in row order: how a
// rule-driven send stages its derived set, as one entry rather than one
// per row. The runtime keeps rows until the tick ends; each message's
// payload is its row's view into the set's payload array.
func (tx *Tx) SendAll(mailbox string, rows datalog.Rows) {
	if rows.Len() == 0 {
		return
	}
	tx.rt.eff.sends = append(tx.rt.eff.sends, sendEntry{mailbox: mailbox, rows: rows})
}

// Reply stages a response to the current message's implicit response
// mailbox (ResponseMailbox), correlated by message ID — the sugar
// described under "Handlers" in §3.1.
func (tx *Tx) Reply(values ...any) {
	payload := append(datalog.Tuple{tx.msg.ID}, values...)
	box := ResponseMailbox(tx.msg.Mailbox)
	if tx.msg.From != "" && tx.msg.From != "external" && tx.msg.From != tx.rt.Name {
		box = tx.msg.From + "/" + box
	}
	tx.rt.eff.sends = append(tx.rt.eff.sends, sendEntry{mailbox: box, rows: datalog.NewRows(1, len(payload), payload), reply: true})
}

// Abort discards every effect this handler invocation has staged — used by
// compiled `require(...)` invariants.
func (tx *Tx) Abort() { tx.aborted = true }
