// Package transducer implements HydroLogic's event-loop semantics (§3.1):
// each tick's handlers read program state as it stood when the tick began
// (newly arrived mailbox messages and the query fixpoint included) and all
// mutations apply atomically at end of tick. The runtime database is that
// snapshot: effects are staged, never written mid-tick, and the query
// fixpoint is maintained inside it from each tick's realized delta
// (datalog.Incremental), so nothing is copied or re-derived per tick. A
// runtime with no registered query program maintains the empty one, which
// derives nothing. Sends are asynchronous merges into mailboxes. A send to a
// handled or an addressed ("node/mailbox") mailbox may be delayed an unbounded (simulated) number of ticks, capturing
// network non-determinism while keeping handler logic deterministic within
// a tick. A send to a local mailbox no handler reads (a reply, an alert
// fan-out) is an output nothing in the program can observe the timing of:
// it commits at the end of the tick that staged it, with no delay and no
// later delivery, to the runtime's observation sink (SetObservationSink),
// which by default appends it to the mailbox.
//
// Handlers are the closures the Hydrolysis compiler builds from HydroLogic.
package transducer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"hydro/internal/datalog"
)

// Message is one mailbox entry.
type Message struct {
	Mailbox string
	Payload datalog.Tuple
	// ID correlates requests with responses; From names the sender node
	// (used by the cluster substrate).
	ID   uint64
	From string
}

// TableSchema registers a table with the runtime.
type TableSchema struct {
	Name  string
	Arity int
	// Key lists the key column indexes used by field merges.
	Key []int
	// LatticeMerge maps a column index to its lattice join. Field merges
	// are only valid on columns present here.
	LatticeMerge map[int]func(a, b any) any
	// Zero builds a fresh row for a key when a field merge targets a
	// missing row; nil disables auto-creation.
	Zero func(key []any) datalog.Tuple
}

// Handler reacts to one message. It must confine all effects to the Tx; the
// runtime applies them atomically after the tick's fixpoint.
type Handler func(tx *Tx, msg Message)

// ResponseMailbox names the mailbox a handler of box replies into
// (Tx.Reply): every reply's payload leads with the request's message ID.
func ResponseMailbox(box string) string { return box + "<response>" }

// ObservationSink receives the messages one staged send committed to an
// observation mailbox: a local one with no handler. msgs is borrowed and
// valid only during the call; its payload tuples are the receiver's to
// keep.
type ObservationSink func(mailbox string, msgs []Message)

// DelayFn decides, per delayed send, how many ticks delivery is delayed
// (≥1 keeps "sends are not visible during the current tick" true).
type DelayFn func(r *rand.Rand) int

// DefaultDelay delays 1-3 ticks uniformly.
func DefaultDelay(r *rand.Rand) int { return 1 + r.Intn(3) }

// Stats counts runtime activity.
type Stats struct {
	Ticks     uint64
	Handled   uint64 // messages processed
	Derived   uint64 // datalog facts derived across ticks
	Mutations uint64 // applied end-of-tick mutations
	Sent      uint64 // messages committed by ticks, delayed or observed
	Aborted   uint64 // handler invocations aborted by invariants
	Rejected  uint64 // ticks rolled back after the evaluator or sink refused them
}

// DurabilitySink journals a runtime's realized table deltas so its
// incremental fixpoint survives restarts; *durable.Store implements it. The
// tick loop drives the append-before-apply protocol: Append journals the
// tick's delta, the evaluator applies it, and Committed lets the sink take
// a snapshot. AbortLast retracts the journaled record when the evaluator
// rejects the tick after it was appended.
type DurabilitySink interface {
	Append(d *datalog.Delta) error
	AbortLast() error
	Committed(inc *datalog.Incremental) error
}

// Runtime is one transducer: a logical single-node event loop.
type Runtime struct {
	// Name identifies the node in distributed deployments.
	Name string

	db       *datalog.Database
	vars     map[string]any
	schemas  map[string]TableSchema
	handlers map[string]Handler
	// inc maintains the query program's fixpoint across ticks inside db,
	// the empty program's until one is registered: end-of-tick effects
	// propagate as deltas (RegisterQueriesIncremental). derived holds the
	// program's head predicates.
	inc     *datalog.Incremental
	derived map[string]bool
	// sink, when set, journals every effectful tick's delta before it is
	// applied (SetDurability); lastRejection remembers the most recent
	// rejected tick or degraded-durability error for observability.
	sink          DurabilitySink
	lastRejection error

	mailboxes map[string][]Message
	inflight  []pendingSend
	nextID    uint64
	rng       *rand.Rand
	delay     DelayFn
	// observe, when set, receives committed observation sends in place of
	// their mailboxes (SetObservationSink).
	observe ObservationSink

	// Per-tick buffers, reused across ticks and emptied as each ends: the
	// staged effects, the realized table changes, the sorted handled
	// mailboxes, and one observation entry's messages on their way to
	// observe.
	eff    effects
	delta  datalog.Delta
	boxes  []string
	obsBuf []Message

	// Remote, when set, receives sends addressed to mailboxes with an
	// explicit node ("node/mailbox"); the cluster substrate plugs in here.
	Remote func(node string, msg Message)

	stats Stats
	// lastTimings is the most recent Tick's per-phase wall-clock breakdown.
	// Observability only: clocks are read around phases, never fed into
	// control flow, so recording them cannot perturb determinism.
	lastTimings TickTimings
}

type pendingSend struct {
	msg       Message
	deliverAt uint64
}

// New returns a runtime seeded for deterministic send delays, maintaining
// the empty query program.
func New(name string, seed int64) *Runtime {
	rt := &Runtime{
		Name:      name,
		db:        datalog.NewDatabase(),
		vars:      map[string]any{},
		schemas:   map[string]TableSchema{},
		handlers:  map[string]Handler{},
		mailboxes: map[string][]Message{},
		rng:       rand.New(rand.NewSource(seed)),
		delay:     DefaultDelay,
		eff:       effects{assigns: map[string]any{}},
	}
	rt.clearQueries()
	return rt
}

// clearQueries installs the empty query program, detaching the sink.
func (rt *Runtime) clearQueries() {
	p, _ := datalog.NewProgram()
	rt.inc, _ = datalog.NewIncremental(p, rt.db) // nothing to compile or seed: cannot fail
	rt.derived, rt.sink = nil, nil
}

// SetDelay overrides the send-delay distribution (tests use a fixed 1).
func (rt *Runtime) SetDelay(d DelayFn) { rt.delay = d }

// SetObservationSink routes sends committed to observation mailboxes to
// sink, one call per staged send, instead of appending them to the
// mailbox; nil restores the mailbox. A serving shell installs one to take
// replies and drained outputs as they commit.
func (rt *Runtime) SetObservationSink(sink ObservationSink) { rt.observe = sink }

// Stats returns a copy of the counters.
func (rt *Runtime) Stats() Stats { return rt.stats }

// RegisterTable declares a table.
func (rt *Runtime) RegisterTable(s TableSchema) {
	if rt.derived[s.Name] {
		panic(fmt.Sprintf("transducer %s: table %q collides with a derived query relation", rt.Name, s.Name))
	}
	rt.schemas[s.Name] = s
	rt.db.Ensure(s.Name, s.Arity)
}

// RegisterVar declares a scalar variable with an initial value.
func (rt *Runtime) RegisterVar(name string, initial any) { rt.vars[name] = initial }

// RegisterHandler binds a mailbox to a handler.
func (rt *Runtime) RegisterHandler(mailbox string, h Handler) { rt.handlers[mailbox] = h }

// RegisterQueriesIncremental installs the query program: the fixpoint is
// materialized into the runtime database once, then maintained from each
// tick's applied effects as deltas (semi-naive propagation for monotone
// inserts, DRed for their retractions, per-component recompute fallbacks
// — see datalog.Incremental), making amortized tick cost O(delta)
// on monotone workloads. Registered tables must not collide with derived
// predicates, and handler effects must never write a derived relation.
func (rt *Runtime) RegisterQueriesIncremental(p *datalog.Program) error {
	return rt.RecoverQueriesIncremental(p, datalog.NewIncremental)
}

// RecoverQueriesIncremental installs the query program with state supplied
// by a recovery function instead of a freshly computed fixpoint — the boot
// path for a runtime resuming from a durability directory:
//
//	store, _ := durable.Open(durable.Options{Dir: dir})
//	err := rt.RecoverQueriesIncremental(p, store.Recover)
//	err = rt.SetDurability(store)
//
// The function receives the runtime database (registered tables already
// exist, empty) and must return an evaluator maintaining p over that same
// database. A previously registered program is torn down first, whether or
// not the new one installs: its evaluator materialized derived relations
// directly into the runtime database, and the successor would reject them
// as "derived but already holds base tuples". They are cleared in place, so
// handles returned by Table stay valid, and the sink detaches (it journaled
// the old evaluator's history). Until the new program installs, and for
// good if it fails to, the runtime maintains the empty program.
func (rt *Runtime) RecoverQueriesIncremental(p *datalog.Program, restore func(*datalog.Program, *datalog.Database) (*datalog.Incremental, error)) error {
	for pred := range rt.derived {
		if rel := rt.db.Get(pred); rel != nil {
			rel.Clear()
		}
	}
	rt.clearQueries()
	if p == nil {
		return fmt.Errorf("transducer %s: no query program to register", rt.Name)
	}
	heads := map[string]bool{}
	for _, r := range p.Rules {
		heads[r.Head.Pred] = true
	}
	for name := range rt.schemas {
		if heads[name] {
			return fmt.Errorf("transducer %s: table %q collides with a derived query relation", rt.Name, name)
		}
	}
	inc, err := restore(p, rt.db)
	if err != nil {
		return err
	}
	if inc.DB() != rt.db {
		return fmt.Errorf("transducer %s: recovered evaluator maintains a different database", rt.Name)
	}
	rt.inc, rt.derived = inc, heads
	return nil
}

// SetDurability attaches (or, with nil, detaches) the durability sink,
// which journals the maintained fixpoint's input deltas; it returns nil.
// Re-registering queries detaches the sink, since its log describes the
// previous evaluator's history.
func (rt *Runtime) SetDurability(sink DurabilitySink) error {
	rt.sink = sink
	return nil
}

// LastRejection returns the most recent tick-rejection or degraded-
// durability error, nil if there has been none. Rejections also count in
// Stats.Rejected; a degraded-durability error (the tick stood, but the
// sink's snapshot failed) surfaces only here.
func (rt *Runtime) LastRejection() error { return rt.lastRejection }

// Table exposes a table's current contents (between ticks).
func (rt *Runtime) Table(name string) *datalog.Relation { return rt.db.Get(name) }

// Var reads a scalar variable's current value (between ticks).
func (rt *Runtime) Var(name string) any { return rt.vars[name] }

// Inject places a message in a mailbox for the next tick (external input).
func (rt *Runtime) Inject(mailbox string, payload datalog.Tuple) uint64 {
	rt.nextID++
	id := rt.nextID
	rt.mailboxes[mailbox] = append(rt.mailboxes[mailbox], Message{Mailbox: mailbox, Payload: payload, ID: id, From: "external"})
	return id
}

// Injection is one external message of a batch admission (InjectBatch).
type Injection struct {
	Mailbox string
	Payload datalog.Tuple
}

// InjectBatch places a group of external messages into their mailboxes for
// the next tick, assigning IDs in batch order. The whole batch becomes part
// of one tick's snapshot, so a single tick — one snapshot, one atomic
// end-of-tick apply, one Incremental.Apply maintenance pass — ingests every
// message, instead of paying the per-tick fixed costs once per message. This is the admission path the serving
// front-end (internal/serve) batches requests through.
func (rt *Runtime) InjectBatch(batch []Injection) []uint64 {
	ids := make([]uint64, len(batch))
	for i, in := range batch {
		ids[i] = rt.Inject(in.Mailbox, in.Payload)
	}
	return ids
}

// Handles reports whether a handler is registered for the mailbox —
// admission control uses it to fail unroutable requests fast instead of
// letting them pile up in a mailbox no tick will ever drain.
func (rt *Runtime) Handles(mailbox string) bool {
	_, ok := rt.handlers[mailbox]
	return ok
}

// TableNames lists every relation currently in the runtime database (base
// tables and materialized derived relations), in sorted order.
func (rt *Runtime) TableNames() []string { return rt.db.Names() }

// Deliver places a fully-formed message into a mailbox (used by the cluster
// transport for inter-node sends).
func (rt *Runtime) Deliver(msg Message) {
	rt.mailboxes[msg.Mailbox] = append(rt.mailboxes[msg.Mailbox], msg)
}

// Drain removes and returns the contents of a mailbox (used to observe
// response and observation mailboxes). Observation sends are in
// their mailbox from the end of the tick that sent them, unless an
// observation sink takes them (SetObservationSink).
func (rt *Runtime) Drain(mailbox string) []Message {
	msgs := rt.mailboxes[mailbox]
	delete(rt.mailboxes, mailbox)
	return msgs
}

// Peek returns mailbox contents without consuming them. The result is a
// copy down to the payload tuples: mutating it must not alias the live
// mailbox.
func (rt *Runtime) Peek(mailbox string) []Message {
	msgs := rt.mailboxes[mailbox]
	if msgs == nil {
		return nil
	}
	out := make([]Message, len(msgs))
	copy(out, msgs)
	for i := range out {
		out[i].Payload = append(datalog.Tuple{}, out[i].Payload...)
	}
	return out
}

// Idle reports no pending mailbox messages and no in-flight sends.
// Messages in mailboxes no handler consumes (response and observation
// boxes) never count as work. The length guard runs before any element
// access: an empty (but present) mailbox slice is idle, not a panic.
func (rt *Runtime) Idle() bool {
	for name, msgs := range rt.mailboxes {
		if len(msgs) == 0 {
			continue
		}
		if _, handled := rt.handlers[name]; handled {
			return false
		}
	}
	return len(rt.inflight) == 0
}

// TickTimings is one tick's per-phase wall-clock breakdown, recorded by
// every Tick: delivering matured sends, running handlers, and applying
// end-of-tick effects (which includes the Incremental.Apply maintenance
// pass — the "eval" cost a serving front-end amortizes across a batch —
// and committing sends).
type TickTimings struct {
	Deliver  time.Duration
	Handlers time.Duration
	Apply    time.Duration
	Handled  int
}

// LastTickTimings returns the phase breakdown of the most recent Tick
// (zero value before the first tick).
func (rt *Runtime) LastTickTimings() TickTimings { return rt.lastTimings }

// Tick runs one iteration of the event loop and returns the number of
// messages handled.
func (rt *Runtime) Tick() int {
	t0 := time.Now()
	rt.stats.Ticks++
	// 1. Deliver matured in-flight sends into mailboxes (they become part
	//    of this tick's snapshot).
	//    The sends still in flight are kept in place, so the backing array
	//    serves every tick; the vacated tail is cleared to drop its payloads.
	still := rt.inflight[:0]
	for _, ps := range rt.inflight {
		if ps.deliverAt <= rt.stats.Ticks {
			rt.deliverLocalOrRemote(ps.msg)
		} else {
			still = append(still, ps)
		}
	}
	clear(rt.inflight[len(still):])
	rt.inflight = still
	t1 := time.Now()

	// 2. Handle every message in every handled mailbox, accumulating
	//    deferred effects. The snapshot is the runtime itself: the database
	//    (maintained fixpoint included) and the scalar variables change only
	//    at end of tick, so handlers read both in place. Mailboxes are
	//    processed in sorted order for determinism.
	boxes := rt.boxes[:0]
	for name := range rt.mailboxes {
		if _, ok := rt.handlers[name]; ok {
			boxes = append(boxes, name)
		}
	}
	slices.Sort(boxes)
	rt.boxes = boxes
	eff := &rt.eff
	handled := 0
	for _, box := range boxes {
		msgs := rt.mailboxes[box]
		delete(rt.mailboxes, box)
		h := rt.handlers[box]
		for _, msg := range msgs {
			tx := &Tx{rt: rt, msg: msg, mark: eff.mark()}
			h(tx, msg)
			if tx.aborted {
				rt.stats.Aborted++
				// Discard this handler invocation's staged effects.
				eff.truncate(tx.mark)
			}
			handled++
			rt.stats.Handled++
		}
	}
	t2 := time.Now()

	// 3. Apply effects atomically, then empty the buffers for the next tick.
	rt.applyEffects(eff)
	eff.reset()
	rt.delta = datalog.Delta{}
	rt.lastTimings = TickTimings{
		Deliver:  t1.Sub(t0),
		Handlers: t2.Sub(t1),
		Apply:    time.Since(t2),
		Handled:  handled,
	}
	return handled
}

// RunUntilIdle ticks until no work remains or maxTicks elapses; it returns
// the number of ticks executed. A runtime that is already idle executes no
// tick at all — serving shells call this after every batch, and burning an
// empty tick per call skews the per-tick stats.
func (rt *Runtime) RunUntilIdle(maxTicks int) int {
	for i := 0; i < maxTicks; i++ {
		if rt.Idle() {
			return i
		}
		rt.Tick()
	}
	return maxTicks
}

// deliverLocalOrRemote files a matured send: one addressed to this node
// ("name/mailbox") lands in its local mailbox, one addressed to another
// node goes to Remote when a transport is plugged in.
func (rt *Runtime) deliverLocalOrRemote(msg Message) {
	if node, box, ok := splitAddr(msg.Mailbox); ok && (node == rt.Name || rt.Remote != nil) {
		msg.Mailbox = box
		if node != rt.Name {
			rt.Remote(node, msg)
			return
		}
	}
	rt.mailboxes[msg.Mailbox] = append(rt.mailboxes[msg.Mailbox], msg)
}

func splitAddr(addr string) (node, mailbox string, ok bool) {
	for i := 0; i < len(addr); i++ {
		if addr[i] == '/' {
			return addr[:i], addr[i+1:], true
		}
	}
	return "", addr, false
}

// applyEffects commits the tick's staged mutations: table inserts, field
// merges, and deletes first, then the durability append and the fixpoint
// maintenance pass, then assigns and sends (observation sends reach their
// sink here, the rest go in flight). The realized table changes are
// collected as a delta: the sink journals exactly its ops, and a rejected
// tick is undone by replaying them in reverse. A tick the evaluator or the
// sink refuses is rolled back whole (a failed Apply rolls back what it
// derived; mutations, assigns, and sends are dropped here, so no
// observation sink ever sees them) and the runtime keeps serving — a bad
// tick costs that tick, not the node.
func (rt *Runtime) applyEffects(eff *effects) {
	// Admission check before any mutation lands: a write into a derived
	// relation would corrupt the maintained fixpoint (the compiler never
	// emits one). Rejecting here, with the delta still empty, keeps the
	// tick atomic with nothing to roll back.
	delta := &rt.delta
	for _, ins := range eff.inserts {
		if rt.derived[ins.table] {
			rt.rejectTick(delta, fmt.Errorf("transducer %s: insert into derived relation %q", rt.Name, ins.table))
			return
		}
	}
	for _, fm := range eff.fieldMerges {
		if rt.derived[fm.table] {
			rt.rejectTick(delta, fmt.Errorf("transducer %s: field merge into derived relation %q", rt.Name, fm.table))
			return
		}
	}
	muts := uint64(0) // counted into stats only if the tick commits
	for _, ins := range eff.inserts {
		rt.applyInsert(ins.table, ins.row, delta)
		muts++
	}
	for _, fm := range eff.fieldMerges {
		rt.applyFieldMerge(fm, delta)
		muts++
	}
	for _, del := range eff.deletes {
		if rt.derived[del.table] {
			// Derived rows belong to the evaluator: deleting one is a no-op.
			muts++
			continue
		}
		if rel := rt.db.Get(del.table); rel != nil {
			if rel.Delete(del.row) {
				delta.Delete(del.table, del.row)
			}
		}
		muts++
	}
	if !delta.Empty() {
		// Append-before-apply: the journaled record is the tick's commit
		// point; the maintenance pass folds the realized changes into the
		// fixpoint (ticks that realized no table changes skip both).
		// Derived counts the realized fixpoint changes.
		if rt.sink != nil {
			if err := rt.sink.Append(delta); err != nil {
				rt.rejectTick(delta, fmt.Errorf("transducer %s: durability append: %w", rt.Name, err))
				return
			}
		}
		n, err := rt.inc.Apply(delta)
		if err != nil {
			if rt.sink != nil {
				if aerr := rt.sink.AbortLast(); aerr != nil {
					// The log keeps a record the fixpoint rejected. That is
					// the final-record shape recovery tolerates, and the
					// store has latched failed, so later effectful ticks are
					// rejected until the operator intervenes.
					err = fmt.Errorf("%w (durability abort also failed: %v)", err, aerr)
				}
			}
			rt.rejectTick(delta, fmt.Errorf("transducer %s: tick rejected: %w", rt.Name, err))
			return
		}
		rt.stats.Derived += uint64(n)
		if rt.sink != nil {
			if err := rt.sink.Committed(rt.inc); err != nil {
				// The tick is journaled and applied; only the snapshot
				// failed. Durability is degraded, not lost — surface it
				// without rejecting the tick.
				rt.lastRejection = fmt.Errorf("transducer %s: durability snapshot: %w", rt.Name, err)
			}
		}
	}
	rt.stats.Mutations += muts
	// Deterministic order for assigns: sorted by var name; last staged
	// value per name wins (conflicting assigns within a tick are a
	// program race the analyzer flags, but the runtime stays deterministic).
	var names []string
	for name := range eff.assigns {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		rt.vars[name] = eff.assigns[name]
		rt.stats.Mutations++
	}
	// Sends take IDs in staging order, row by row. The observation test is
	// made once per staged entry: an observed entry commits now, any other
	// row draws its delay and goes in flight.
	for i := range eff.sends {
		s := &eff.sends[i]
		rows := s.rows
		if rows == nil {
			rows = []datalog.Tuple{s.row}
		}
		if rt.observed(s.mailbox) {
			rt.commitObservation(s.mailbox, rows)
			continue
		}
		for _, row := range rows {
			rt.inflight = append(rt.inflight, pendingSend{
				msg:       rt.stamp(s.mailbox, row),
				deliverAt: rt.stats.Ticks + uint64(rt.delay(rt.rng)),
			})
		}
	}
}

// observed reports whether mailbox is an observation mailbox: local (no
// "node/" prefix) and read by no handler.
func (rt *Runtime) observed(mailbox string) bool {
	if strings.IndexByte(mailbox, '/') >= 0 {
		return false
	}
	_, handled := rt.handlers[mailbox]
	return !handled
}

// stamp makes a committed send's message: the next ID, this node as the
// sender, counted in Stats.Sent.
func (rt *Runtime) stamp(mailbox string, payload datalog.Tuple) Message {
	rt.nextID++
	rt.stats.Sent++
	return Message{Mailbox: mailbox, Payload: payload, ID: rt.nextID, From: rt.Name}
}

// commitObservation hands one staged entry's rows to the observation sink,
// or, with none installed, appends them to the mailbox, grown once.
func (rt *Runtime) commitObservation(mailbox string, rows []datalog.Tuple) {
	if rt.observe == nil {
		box := slices.Grow(rt.mailboxes[mailbox], len(rows))
		for _, row := range rows {
			box = append(box, rt.stamp(mailbox, row))
		}
		rt.mailboxes[mailbox] = box
		return
	}
	buf := rt.obsBuf[:0]
	for _, row := range rows {
		buf = append(buf, rt.stamp(mailbox, row))
	}
	rt.observe(mailbox, buf)
	clear(buf)
	rt.obsBuf = buf[:0]
}

// rejectTick rolls back a tick whose effects the evaluator or the
// durability sink refused: every realized table mutation is undone in
// reverse application order, and the tick's assigns and sends are dropped.
// Contents and counts are restored exactly (relation iteration order may
// differ — a deleted row re-inserted by the rollback lands in a new slot).
// The runtime keeps serving; the rejection is visible in Stats.Rejected and
// LastRejection.
func (rt *Runtime) rejectTick(delta *datalog.Delta, err error) {
	rt.db.Undo(delta.Ops())
	rt.stats.Rejected++
	rt.lastRejection = err
}

// applyInsert inserts a tuple, honoring key-based merge semantics: when the
// table declares key columns and a row with the same key exists, lattice
// columns merge and zero-valued non-lattice columns adopt the new values
// (first non-zero writer wins otherwise, deterministically). This gives
// `merge table(...)` the upsert behavior the paper's data model implies
// ("a table keyed on each person's pid").
func (rt *Runtime) applyInsert(table string, row datalog.Tuple, delta *datalog.Delta) {
	rel := rt.db.Ensure(table, len(row))
	schema, ok := rt.schemas[table]
	// A key naming every column makes the upsert a set insert: a row with
	// an equal key is an equal row, and merging it changes nothing.
	if !ok || len(schema.Key) == 0 || len(schema.Key) == rel.Arity {
		if rel.Insert(row) {
			delta.Insert(table, row)
		}
		return
	}
	key := make([]any, len(schema.Key))
	for i, idx := range schema.Key {
		key[i] = row[idx]
	}
	existing := rel.Lookup(schema.Key, key)
	if len(existing) == 0 {
		if rel.Insert(row) {
			delta.Insert(table, row)
		}
		return
	}
	var zero datalog.Tuple
	if schema.Zero != nil {
		zero = schema.Zero(key)
	}
	merged := append(datalog.Tuple{}, existing[0]...)
	for i := range merged {
		if mf, isLat := schema.LatticeMerge[i]; isLat {
			merged[i] = mf(merged[i], row[i])
		} else if zero != nil && merged[i] == zero[i] {
			merged[i] = row[i]
		}
	}
	if !merged.Equal(existing[0]) {
		rel.Delete(existing[0])
		rel.Insert(merged)
		delta.Delete(table, existing[0])
		delta.Insert(table, merged)
	}
}

func (rt *Runtime) applyFieldMerge(fm fieldMerge, delta *datalog.Delta) {
	schema, ok := rt.schemas[fm.table]
	if !ok {
		panic(fmt.Sprintf("transducer %s: field merge into unregistered table %q", rt.Name, fm.table))
	}
	mergeFn, ok := schema.LatticeMerge[fm.col]
	if !ok {
		panic(fmt.Sprintf("transducer %s: column %d of %q is not a lattice", rt.Name, fm.col, fm.table))
	}
	rel := rt.db.Ensure(fm.table, schema.Arity)
	// Find the row by key columns.
	rows := rel.Lookup(schema.Key, fm.key)
	if len(rows) == 0 {
		if schema.Zero == nil {
			return // no row, no auto-create: merge is a no-op
		}
		row := schema.Zero(fm.key)
		updated := append(datalog.Tuple{}, row...)
		updated[fm.col] = mergeFn(updated[fm.col], fm.value)
		if rel.Insert(updated) {
			delta.Insert(fm.table, updated)
		}
		return
	}
	for _, row := range rows {
		updated := append(datalog.Tuple{}, row...)
		updated[fm.col] = mergeFn(updated[fm.col], fm.value)
		if !updated.Equal(row) {
			rel.Delete(row)
			rel.Insert(updated)
			delta.Delete(fm.table, row)
			delta.Insert(fm.table, updated)
		}
	}
}
