// Package serve is the serving front-end of the transducer runtime: the
// admission path between external clients and the event loop a compiled
// HydroLogic program runs on.
//
// The transducer commits effects atomically per tick, and every tick pays
// fixed costs — effect application, one Incremental.Apply maintenance
// pass, durability appends. Delivering
// one injected message per tick pays those costs per message; the server
// instead groups admitted requests into size-or-deadline batches and feeds
// each batch to a single tick, so the fixed per-tick costs amortize across
// the batch.
//
// Serving is a two-stage pipeline: a collector goroutine dequeues admitted
// requests and assembles batch N+1 while the eval goroutine runs batch N's
// tick, with a one-batch handoff channel between them — so batch assembly
// (dequeues, lane routing, timestamping) overlaps tick evaluation instead
// of being serving dead time. Backpressure still propagates end to end:
// the eval stage bounds the handoff, the handoff bounds the collector, and
// the bounded admission queue bounds the submitter, who either blocks
// (Block) or fails fast (Shed). The collector also shapes admission:
// serializable mailboxes run in a separate lane so neither kind of traffic
// convoys the other, per-mailbox quotas stop one hot mailbox from filling
// the queue, and requests whose enqueue age already exceeds their deadline
// are shed before wasting a tick slot. Every admitted request carries a
// flat, CSV-friendly timing record across the four serving phases
// (enqueue → flush → eval → respond).
//
// Batching is transparent for the monotone, payload-driven handlers the
// compiler emits: the committed fixpoint after a batch is identical (as a
// set of tuples per relation) to delivering the same requests one per
// tick — the seeded equivalence sweeps in equivalence_test.go gate this
// the same way parallel and sharded evaluation are gated. Two deliberate
// carve-outs keep that true at the edges:
//
//   - Serializable handlers (snapshot-read/assign cycles like the paper's
//     vaccinate) are order-sensitive across messages, so mailboxes listed
//     in Config.SerialMailboxes flush as singleton batches: one message,
//     one tick, exactly the serial schedule. Without Config.Lanes they cut
//     the batch in place (admission order preserved end to end); with
//     Lanes they run in their own admission lane (order preserved within
//     each lane, the cross-lane interleaving is scheduled — the serving
//     analogue of the send reordering the runtime already absorbs).
//   - A rejected batch tick (the evaluator or durability sink refused it)
//     rolls the whole batch back; the server then re-injects the batch's
//     messages one per tick, so a poison request costs its own tick and
//     its batchmates commit exactly as they would have serially.
//
// The runtime is single-threaded by design; exactly one server goroutine
// (the eval stage) touches it from New until Close. Register tables,
// handlers and queries before wrapping the runtime, and use Sync (or
// Close, then the runtime directly) for out-of-band access.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/transducer"
)

var (
	// ErrOverload is returned by Submit under the Shed policy when the
	// admission queue is full — the client should back off and retry.
	ErrOverload = errors.New("serve: admission queue full")
	// ErrClosed is returned by Submit after Close, and resolves any
	// request the server admitted but abandoned at shutdown (Shed policy
	// only — Block drains).
	ErrClosed = errors.New("serve: server closed")
	// ErrNoHandler rejects requests addressed to a mailbox no handler
	// consumes; admitting them would queue work no tick ever drains.
	ErrNoHandler = errors.New("serve: no handler for mailbox")
	// ErrOverQuota is returned by Submit when the request's mailbox is at
	// its admission quota (Config.MailboxQuota) — the per-mailbox
	// fail-fast analogue of ErrOverload.
	ErrOverQuota = errors.New("serve: mailbox admission quota exceeded")
	// ErrDeadlineExceeded resolves a request shed because its enqueue age
	// exceeded its deadline before it reached a tick slot.
	ErrDeadlineExceeded = errors.New("serve: request deadline exceeded before service")
)

// Policy selects the backpressure behavior when the admission queue is
// full.
type Policy int

const (
	// Block makes Submit wait for queue space: backpressure propagates to
	// the caller (closed-loop clients slow down to the server's pace).
	Block Policy = iota
	// Shed makes Submit fail fast with ErrOverload: open-loop ingestion
	// drops load instead of building an unbounded backlog.
	Shed
)

// Config tunes the serving shell. The zero value is usable: every field
// has a serving-oriented default applied by New.
type Config struct {
	// MaxBatch flushes a batch when it reaches this many requests
	// (default 64).
	MaxBatch int
	// MaxWait flushes a non-empty batch this long after its first request
	// was dequeued, bounding the latency cost of waiting for a full batch
	// (default 500µs).
	MaxWait time.Duration
	// QueueDepth bounds the admission queue (default 4×MaxBatch).
	QueueDepth int
	// Policy picks Block or Shed when the queue is full (default Block).
	// The policy also decides what Close does with the backlog: Block
	// drains every admitted request before returning, Shed resolves the
	// not-yet-handed-off backlog with ErrClosed (fail-fast shutdown).
	Policy Policy
	// SettleTicks caps the post-batch ticks run to quiesce handler
	// cascades before responding (default 256). A batch that fails to
	// settle is counted in Metrics.Unsettled.
	SettleTicks int
	// SerialMailboxes lists mailboxes whose handlers are order-sensitive
	// across messages (serializable handlers): their requests flush as
	// singleton batches.
	SerialMailboxes []string
	// Lanes routes serializable requests through a separate admission
	// lane instead of cutting the monotone batch in place. With lanes on,
	// a serializable burst cannot convoy monotone traffic (batches keep
	// filling while singletons interleave) and vice versa (a full monotone
	// batch preempts the serial lane, a deadline-expired one always
	// flushes). FIFO order holds within each lane; cross-lane order is
	// scheduled, so equivalence is gated against the executed schedule
	// (see equivalence_test.go). Off by default: admission order is then
	// preserved end to end.
	Lanes bool
	// MailboxQuota caps, per mailbox, how many requests may be in flight
	// (admitted and not yet responded). Submit fails fast with
	// ErrOverQuota at the cap, under either policy — quotas exist so one
	// hot mailbox cannot fill the shared queue. Mailboxes absent from the
	// map are unlimited.
	MailboxQuota map[string]int
	// DefaultDeadline bounds every request's enqueue age unless the
	// request carries its own Deadline: a request older than this when it
	// would enter a batch is shed with ErrDeadlineExceeded instead of
	// wasting a tick slot. Zero disables the default.
	DefaultDeadline time.Duration
	// Fanout, when set, is attached as the runtime's durability sink at
	// New: every committed batch tick tees through it, which is how a
	// serving node drives a replicated shard.Deployment
	// (shard.NewSink(dep)). Any runtime Compiled.Instantiate returns takes
	// one; a hand-built runtime must have registered a query program
	// (Runtime.SetDurability). A Fanout occupies the runtime's single
	// durability seam.
	Fanout transducer.DurabilitySink
	// FanoutPump, when set, runs on the eval goroutine after every batch
	// — shard deployments pass a dep.Settle closure here so the simulated
	// cluster network drains as the serving node drives it.
	FanoutPump func()
	// NoPipeline collapses the two pipeline stages onto one goroutine
	// (collect, then eval, strictly alternating) — the A/B baseline for
	// `make serve-bench` and a debugging mode. Semantics are identical;
	// only the overlap is lost.
	NoPipeline bool
	// DrainMailboxes are observation mailboxes (alert fan-outs, send-rule
	// targets) drained after every batch so they cannot grow without
	// bound; drained messages go to OnDrain when set, else are dropped.
	DrainMailboxes []string
	// OnDrain receives messages drained from DrainMailboxes (called from
	// the eval goroutine; keep it fast).
	OnDrain func(mailbox string, msgs []transducer.Message)
	// OnTiming receives every admitted request's timing record as its
	// response is delivered (called from the eval goroutine; keep it
	// fast).
	OnTiming func(RequestTiming)
}

// Request is one external fact or command addressed to a handler mailbox.
// The payload must not be mutated after Submit.
type Request struct {
	Mailbox string
	Payload datalog.Tuple
	// Deadline, when positive, bounds this request's enqueue age: if it
	// has not reached a tick slot within Deadline of Submit it is shed
	// with ErrDeadlineExceeded. Zero falls back to
	// Config.DefaultDeadline.
	Deadline time.Duration
}

// Response resolves one admitted request.
type Response struct {
	// ID is the runtime message ID the request was injected under.
	ID uint64
	// Reply is the payload of the handler's correlated reply (the values
	// after the correlation ID), nil if the handler did not reply.
	Reply datalog.Tuple
	// Err is non-nil when the request's tick was rejected by the
	// evaluator or durability sink, the request was shed past its
	// deadline, or the server closed before serving it.
	Err error
	// Timing is the request's per-phase latency breakdown.
	Timing RequestTiming
}

// Pending is an admitted request's future response.
type Pending struct{ ch chan Response }

// Done returns the channel the response is delivered on (buffered: the
// serve loop never blocks on it).
func (p *Pending) Done() <-chan Response { return p.ch }

// Wait blocks for the response.
func (p *Pending) Wait() Response { return <-p.ch }

type pendingReq struct {
	req    Request
	enq    time.Time
	deq    time.Time // dequeued from the admission queue (batch deadline base)
	deadAt time.Time // zero: no deadline
	resp   chan Response
}

func (p *pendingReq) expired(now time.Time) bool {
	return !p.deadAt.IsZero() && now.After(p.deadAt)
}

type flushReason int

const (
	flushSize flushReason = iota
	flushDeadline
	flushSerial
	flushClose
	// flushExpired and flushAbandoned are respond-only work units: the
	// batch never reaches the runtime, every member resolves with an
	// error (ErrDeadlineExceeded / ErrClosed). They flow through the
	// handoff like real batches so all response delivery — and the
	// OnTiming callback — stays on the eval goroutine.
	flushExpired
	flushAbandoned
)

// work is one unit handed from the collector stage to the eval stage:
// either a batch to flush or a Sync barrier (ctrl set).
type work struct {
	batch  []*pendingReq
	reason flushReason
	ctrl   func()
	ran    chan struct{}
}

// Server is the serving shell around one transducer runtime.
type Server struct {
	rt     *transducer.Runtime
	cfg    Config
	serial map[string]bool
	quota  map[string]*quotaSlot

	queue chan *pendingReq
	ctrl  chan func()
	hand  chan *work // the one-batch pipeline handoff
	stop  chan struct{}
	done  chan struct{}

	mu     sync.RWMutex // admission gate: Submit holds RLock, Close latches closed under Lock
	closed bool

	m        metrics
	batchSeq uint64 // owned by the eval stage (the collector in NoPipeline mode)
}

type quotaSlot struct {
	used atomic.Int64
	max  int64
}

// New wraps a runtime in a serving shell and starts its pipeline. The
// server owns the runtime exclusively until Close; register tables,
// handlers and queries before calling New. New panics if the runtime
// refuses Config.Fanout as its durability sink.
func New(rt *transducer.Runtime, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 500 * time.Microsecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	if cfg.SettleTicks <= 0 {
		cfg.SettleTicks = 256
	}
	s := &Server{
		rt:     rt,
		cfg:    cfg,
		serial: map[string]bool{},
		quota:  map[string]*quotaSlot{},
		queue:  make(chan *pendingReq, cfg.QueueDepth),
		ctrl:   make(chan func()),
		hand:   make(chan *work, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, mb := range cfg.SerialMailboxes {
		s.serial[mb] = true
	}
	for mb, n := range cfg.MailboxQuota {
		if n > 0 {
			s.quota[mb] = &quotaSlot{max: int64(n)}
		}
	}
	if cfg.Fanout != nil {
		if err := rt.SetDurability(cfg.Fanout); err != nil {
			panic(fmt.Sprintf("serve: Fanout: %v", err))
		}
	}
	rt.EnableTickTimings(true)
	go s.collector()
	go s.evalLoop()
	return s
}

// Submit admits one request. Under Block it waits for queue space (the
// backpressure path); under Shed it returns ErrOverload immediately when
// the queue is full. A mailbox at its admission quota fails fast with
// ErrOverQuota under either policy.
func (s *Server) Submit(req Request) (*Pending, error) {
	if !s.rt.Handles(req.Mailbox) {
		return nil, ErrNoHandler
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if q := s.quota[req.Mailbox]; q != nil {
		if q.used.Add(1) > q.max {
			q.used.Add(-1)
			s.m.overQuota.Add(1)
			return nil, ErrOverQuota
		}
	}
	p := &pendingReq{req: req, enq: time.Now(), resp: make(chan Response, 1)}
	if d := req.Deadline; d > 0 {
		p.deadAt = p.enq.Add(d)
	} else if s.cfg.DefaultDeadline > 0 {
		p.deadAt = p.enq.Add(s.cfg.DefaultDeadline)
	}
	// The gauge increments before the send so a dequeue can never outrun
	// it (the old after-send order let the collector's decrement land
	// first, and QueueDepth could transiently read negative). The cost is
	// that a Shed refusal occupies the gauge for an instant, so the
	// high-water mark counts admission *attempts* holding or seeking a
	// slot, not only successful admissions.
	s.m.gaugeInc()
	if s.cfg.Policy == Shed {
		select {
		case s.queue <- p:
		default:
			s.m.gaugeDec()
			s.quotaRelease(req.Mailbox)
			s.m.shed.Add(1)
			return nil, ErrOverload
		}
	} else {
		s.queue <- p
	}
	s.m.submitted.Add(1)
	return &Pending{ch: p.resp}, nil
}

// quotaRelease returns the mailbox's quota slot (no-op for unquota'd
// mailboxes).
func (s *Server) quotaRelease(mailbox string) {
	if q := s.quota[mailbox]; q != nil {
		q.used.Add(-1)
	}
}

// Sync runs fn on the eval goroutine with the whole pipeline quiescent —
// the collector parks until fn returns, so no batch is assembled or
// flushed around it. The safe way to read (or drain) the runtime while
// the server owns it.
func (s *Server) Sync(fn func(rt *transducer.Runtime)) error {
	ran := make(chan struct{})
	select {
	case s.ctrl <- func() { fn(s.rt); close(ran) }:
	case <-s.done:
		return ErrClosed
	}
	select {
	case <-ran:
		return nil
	case <-s.done:
		return ErrClosed
	}
}

// Metrics snapshots the server's gauges and counters.
func (s *Server) Metrics() Metrics { return s.m.snapshot() }

// QueueDepth reads the admission-queue gauge.
func (s *Server) QueueDepth() int { return int(s.m.queueDepth.Load()) }

// Runtime returns the wrapped runtime. Only safe to use directly after
// Close has returned (use Sync while the server is live).
func (s *Server) Runtime() *transducer.Runtime { return s.rt }

// Close stops admission and shuts the pipeline down: the batch already in
// the handoff always completes, and the queued backlog is drained (Block
// policy: every admitted request is served) or abandoned with ErrClosed
// (Shed policy: fail-fast shutdown). Every admitted request receives a
// response either way — no goroutine is left blocked in Pending.Wait.
// Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		<-s.done
		return
	}
	// No Submit holds the RLock now, so everything admitted is in the
	// queue; the collector drains it before exiting.
	close(s.stop)
	<-s.done
}

// collectState is the collector stage's lane buffers: mono accumulates
// the current monotone batch (never past MaxBatch), serialQ is the
// serializable lane's FIFO (only occupied with Config.Lanes — without
// lanes serializable requests emit in place to preserve admission order).
type collectState struct {
	mono    []*pendingReq
	serialQ []*pendingReq
}

// collector is the pipeline's first stage: it dequeues admitted requests,
// routes them into lanes, sheds the expired, and hands assembled batches
// to the eval stage. Closing the handoff is its exit signal to eval.
func (s *Server) collector() {
	defer close(s.hand)
	c := &collectState{}
	for {
		// Shutdown takes priority over further collection: once stop fires,
		// everything admitted is already in the queue, and drainCollect —
		// not the normal batching path — decides its fate per policy.
		select {
		case <-s.stop:
			s.drainCollect(c)
			return
		default:
		}
		if s.schedule(c) {
			continue
		}
		// Fast path: work is already waiting — route it without arming the
		// deadline timer (a per-request Timer would dominate the collector's
		// cost at saturation; the timer only matters when we'd block).
		select {
		case fn := <-s.ctrl:
			s.barrier(fn)
			continue
		case p := <-s.queue:
			s.route(c, p)
			continue
		default:
		}
		if len(c.mono) > 0 {
			// A partial batch is waiting on its flush deadline.
			timer := time.NewTimer(time.Until(c.mono[0].deq.Add(s.cfg.MaxWait)))
			select {
			case fn := <-s.ctrl:
				timer.Stop()
				s.barrier(fn)
			case p := <-s.queue:
				timer.Stop()
				s.route(c, p)
			case <-timer.C:
				s.emitMono(c, len(c.mono), flushDeadline)
			case <-s.stop:
				timer.Stop()
				s.drainCollect(c)
				return
			}
		} else {
			select {
			case fn := <-s.ctrl:
				s.barrier(fn)
			case p := <-s.queue:
				s.route(c, p)
			case <-s.stop:
				s.drainCollect(c)
				return
			}
		}
	}
}

// schedule emits at most one work unit from the lane buffers; it reports
// whether it emitted (the caller then re-runs it before blocking). Lane
// starvation rules: a deadline-expired monotone batch always flushes
// first (MaxWait bounds monotone latency through any serializable burst),
// a full monotone batch preempts the serial lane but tows one serial
// singleton behind it (bounded serial wait under monotone floods), and
// otherwise serial singletons drain while the partial monotone batch
// waits — they fill pipeline slots the batch isn't using yet.
func (s *Server) schedule(c *collectState) bool {
	if len(c.mono) > 0 && time.Since(c.mono[0].deq) >= s.cfg.MaxWait {
		s.emitMono(c, len(c.mono), flushDeadline)
		return true
	}
	if len(c.mono) >= s.cfg.MaxBatch {
		s.emitMono(c, s.cfg.MaxBatch, flushSize)
		if len(c.serialQ) > 0 {
			s.emitSerial(c)
		}
		return true
	}
	if len(c.serialQ) > 0 {
		s.emitSerial(c)
		return true
	}
	return false
}

// route files one dequeued request into its lane. Without Config.Lanes,
// a serializable request cuts the monotone batch in place and emits
// immediately, preserving admission order end to end (the strict-FIFO
// schedule the submission-order equivalence sweep pins).
func (s *Server) route(c *collectState, p *pendingReq) {
	s.m.gaugeDec()
	p.deq = time.Now()
	if p.expired(p.deq) {
		s.emit([]*pendingReq{p}, flushExpired)
		return
	}
	if s.serial[p.req.Mailbox] {
		c.serialQ = append(c.serialQ, p)
		if !s.cfg.Lanes {
			if len(c.mono) > 0 {
				s.emitMono(c, len(c.mono), flushSerial)
			}
			s.emitSerial(c)
		}
		return
	}
	c.mono = append(c.mono, p)
}

// emitMono pops the first n monotone requests and hands them off,
// shedding members whose deadline lapsed while the batch assembled.
func (s *Server) emitMono(c *collectState, n int, reason flushReason) {
	batch := c.mono[:n:n]
	c.mono = c.mono[n:]
	if len(c.mono) == 0 {
		c.mono = nil
	}
	s.emitFresh(batch, reason)
}

// emitSerial pops one serializable request and hands it off alone.
func (s *Server) emitSerial(c *collectState) {
	p := c.serialQ[0]
	c.serialQ = c.serialQ[1:]
	if len(c.serialQ) == 0 {
		c.serialQ = nil
	}
	s.emitFresh([]*pendingReq{p}, flushSerial)
}

// emitFresh splits the deadline-expired members out of a batch (they
// resolve with ErrDeadlineExceeded instead of occupying tick slots) and
// hands the rest off.
func (s *Server) emitFresh(batch []*pendingReq, reason flushReason) {
	now := time.Now()
	live, dead := batch, []*pendingReq(nil)
	for i, p := range batch {
		if p.expired(now) {
			// First expiry found: split the batch (rare path).
			live = append([]*pendingReq(nil), batch[:i]...)
			for _, q := range batch[i:] {
				if q.expired(now) {
					dead = append(dead, q)
				} else {
					live = append(live, q)
				}
			}
			break
		}
	}
	if len(dead) > 0 {
		s.emit(dead, flushExpired)
	}
	s.emit(live, reason)
}

// emit hands one work unit to the eval stage (or runs it in place in
// NoPipeline mode). The handoff holds one batch: a second emit blocks
// until eval takes the first, which is how eval-stage backpressure
// reaches the collector and, through the bounded queue, the submitter.
func (s *Server) emit(batch []*pendingReq, reason flushReason) {
	if len(batch) == 0 {
		return
	}
	w := &work{batch: batch, reason: reason}
	if s.cfg.NoPipeline {
		s.runWork(w)
		return
	}
	t0 := time.Now()
	s.hand <- w
	s.m.handoffBlockNs.Add(time.Since(t0).Nanoseconds())
}

// barrier forwards a Sync callback through the handoff (keeping it
// ordered after every batch emitted before it) and parks the collector
// until the eval stage has run it — Sync's contract is a quiescent
// pipeline, not just a quiescent runtime.
func (s *Server) barrier(fn func()) {
	if s.cfg.NoPipeline {
		fn()
		return
	}
	w := &work{ctrl: fn, ran: make(chan struct{})}
	s.hand <- w
	<-w.ran
}

// drainCollect sweeps the admission queue after Close. The Block policy
// serves the whole backlog (in MaxBatch chunks, serializable requests
// still alone); Shed abandons it — every leftover request resolves with
// ErrClosed, honoring fail-fast semantics at shutdown too. Either way no
// admitted request is left without a response.
func (s *Server) drainCollect(c *collectState) {
	for {
		select {
		case p := <-s.queue:
			s.route(c, p)
			continue
		default:
		}
		break
	}
	if s.cfg.Policy == Shed {
		abandoned := append(c.mono, c.serialQ...)
		c.mono, c.serialQ = nil, nil
		s.emit(abandoned, flushAbandoned)
		return
	}
	for len(c.mono) > 0 {
		n := len(c.mono)
		if n > s.cfg.MaxBatch {
			n = s.cfg.MaxBatch
		}
		s.emitMono(c, n, flushClose)
	}
	for len(c.serialQ) > 0 {
		s.emitSerial(c)
	}
}

// evalLoop is the pipeline's second stage: it owns the runtime, flushing
// each handed-off batch through one tick while the collector assembles
// the next. It exits when the collector closes the handoff (Close path)
// and resolves outstanding work first — nothing the collector emitted is
// dropped.
func (s *Server) evalLoop() {
	defer close(s.done)
	for {
		t0 := time.Now()
		w, ok := <-s.hand
		if !s.cfg.NoPipeline {
			// In NoPipeline mode work runs inline on the collector and this
			// goroutine only waits for close — that idle is not collect wait.
			s.m.collectWaitNs.Add(time.Since(t0).Nanoseconds())
		}
		if !ok {
			return
		}
		if w.ctrl != nil {
			w.ctrl()
			close(w.ran)
			continue
		}
		s.runWork(w)
	}
}

// runWork executes one work unit on the runtime-owning goroutine.
func (s *Server) runWork(w *work) {
	t0 := time.Now()
	switch w.reason {
	case flushExpired:
		for _, p := range w.batch {
			s.m.deadlineShed.Add(1)
			s.respondShed(p, ErrDeadlineExceeded)
		}
	case flushAbandoned:
		for _, p := range w.batch {
			s.m.closedUnserved.Add(1)
			s.respondShed(p, ErrClosed)
		}
	default:
		s.flush(w.batch, w.reason)
		if s.cfg.FanoutPump != nil {
			s.cfg.FanoutPump()
		}
	}
	s.m.evalBusyNs.Add(time.Since(t0).Nanoseconds())
}

// respondShed resolves a request that never reached the runtime: no tick,
// no message ID — just the admission phases it did traverse.
func (s *Server) respondShed(p *pendingReq, err error) {
	t := RequestTiming{
		Mailbox:       p.req.Mailbox,
		EnqueueUnixNs: p.enq.UnixNano(),
		QueueNs:       time.Since(p.enq).Nanoseconds(),
		Rejected:      true,
	}
	t.TotalNs = t.QueueNs
	s.deliver(p, Response{Err: err, Timing: t}, t)
}

// deliver resolves one request: response out, quota slot back, timing
// record to OnTiming. Every admitted request passes through here exactly
// once.
func (s *Server) deliver(p *pendingReq, r Response, t RequestTiming) {
	p.resp <- r
	s.m.responded.Add(1)
	s.quotaRelease(p.req.Mailbox)
	if s.cfg.OnTiming != nil {
		s.cfg.OnTiming(t)
	}
}

// flush feeds one batch to a single tick, settles the cascade, and
// responds to every request with its reply and timing breakdown.
func (s *Server) flush(batch []*pendingReq, reason flushReason) {
	if len(batch) == 0 {
		return
	}
	s.batchSeq++
	seq := s.batchSeq
	s.m.batches.Add(1)
	switch reason {
	case flushSize:
		s.m.sizeFlushes.Add(1)
	case flushDeadline:
		s.m.deadlineFlushes.Add(1)
	case flushSerial:
		s.m.serialFlushes.Add(1)
	}

	flushStart := time.Now()
	inj := make([]transducer.Injection, len(batch))
	for i, p := range batch {
		inj[i] = transducer.Injection{Mailbox: p.req.Mailbox, Payload: p.req.Payload}
	}
	ids := s.rt.InjectBatch(inj)
	evalStart := time.Now()

	errs := make([]error, len(batch))
	retrySeq := make([]uint64, len(batch)) // non-zero: the singleton retry tick's own batch seq
	rejected := s.tick() != nil
	if rejected {
		s.m.rejectedBatches.Add(1)
		if len(batch) == 1 {
			errs[0] = s.rt.LastRejection()
		} else {
			// The rejected tick consumed the batch's messages and dropped
			// every effect. Re-inject one message per tick: the poison
			// request is isolated to its own rejected tick, and its
			// batchmates commit exactly as they would have serially. Each
			// singleton tick is its own batch for accounting — it gets a
			// fresh batch sequence number and its own timing record.
			for i, p := range batch {
				ids[i] = s.rt.Inject(p.req.Mailbox, p.req.Payload)
				s.m.retried.Add(1)
				s.batchSeq++
				retrySeq[i] = s.batchSeq
				errs[i] = s.tick()
			}
		}
	}
	// Settle handler cascades to idle: at idle there are no in-flight
	// sends, so every reply this batch provoked has been delivered.
	settled := 0
	for settled < s.cfg.SettleTicks && !s.rt.Idle() {
		s.tick()
		settled++
	}
	if !s.rt.Idle() {
		s.m.unsettled.Add(1)
	}
	evalEnd := time.Now()

	// Correlate replies: each handler Reply lands in "<mailbox><response>"
	// with the request's message ID as payload[0].
	replies := map[uint64]datalog.Tuple{}
	drained := map[string]bool{}
	for _, p := range batch {
		box := p.req.Mailbox + "<response>"
		if drained[box] {
			continue
		}
		drained[box] = true
		for _, m := range s.rt.Drain(box) {
			if len(m.Payload) == 0 {
				continue
			}
			if id, ok := m.Payload[0].(uint64); ok {
				replies[id] = m.Payload[1:]
			}
		}
	}
	for _, box := range s.cfg.DrainMailboxes {
		if msgs := s.rt.Drain(box); len(msgs) > 0 && s.cfg.OnDrain != nil {
			s.cfg.OnDrain(box, msgs)
		}
	}

	queueNs := make([]int64, len(batch))
	for i, p := range batch {
		queueNs[i] = flushStart.Sub(p.enq).Nanoseconds()
	}
	flushNs := evalStart.Sub(flushStart).Nanoseconds()
	evalNs := evalEnd.Sub(evalStart).Nanoseconds()
	for i, p := range batch {
		respondNs := time.Since(evalEnd).Nanoseconds()
		t := RequestTiming{
			ID:            ids[i],
			Mailbox:       p.req.Mailbox,
			Batch:         seq,
			Index:         i,
			BatchSize:     len(batch),
			EnqueueUnixNs: p.enq.UnixNano(),
			QueueNs:       queueNs[i],
			FlushNs:       flushNs,
			EvalNs:        evalNs,
			RespondNs:     respondNs,
			TotalNs:       queueNs[i] + flushNs + evalNs + respondNs,
			Rejected:      errs[i] != nil,
			Retried:       retrySeq[i] != 0,
		}
		if retrySeq[i] != 0 {
			// A re-injected singleton is its own one-message batch.
			t.Batch, t.Index, t.BatchSize = retrySeq[i], 0, 1
		}
		if errs[i] != nil {
			s.m.failed.Add(1)
		}
		s.deliver(p, Response{ID: ids[i], Reply: replies[ids[i]], Err: errs[i], Timing: t}, t)
	}
}

// tick runs one runtime tick, folds its phase timings into the metrics,
// and returns the rejection error if the evaluator or sink refused it.
func (s *Server) tick() error {
	before := s.rt.Stats().Rejected
	s.rt.Tick()
	tt := s.rt.LastTickTimings()
	s.m.tickDeliverNs.Add(tt.Deliver.Nanoseconds())
	s.m.tickSnapshotNs.Add(tt.Snapshot.Nanoseconds())
	s.m.tickHandlersNs.Add(tt.Handlers.Nanoseconds())
	s.m.tickApplyNs.Add(tt.Apply.Nanoseconds())
	s.m.ticks.Add(1)
	if s.rt.Stats().Rejected > before {
		return s.rt.LastRejection()
	}
	return nil
}
