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
// Serving is one loop: a single goroutine dequeues admitted requests in
// admission order, sheds those whose enqueue age already exceeds their
// deadline, cuts batches and runs each batch's tick inline, so the
// executed order is the admission order, end to end. Backpressure runs
// from the loop through the bounded admission queue to the submitter, who
// either blocks (Block) or fails fast (Shed). Every response carries the
// request's timing across the four serving phases (enqueue → flush → eval
// → respond) in Response.Timing.
//
// Replies and outputs wait for no later tick. From New until the loop
// exits the server is the runtime's observation sink
// (transducer.Runtime.SetObservationSink): a reply lands in its batch's
// reply table, and a DrainMailboxes output reaches OnDrain in a slice
// borrowed for the call, at the end of the tick that sent it. A batch whose
// handlers only reply and emit outputs costs exactly one tick; the loop
// settles further ticks only for handler cascades.
//
// Batching is transparent for the monotone, payload-driven handlers the
// compiler emits: the committed fixpoint after a batch is identical (as a
// set of tuples per relation) to delivering the same requests one per
// tick — the seeded equivalence sweeps in equivalence_test.go gate this
// the same way parallel and sharded evaluation are gated. Two deliberate
// carve-outs keep that true at the edges:
//
//   - Serializable handlers (snapshot-read/assign cycles like the paper's
//     vaccinate) are order-sensitive across messages, so a request to a
//     mailbox listed in Config.SerialMailboxes cuts the batch in place:
//     the pending prefix ticks first, then the request ticks alone — one
//     message, one tick, exactly the serial schedule.
//   - A batch tick the evaluator rejects (a derived-relation write, an
//     aggregate over a non-numeric value) or the durability sink refuses
//     is rolled back whole by the runtime; the server then re-injects the
//     batch's messages one per tick, so a poison request costs its own
//     tick and its batchmates commit exactly as they would have serially.
//
// The runtime is single-threaded by design; the serve loop is the only
// goroutine that touches it from New until Close. Register tables,
// handlers and queries before wrapping the runtime, and use Sync (or
// Close, then the runtime directly) for out-of-band access.
package serve

import (
	"errors"
	"sync"
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
	// backlog not yet in a tick with ErrClosed (fail-fast shutdown).
	Policy Policy
	// SerialMailboxes lists mailboxes whose handlers are order-sensitive
	// across messages (serializable handlers): each of their requests cuts
	// the pending batch and ticks alone.
	SerialMailboxes []string
	// Deprecated: Lanes is ignored. Serializable requests always cut the
	// batch in place, so the executed order is the admission order. The
	// field stays until the benchmark module stops setting it.
	Lanes bool
	// FanoutPump, when set, runs on the serve loop after every batch. A
	// serving node that tees its ticks into a replicated shard.Deployment
	// (rt.SetDurability(shard.NewSink(dep)) before New) passes a
	// dep.Settle closure here, so the simulated cluster network drains as
	// the serving node drives it.
	FanoutPump func()
	// DrainMailboxes are observation mailboxes (alert fan-outs, send-rule
	// targets: local, no handler) taken as their sends commit, so they
	// cannot grow without bound; their messages go to OnDrain when set,
	// else are dropped.
	DrainMailboxes []string
	// OnDrain receives the messages one staged send committed to a
	// DrainMailboxes mailbox, at the end of the tick that sent them (called
	// from the serve loop; keep it fast). msgs is borrowed for the call:
	// copy what must outlive it. The payload tuples are the receiver's.
	OnDrain func(mailbox string, msgs []transducer.Message)
}

// settleTicks caps the post-batch ticks run to quiesce handler cascades
// before responding. A batch that fails to settle is counted in
// Metrics.Unsettled.
const settleTicks = 256

// Request is one external fact or command addressed to a handler mailbox.
// The payload must not be mutated after Submit.
type Request struct {
	Mailbox string
	Payload datalog.Tuple
	// Deadline, when positive, bounds this request's enqueue age: if it
	// has not reached a tick slot within Deadline of Submit it is shed
	// with ErrDeadlineExceeded. Zero means no deadline.
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
	flushSerial // a serializable request's singleton
	flushCut    // the pending prefix a serializable request cuts
	flushClose
	// flushExpired and flushAbandoned are respond-only: the batch never
	// reaches the runtime, every member resolves with an error
	// (ErrDeadlineExceeded / ErrClosed).
	flushExpired
	flushAbandoned
)

// Server is the serving shell around one transducer runtime.
type Server struct {
	rt     *transducer.Runtime
	cfg    Config
	serial map[string]bool

	queue chan *pendingReq
	ctrl  chan func()
	stop  chan struct{}
	done  chan struct{}

	mu     sync.RWMutex // admission gate: Submit holds RLock, Close latches closed under Lock
	closed bool

	m        metrics
	batchSeq uint64 // owned by the serve loop

	// The observation sink's routes, owned by the serve loop: the response
	// mailbox of every mailbox a batch has carried, and DrainMailboxes.
	// replies is the batch being served's reply table, by message ID.
	replyBoxes map[string]bool
	drainBoxes map[string]bool
	replies    map[uint64]datalog.Tuple
}

// New wraps a runtime in a serving shell and starts its serve loop. The
// server owns the runtime exclusively until Close; register tables,
// handlers and queries, and attach any durability sink, before calling
// New.
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
	s := &Server{
		rt:     rt,
		cfg:    cfg,
		serial: map[string]bool{},
		queue:  make(chan *pendingReq, cfg.QueueDepth),
		ctrl:   make(chan func()),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),

		replyBoxes: map[string]bool{},
		drainBoxes: map[string]bool{},
		replies:    map[uint64]datalog.Tuple{},
	}
	for _, mb := range cfg.SerialMailboxes {
		s.serial[mb] = true
	}
	for _, mb := range cfg.DrainMailboxes {
		s.drainBoxes[mb] = true
	}
	rt.SetObservationSink(s.observe)
	go s.loop()
	return s
}

// observe is the runtime's observation sink while the server owns it. A
// reply lands in the batch's reply table, a DrainMailboxes message goes to
// OnDrain, and any other observation to its mailbox.
func (s *Server) observe(box string, msgs []transducer.Message) {
	switch {
	case s.replyBoxes[box]:
		for _, m := range msgs {
			if len(m.Payload) == 0 {
				continue
			}
			if id, ok := m.Payload[0].(uint64); ok {
				s.replies[id] = m.Payload[1:]
			}
		}
	case s.drainBoxes[box]:
		if s.cfg.OnDrain != nil {
			s.cfg.OnDrain(box, msgs)
		}
	default:
		for _, m := range msgs {
			s.rt.Deliver(m)
		}
	}
}

// Submit admits one request. Under Block it waits for queue space (the
// backpressure path); under Shed it returns ErrOverload immediately when
// the queue is full.
func (s *Server) Submit(req Request) (*Pending, error) {
	if !s.rt.Handles(req.Mailbox) {
		return nil, ErrNoHandler
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	p := &pendingReq{req: req, enq: time.Now(), resp: make(chan Response, 1)}
	if d := req.Deadline; d > 0 {
		p.deadAt = p.enq.Add(d)
	}
	// The gauge increments before the send so a dequeue can never outrun
	// it (the old after-send order let the loop's decrement land
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
			s.m.shed.Add(1)
			return nil, ErrOverload
		}
	} else {
		s.queue <- p
	}
	s.m.submitted.Add(1)
	return &Pending{ch: p.resp}, nil
}

// Sync runs fn on the serve loop between batches: the loop neither
// dequeues nor ticks until fn returns (a batch still being assembled stays
// pending across it). The safe way to read (or drain) the runtime while
// the server owns it.
func (s *Server) Sync(fn func(rt *transducer.Runtime)) error {
	ran := make(chan struct{})
	select {
	case s.ctrl <- func() { fn(s.rt); close(ran) }:
		<-ran
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

// Close stops admission and shuts the serve loop down: the batch in flight
// always completes, then the backlog — the batch still being assembled and
// the admission queue — is served in admission order (Block policy) or
// answered with ErrClosed (Shed policy: fail-fast shutdown). Every admitted
// request receives a response either way — no goroutine is left blocked in
// Pending.Wait. Idempotent.
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
	// queue; the loop drains it before exiting.
	close(s.stop)
	<-s.done
}

// loop is the serve loop, the one goroutine that owns the runtime. It
// dequeues admitted requests in admission order and runs every batch it
// cuts inline; Sync callbacks run between batches. Closing done is its
// exit signal, and the runtime gets its default observation sink back
// first.
func (s *Server) loop() {
	defer close(s.done)
	defer s.rt.SetObservationSink(nil)
	var batch []*pendingReq // dequeued, not yet cut (always below MaxBatch)
	for {
		// Shutdown takes priority over further batching: once stop fires,
		// everything admitted is already in the queue, and drain — not the
		// normal batching path — decides its fate per policy.
		select {
		case <-s.stop:
			s.drain(batch)
			return
		default:
		}
		if len(batch) > 0 && time.Since(batch[0].deq) >= s.cfg.MaxWait {
			s.cut(batch, flushDeadline)
			batch = batch[:0]
			continue
		}
		// Fast path: work is already waiting — take it without arming the
		// deadline timer (a per-request Timer would dominate the loop's
		// cost at saturation; the timer only matters when we'd block).
		select {
		case fn := <-s.ctrl:
			fn()
			continue
		case p := <-s.queue:
			batch = s.admit(batch, p)
			continue
		default:
		}
		var expire <-chan time.Time // nil (never ready) while no batch is pending
		if len(batch) > 0 {
			expire = time.After(time.Until(batch[0].deq.Add(s.cfg.MaxWait)))
		}
		select {
		case fn := <-s.ctrl:
			fn()
		case p := <-s.queue:
			batch = s.admit(batch, p)
		case <-expire: // the deadline check above cuts the batch
		case <-s.stop: // the shutdown check above drains
		}
	}
}

// admit takes one dequeued request and returns the batch left pending. An
// expired request is shed on the spot, a full batch is cut, and a
// serializable request cuts the batch in place: the pending prefix ticks
// first, then the request ticks alone — admission order is the executed
// order.
func (s *Server) admit(batch []*pendingReq, p *pendingReq) []*pendingReq {
	s.m.gaugeDec()
	p.deq = time.Now()
	if p.expired(p.deq) {
		s.runWork([]*pendingReq{p}, flushExpired)
		return batch
	}
	if s.serial[p.req.Mailbox] {
		s.cut(batch, flushCut)
		s.runWork([]*pendingReq{p}, flushSerial)
		return batch[:0]
	}
	batch = append(batch, p)
	if len(batch) >= s.cfg.MaxBatch {
		s.cut(batch, flushSize)
		return batch[:0]
	}
	return batch
}

// cut runs a batch, first shedding the members whose deadline lapsed while
// it was pending: they resolve with ErrDeadlineExceeded instead of
// occupying tick slots.
func (s *Server) cut(batch []*pendingReq, reason flushReason) {
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
	s.runWork(dead, flushExpired)
	s.runWork(live, reason)
}

// drain settles the backlog after Close: the pending batch plus whatever
// is still queued. Block serves all of it in admission order (cut as
// usual, the remainder as one last batch); Shed answers all of it with
// ErrClosed, honoring fail-fast semantics at shutdown too. Either way no
// admitted request is left without a response.
func (s *Server) drain(batch []*pendingReq) {
	// Close holds admission shut, so the queue only shrinks from here.
	for len(s.queue) > 0 {
		p := <-s.queue
		if s.cfg.Policy == Block {
			batch = s.admit(batch, p)
			continue
		}
		s.m.gaugeDec()
		batch = append(batch, p)
	}
	if s.cfg.Policy == Block {
		s.cut(batch, flushClose)
		return
	}
	s.runWork(batch, flushAbandoned)
}

// runWork runs one cut batch on the serve loop: a tick for a real batch,
// an error response per member for a shed or abandoned one.
func (s *Server) runWork(batch []*pendingReq, reason flushReason) {
	if len(batch) == 0 {
		return
	}
	t0 := time.Now()
	switch reason {
	case flushExpired:
		for _, p := range batch {
			s.m.deadlineShed.Add(1)
			s.respondShed(p, ErrDeadlineExceeded)
		}
	case flushAbandoned:
		for _, p := range batch {
			s.m.closedUnserved.Add(1)
			s.respondShed(p, ErrClosed)
		}
	default:
		s.flush(batch, reason)
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
	s.deliver(p, Response{Err: err, Timing: t})
}

// deliver resolves one request. Every admitted request passes through here
// exactly once.
func (s *Server) deliver(p *pendingReq, r Response) {
	p.resp <- r
	s.m.responded.Add(1)
}

// flush feeds one batch to a single tick, settles the cascade, and
// responds to every request with its reply and timing breakdown.
func (s *Server) flush(batch []*pendingReq, reason flushReason) {
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
		s.replyBoxes[transducer.ResponseMailbox(p.req.Mailbox)] = true
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
			// singleton settles before the next ticks, as in the serial
			// schedule: a cascade still in flight would otherwise be
			// delivered into the next singleton's tick and lost with it if
			// that tick is rejected. Each singleton tick is its own batch
			// for accounting — it gets a fresh batch sequence number and
			// its own timing record.
			for i, p := range batch {
				ids[i] = s.rt.Inject(p.req.Mailbox, p.req.Payload)
				s.m.retried.Add(1)
				s.batchSeq++
				retrySeq[i] = s.batchSeq
				errs[i] = s.tick()
				s.settle()
			}
		}
	}
	// Replies and drained outputs reached the observation sink as their
	// ticks committed. Only handler cascades (sends to handled mailboxes)
	// can still be in flight: settle them to idle, so every reply the
	// batch provoked is in the reply table. A batch that only replies is
	// idle already and ticks no further.
	if !s.settle() {
		s.m.unsettled.Add(1)
	}
	evalEnd := time.Now()

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
		s.deliver(p, Response{ID: ids[i], Reply: s.replies[ids[i]], Err: errs[i], Timing: t})
	}
	clear(s.replies)
}

// settle ticks until the runtime is idle, at most settleTicks times, and
// reports whether it got there.
func (s *Server) settle() bool {
	for i := 0; i < settleTicks && !s.rt.Idle(); i++ {
		s.tick()
	}
	return s.rt.Idle()
}

// tick runs one runtime tick, folds its phase timings into the metrics,
// and returns the rejection error if the evaluator or sink refused it.
func (s *Server) tick() error {
	before := s.rt.Stats().Rejected
	s.rt.Tick()
	tt := s.rt.LastTickTimings()
	s.m.tickDeliverNs.Add(tt.Deliver.Nanoseconds())
	s.m.tickHandlersNs.Add(tt.Handlers.Nanoseconds())
	s.m.tickApplyNs.Add(tt.Apply.Nanoseconds())
	s.m.ticks.Add(1)
	if s.rt.Stats().Rejected > before {
		return s.rt.LastRejection()
	}
	return nil
}
