package serve

import "sync/atomic"

// metrics is the server's live instrumentation: a queue-depth gauge plus
// monotone counters, all atomics so Submit-side goroutines and the serve
// loop update them without locks.
type metrics struct {
	// queueDepth counts admission attempts holding or seeking a queue
	// slot: Submit increments before the channel send (so the loop's
	// decrement can never outrun it and the gauge never reads negative)
	// and decrements on the shed path. The high-water mark therefore
	// includes momentary refused attempts.
	queueDepth     atomic.Int64
	queueHighWater atomic.Int64

	submitted       atomic.Uint64
	shed            atomic.Uint64 // submissions refused by the Shed policy (queue full)
	responded       atomic.Uint64
	batches         atomic.Uint64
	sizeFlushes     atomic.Uint64 // batches flushed because they hit MaxBatch
	deadlineFlushes atomic.Uint64 // batches flushed by the MaxWait deadline
	serialFlushes   atomic.Uint64 // singleton batches forced by SerialMailboxes
	rejectedBatches atomic.Uint64 // batch ticks the evaluator/sink refused
	retried         atomic.Uint64 // messages re-injected one-per-tick after a rejected batch
	failed          atomic.Uint64 // requests answered with a rejection error
	unsettled       atomic.Uint64 // batches whose cascade did not quiesce within settleTicks
	deadlineShed    atomic.Uint64 // admitted requests shed past their deadline before a tick slot
	closedUnserved  atomic.Uint64 // admitted requests abandoned with ErrClosed at Shed-policy Close
	evalBusyNs      atomic.Int64  // serve-loop time inside batch work (runWork)

	// Cumulative per-phase tick time across all batch ticks (from the
	// runtime's TickTimings), for the tick-level breakdown underneath the
	// per-request phases.
	tickDeliverNs  atomic.Int64
	tickHandlersNs atomic.Int64
	tickApplyNs    atomic.Int64
	ticks          atomic.Uint64
}

// Metrics is a point-in-time snapshot of the server's gauges and counters.
// Every batch counts in Batches; SerialFlushes counts only the singletons
// of SerialMailboxes requests, so the pending prefix such a request cuts
// counts in Batches alone.
type Metrics struct {
	QueueDepth     int64 // current admission-queue gauge (attempts holding/seeking a slot)
	QueueHighWater int64

	Submitted uint64
	Shed      uint64 // submissions refused by the Shed policy
	// Deprecated: OverQuota counted refusals by per-mailbox admission
	// quotas, which no longer exist; it always reads 0.
	OverQuota       uint64
	Responded       uint64
	Batches         uint64
	SizeFlushes     uint64
	DeadlineFlushes uint64
	SerialFlushes   uint64
	RejectedBatches uint64
	Retried         uint64
	Failed          uint64
	Unsettled       uint64
	DeadlineShed    uint64 // admitted requests shed past their deadline
	ClosedUnserved  uint64 // admitted requests abandoned at Shed-policy Close

	// Deprecated: CollectWaitNs measured a two-stage serving pipeline that
	// no longer exists; it always reads 0.
	CollectWaitNs int64
	// Deprecated: HandoffBlockNs measured a two-stage serving pipeline that
	// no longer exists; it always reads 0.
	HandoffBlockNs int64
	// EvalBusyNs is the serve loop's time inside batch work: ticks,
	// settling, responses and the fan-out pump.
	EvalBusyNs int64

	// Cumulative runtime tick-phase time across batch and settle ticks.
	TickDeliverNs int64
	// Deprecated: TickSnapshotNs measured a per-tick state copy that no
	// longer exists; it always reads 0.
	TickSnapshotNs int64
	TickHandlersNs int64
	TickApplyNs    int64
	Ticks          uint64
}

func (m *metrics) snapshot() Metrics {
	return Metrics{
		QueueDepth:      m.queueDepth.Load(),
		QueueHighWater:  m.queueHighWater.Load(),
		Submitted:       m.submitted.Load(),
		Shed:            m.shed.Load(),
		Responded:       m.responded.Load(),
		Batches:         m.batches.Load(),
		SizeFlushes:     m.sizeFlushes.Load(),
		DeadlineFlushes: m.deadlineFlushes.Load(),
		SerialFlushes:   m.serialFlushes.Load(),
		RejectedBatches: m.rejectedBatches.Load(),
		Retried:         m.retried.Load(),
		Failed:          m.failed.Load(),
		Unsettled:       m.unsettled.Load(),
		DeadlineShed:    m.deadlineShed.Load(),
		ClosedUnserved:  m.closedUnserved.Load(),
		EvalBusyNs:      m.evalBusyNs.Load(),
		TickDeliverNs:   m.tickDeliverNs.Load(),
		TickHandlersNs:  m.tickHandlersNs.Load(),
		TickApplyNs:     m.tickApplyNs.Load(),
		Ticks:           m.ticks.Load(),
	}
}

// gaugeInc bumps the queue-depth gauge and tracks its high-water mark.
func (m *metrics) gaugeInc() {
	d := m.queueDepth.Add(1)
	for {
		hw := m.queueHighWater.Load()
		if d <= hw || m.queueHighWater.CompareAndSwap(hw, d) {
			return
		}
	}
}

func (m *metrics) gaugeDec() { m.queueDepth.Add(-1) }
