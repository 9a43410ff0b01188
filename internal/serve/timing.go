package serve

// RequestTiming is one admitted request's life, broken into the four
// serving phases: enqueue → flush (time spent in the admission queue),
// flush → eval (batch assembly and injection into the runtime), eval (the
// batch tick plus cascade settling — the shared fixpoint cost), and
// respond (reply correlation and delivery to the caller). Every Response
// carries one, shed and abandoned requests included.
type RequestTiming struct {
	ID            uint64 // runtime message ID assigned at flush (0 if shed before flush)
	Mailbox       string
	Batch         uint64 // batch sequence number (a retried singleton's own tick)
	Index         int    // position within the batch (0 for singletons)
	BatchSize     int
	EnqueueUnixNs int64 // admission wall-clock timestamp
	QueueNs       int64 // enqueue → flush
	FlushNs       int64 // flush → tick start (batch assembly + injection)
	EvalNs        int64 // batch tick + settle (shared across the batch)
	RespondNs     int64 // settle end → response delivered
	TotalNs       int64
	Rejected      bool // rejected tick, or abandoned at Close
	Retried       bool // re-injected as a singleton after its batch tick was rejected
}
