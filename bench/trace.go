package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/durable"
	"hydro/internal/transducer"
)

// span is one interval at a layer boundary, timed from bench/'s side of the
// call. Spans of one request share its id; spans of one batch share the
// batch sequence number.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`     // request index + 1, or batch sequence for batch-level spans
	Batch   uint64 `json:"batch"`  // serve batch sequence (shared identifier)
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tickTrace is what the tracer keeps of one committed tick: the base ops
// the runtime journaled (replayed offline through a fresh Incremental) and
// the clock at the four edges of the sink calls. The runtime calls
// Append, then Incremental.Apply, then Committed, so appendEnd →
// commitStart is the live Apply.
type tickTrace struct {
	ops                                            []datalog.DeltaOp
	appendStart, appendEnd, commitStart, commitEnd int64
	// Bytes the store wrote during each call (durable runs only): the
	// changelog record, and the snapshot when Committed took one.
	appendBytes, committedBytes int64
}

// countingFS is the store's file layer in a traced durable run, counting
// the bytes written through it.
type countingFS struct {
	durable.FS
	written int64
}

type countingFile struct {
	durable.File
	fs *countingFS
}

func (f *countingFS) Create(name string) (durable.File, error) {
	file, err := f.FS.Create(name)
	return &countingFile{file, f}, err
}

func (f *countingFS) OpenAppend(name string) (durable.File, error) {
	file, err := f.FS.OpenAppend(name)
	return &countingFile{file, f}, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written += int64(n)
	return n, err
}

// tracer sits in the runtime's durability seam during a traced run. It
// forwards to the workload's real sink (a durable.Store or a shard.Sink)
// when there is one, and is the whole sink when there is none.
type tracer struct {
	inner transducer.DurabilitySink
	// Span names of the two sink calls: durable.append/committed,
	// shard.stage/submit, or trace.record/committed when the tracer is the
	// whole sink.
	appendName, committedName string
	files                     *countingFS // durable runs only
	ticks                     []tickTrace
	preloaded                 int        // ticks[:preloaded] are set-up, not measured
	settles                   [][2]int64 // start and end of each Settle that had a tick to commit
	unsettled                 bool       // a tick was submitted since the last Settle
}

func (t *tracer) written() int64 {
	if t.files == nil {
		return 0
	}
	return t.files.written
}

func newTracer(inner transducer.DurabilitySink, w *workload) *tracer {
	t := &tracer{inner: inner, appendName: "trace.record", committedName: "trace.committed"}
	switch {
	case w.durable:
		t.appendName, t.committedName = "durable.append", "durable.committed"
	case w.sharded:
		t.appendName, t.committedName = "shard.stage", "shard.submit"
	}
	return t
}

func (t *tracer) Append(d *datalog.Delta) error {
	tt := tickTrace{appendStart: time.Now().UnixNano(), appendBytes: -t.written()}
	// Copied: the runtime extends the same slice with the derived cascade
	// during Apply.
	tt.ops = append([]datalog.DeltaOp(nil), d.Ops()...)
	var err error
	if t.inner != nil {
		err = t.inner.Append(d)
	}
	tt.appendEnd = time.Now().UnixNano()
	tt.appendBytes += t.written()
	if err == nil {
		t.ticks = append(t.ticks, tt)
	}
	return err
}

func (t *tracer) AbortLast() error {
	t.ticks = t.ticks[:len(t.ticks)-1]
	if t.inner != nil {
		return t.inner.AbortLast()
	}
	return nil
}

func (t *tracer) Committed(inc *datalog.Incremental) error {
	tt := &t.ticks[len(t.ticks)-1]
	tt.commitStart = time.Now().UnixNano()
	tt.committedBytes = -t.written()
	var err error
	if t.inner != nil {
		err = t.inner.Committed(inc)
	}
	tt.commitEnd = time.Now().UnixNano()
	tt.committedBytes += t.written()
	t.unsettled = true
	return err
}

// timedSettle wraps the deployment's pump so each Settle with work to do
// becomes a span (the pump also runs after batches that committed nothing).
func (t *tracer) timedSettle(pump func()) func() {
	return func() {
		t0 := time.Now().UnixNano()
		pump()
		if t.unsettled {
			t.settles = append(t.settles, [2]int64{t0, time.Now().UnixNano()})
			t.unsettled = false
		}
	}
}

// buildSpans turns a traced rep into the span forest:
//
//	request            due/submitted → resolved, one per request
//	  serve.queue, serve.flush, serve.eval, serve.respond   (Response.Timing)
//	serve.batch        flush start → last response, one per batch
//	  <sink>.append, datalog.apply, <sink>.committed, shard.settle
//
// Batch-level children are attached to the latest batch started before
// them (one eval goroutine runs the batches, so they do not overlap; a
// batch's Settle runs after its responses, before the next batch).
func buildSpans(r *rep, t *tracer) []span {
	var spans []span
	batches := map[uint64]int{}
	for i, rec := range r.recs {
		tm := rec.timing
		if tm.Batch == 0 {
			continue // never reached a tick
		}
		id := uint64(i + 1)
		enq := tm.EnqueueUnixNs
		root := len(spans)
		spans = append(spans, span{Name: "request", ID: id, Batch: tm.Batch, Parent: -1, StartNs: enq, EndNs: enq + tm.TotalNs})
		at := enq
		for _, ph := range []struct {
			name string
			ns   int64
		}{{"serve.queue", tm.QueueNs}, {"serve.flush", tm.FlushNs}, {"serve.eval", tm.EvalNs}, {"serve.respond", tm.RespondNs}} {
			spans = append(spans, span{Name: ph.name, ID: id, Batch: tm.Batch, Parent: root, StartNs: at, EndNs: at + ph.ns})
			at += ph.ns
		}
		flushStart, end := enq+tm.QueueNs, enq+tm.TotalNs
		if bi, ok := batches[tm.Batch]; !ok {
			batches[tm.Batch] = len(spans)
			spans = append(spans, span{Name: "serve.batch", ID: tm.Batch, Batch: tm.Batch, Parent: -1, StartNs: flushStart, EndNs: end})
		} else if end > spans[bi].EndNs {
			spans[bi].EndNs = end
		}
	}

	// Batch spans in time order, for attaching the tick-level children.
	order := make([]int, 0, len(batches))
	for _, bi := range batches {
		order = append(order, bi)
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].StartNs < spans[order[b]].StartNs })
	parentOf := func(start int64) int {
		k := sort.Search(len(order), func(k int) bool { return spans[order[k]].StartNs > start }) - 1
		if k < 0 {
			return -1
		}
		return order[k]
	}
	child := func(name string, start, end int64) {
		p := parentOf(start)
		var batch uint64
		if p >= 0 {
			batch = spans[p].Batch
		}
		spans = append(spans, span{Name: name, ID: batch, Batch: batch, Parent: p, StartNs: start, EndNs: end})
	}
	for _, tt := range t.ticks[t.preloaded:] {
		child(t.appendName, tt.appendStart, tt.appendEnd)
		child("datalog.apply", tt.appendEnd, tt.commitStart)
		child(t.committedName, tt.commitStart, tt.commitEnd)
	}
	for _, st := range t.settles {
		child("shard.settle", st[0], st[1])
	}
	return spans
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children clipped to the parent, overlapping
// children counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNs < spans[ks[b]].StartNs })
		covered, at := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := max(spans[k].StartNs, at), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfByName sums self time per span name over the spans whose start lies
// in [from, to).
func selfByName(spans []span, from, to int64) map[string]int64 {
	out := map[string]int64{}
	for i, self := range selfTimes(spans) {
		if s := spans[i]; s.StartNs >= from && s.StartNs < to {
			out[s.Name] += self
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
