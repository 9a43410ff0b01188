package serve

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// RequestTiming is one admitted request's life, broken into the four
// serving phases: enqueue → flush (time spent in the admission queue),
// flush → eval (batch assembly and injection into the runtime), eval (the
// batch tick plus cascade settling — the shared fixpoint cost), and
// respond (reply correlation and delivery to the caller). The struct is
// deliberately flat and numeric so a run dumps straight to CSV and any
// spreadsheet/benchtab can aggregate it.
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
	Rejected      bool // rejected tick, deadline shed, or abandoned at Close
	Retried       bool // re-injected as a singleton after its batch tick was rejected
}

// csvHeader is the column order every timing CSV uses.
var csvHeader = []string{
	"id", "mailbox", "batch", "index", "batch_size", "enqueue_unix_ns",
	"queue_ns", "flush_ns", "eval_ns", "respond_ns", "total_ns", "rejected", "retried",
}

// CSVHeader returns the header row for WriteCSV output.
func CSVHeader() []string { return append([]string(nil), csvHeader...) }

// Row renders the timing as one CSV record, matching CSVHeader.
func (t RequestTiming) Row() []string {
	return []string{
		strconv.FormatUint(t.ID, 10),
		t.Mailbox,
		strconv.FormatUint(t.Batch, 10),
		strconv.Itoa(t.Index),
		strconv.Itoa(t.BatchSize),
		strconv.FormatInt(t.EnqueueUnixNs, 10),
		strconv.FormatInt(t.QueueNs, 10),
		strconv.FormatInt(t.FlushNs, 10),
		strconv.FormatInt(t.EvalNs, 10),
		strconv.FormatInt(t.RespondNs, 10),
		strconv.FormatInt(t.TotalNs, 10),
		strconv.FormatBool(t.Rejected),
		strconv.FormatBool(t.Retried),
	}
}

// WriteCSV dumps timings (header included) to w.
func WriteCSV(w io.Writer, timings []RequestTiming) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, t := range timings {
		if err := cw.Write(t.Row()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a timing CSV produced by WriteCSV (benchtab -timings
// ingests these to render the summary table offline).
func ReadCSV(r io.Reader) ([]RequestTiming, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty timing CSV")
	}
	if strings.Join(rows[0], ",") != strings.Join(csvHeader, ",") {
		return nil, fmt.Errorf("unexpected timing CSV header %v", rows[0])
	}
	out := make([]RequestTiming, 0, len(rows)-1)
	for _, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			return nil, fmt.Errorf("short timing row %v", row)
		}
		var t RequestTiming
		t.ID, _ = strconv.ParseUint(row[0], 10, 64)
		t.Mailbox = row[1]
		t.Batch, _ = strconv.ParseUint(row[2], 10, 64)
		t.Index, _ = strconv.Atoi(row[3])
		t.BatchSize, _ = strconv.Atoi(row[4])
		t.EnqueueUnixNs, _ = strconv.ParseInt(row[5], 10, 64)
		t.QueueNs, _ = strconv.ParseInt(row[6], 10, 64)
		t.FlushNs, _ = strconv.ParseInt(row[7], 10, 64)
		t.EvalNs, _ = strconv.ParseInt(row[8], 10, 64)
		t.RespondNs, _ = strconv.ParseInt(row[9], 10, 64)
		t.TotalNs, _ = strconv.ParseInt(row[10], 10, 64)
		t.Rejected = row[11] == "true"
		t.Retried = row[12] == "true"
		out = append(out, t)
	}
	return out, nil
}

// PhaseSummary is one phase's latency distribution across a run.
type PhaseSummary struct {
	Name               string
	P50, P90, P99, Max int64 // ns
	MeanNs             float64
}

// Summary aggregates a run's request timings into per-phase percentiles —
// the p50/p99 enqueue→flush→eval→respond breakdown the load generator
// reports.
type Summary struct {
	Count     int
	Rejected  int
	MeanBatch float64
	Phases    []PhaseSummary // queue, flush, eval, respond, total
}

// Summarize computes the per-phase latency distribution of a run.
func Summarize(timings []RequestTiming) Summary {
	s := Summary{Count: len(timings)}
	if len(timings) == 0 {
		return s
	}
	batchSum := 0
	for _, t := range timings {
		if t.Rejected {
			s.Rejected++
		}
		batchSum += t.BatchSize
	}
	s.MeanBatch = float64(batchSum) / float64(len(timings))
	phases := []struct {
		name string
		get  func(RequestTiming) int64
	}{
		{"queue", func(t RequestTiming) int64 { return t.QueueNs }},
		{"flush", func(t RequestTiming) int64 { return t.FlushNs }},
		{"eval", func(t RequestTiming) int64 { return t.EvalNs }},
		{"respond", func(t RequestTiming) int64 { return t.RespondNs }},
		{"total", func(t RequestTiming) int64 { return t.TotalNs }},
	}
	vals := make([]int64, len(timings))
	for _, ph := range phases {
		sum := int64(0)
		for i, t := range timings {
			vals[i] = ph.get(t)
			sum += vals[i]
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s.Phases = append(s.Phases, PhaseSummary{
			Name:   ph.name,
			P50:    percentile(vals, 0.50),
			P90:    percentile(vals, 0.90),
			P99:    percentile(vals, 0.99),
			Max:    vals[len(vals)-1],
			MeanNs: float64(sum) / float64(len(vals)),
		})
	}
	return s
}

// percentile reads the nearest-rank percentile from sorted values.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Render draws the summary as an aligned text table (latencies in µs).
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d requests, %d rejected, mean batch %.1f\n", s.Count, s.Rejected, s.MeanBatch)
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s\n", "phase", "mean(us)", "p50(us)", "p90(us)", "p99(us)", "max(us)")
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "%-8s %12.1f %12.1f %12.1f %12.1f %12.1f\n",
			p.Name, p.MeanNs/1e3, float64(p.P50)/1e3, float64(p.P90)/1e3, float64(p.P99)/1e3, float64(p.Max)/1e3)
	}
	return b.String()
}
