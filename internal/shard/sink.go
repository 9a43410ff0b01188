package shard

import (
	"fmt"

	"hydro/internal/datalog"
)

// Sink adapts a Deployment to the transducer's DurabilitySink seam: a
// runtime journals every committed tick's base ops through
// Append/Committed, and the sink forwards each committed tick to
// the sharded deployment as a Submit. The runtime's local fixpoint and
// the deployment's distributed one then converge to the same relations —
// a single-node transducer teeing its ticks into a replicated cluster.
//
// Append is called before the runtime applies the tick, so the recorded
// ops are exactly the base changes (no derived cascade yet); Committed
// seals them; AbortLast drops a tick the evaluator rejected.
type Sink struct {
	dep    *Deployment
	staged [][]datalog.DeltaOp
}

// NewSink returns a sink feeding dep.
func NewSink(dep *Deployment) *Sink { return &Sink{dep: dep} }

// Append stages the tick's base ops (copied: the runtime extends the same
// slice with the derived cascade during Apply).
func (s *Sink) Append(d *datalog.Delta) error {
	ops := append([]datalog.DeltaOp(nil), d.Ops()...)
	s.staged = append(s.staged, ops)
	return nil
}

// AbortLast drops the most recently appended tick.
func (s *Sink) AbortLast() error {
	if len(s.staged) == 0 {
		return fmt.Errorf("shard: AbortLast with no staged tick")
	}
	s.staged = s.staged[:len(s.staged)-1]
	return nil
}

// Committed submits every staged tick to the deployment, preserving order.
// On a Submit failure the already-submitted prefix is dropped from the
// stage — keeping it would re-Submit those ticks on the next Committed and
// double-apply them on the cluster — while the failed tick and its
// successors stay staged for retry.
func (s *Sink) Committed(*datalog.Incremental) error {
	for i, ops := range s.staged {
		if err := s.dep.Submit(ops); err != nil {
			s.staged = s.staged[i:]
			return err
		}
	}
	s.staged = nil
	return nil
}
