package shard

import "hydro/internal/simnet"

// ctlMetrics holds the control plane's observational counters — the ones
// that are properties of message delivery rather than of the replicated
// log (those live in ctlState, where they are deterministic and agreed).
// Plain fields: the deployment runs on one goroutine, the one that drives
// its simulated network.
type ctlMetrics struct {
	fencedReqs    uint64      // replica-side drops of stale-epoch requests/exchanges
	fencedCommits uint64      // replica-side drops of stale-epoch commits
	heartbeats    uint64      // leader heartbeats sent
	attempts      uint64      // attempts started by acting leaders, restarts included
	maxEpoch      uint64      // highest epoch any coordinator has applied
	lastChange    simnet.Time // virtual time the highest epoch was first applied
	rows          uint64      // Metrics.RowsShipped
	rounds        uint64      // Metrics.Rounds
}

// noteLeaderChange records the first application time of each new epoch:
// every coordinator applies the same elect decree, and only the first to
// apply an epoch above the highest seen stamps it.
func (m *ctlMetrics) noteLeaderChange(now simnet.Time, epoch uint64) {
	if epoch > m.maxEpoch {
		m.maxEpoch, m.lastChange = epoch, now
	}
}

// Metrics is a point-in-time snapshot of the replicated control plane,
// read from the most-caught-up coordinator's replicated state plus the
// delivery-side counters. Rendered by `benchtab` (experiment E14).
type Metrics struct {
	Epoch            uint64      // current leadership epoch
	Leader           string      // node name holding the epoch's lease
	Elections        uint64      // elect decrees applied
	LastLeaderChange simnet.Time // virtual time of the latest election
	SubmitDecrees    uint64      // ticks admitted to the replicated queue
	Attempts         uint64      // attempts started by acting leaders, restarts included
	CommitDecrees    uint64      // ticks sealed on the log
	StaleDecrees     uint64      // decrees rejected by the state-machine guards
	DoubleCommits    uint64      // commit decrees for an already-sealed tick (invariant: 0)
	FencedReqs       uint64      // stale-epoch requests dropped by replicas
	FencedCommits    uint64      // stale-epoch commits dropped by replicas
	Heartbeats       uint64      // leader heartbeats sent
	CommittedTicks   uint64      // ticks committed on every data replica
	Phase1Rounds     uint64      // Paxos phase-1 rounds the coordinators started
	PaxosSends       uint64      // Paxos messages the coordinators sent
	RowsShipped      uint64      // rows exchange rounds shipped, a copy per replica sent to, itself included
	Rounds           uint64      // component exchange rounds replica 0 closed, restarted attempts included
	// Deprecated: AttemptDecrees counted attempt decrees on the control
	// log, which no longer exist; it always reads 0. Read Attempts.
	AttemptDecrees uint64
}

// Metrics snapshots the control plane.
func (d *Deployment) Metrics() Metrics {
	st := &d.view().st
	var phase1, sends uint64
	for _, cn := range d.coords {
		cs := cn.cons.Stats()
		phase1 += cs.Phase1Rounds
		sends += cs.Sends
	}
	return Metrics{
		Epoch:            st.epoch,
		Leader:           d.coordNames[st.leader],
		Elections:        st.elections,
		LastLeaderChange: d.metrics.lastChange,
		SubmitDecrees:    st.submits,
		Attempts:         d.metrics.attempts,
		CommitDecrees:    st.commits,
		StaleDecrees:     st.stale,
		DoubleCommits:    st.doubleCommits,
		FencedReqs:       d.metrics.fencedReqs,
		FencedCommits:    d.metrics.fencedCommits,
		Heartbeats:       d.metrics.heartbeats,
		CommittedTicks:   d.CommittedTicks(),
		Phase1Rounds:     phase1,
		PaxosSends:       sends,
		RowsShipped:      d.metrics.rows,
		Rounds:           d.metrics.rounds,
	}
}
