package dist

import (
	"sync/atomic"

	"lcp/internal/obs"
)

// The runtime's observable quantities are exactly the ones the paper's
// model prices: communication rounds and messages exchanged. Both are
// counted analytically at run granularity — the wiring fixes how many
// deliveries one synchronous round performs (every out-port carries
// exactly one batch per round, every same-shard link merges exactly
// once per round), so a completed run contributes ports×rounds without
// the flooding loops ever touching a counter. Aborted runs increment
// only their own counter: how many rounds they completed before the
// poison landed is not observable from outside the barrier, so their
// rounds and deliveries go uncounted.
var (
	distRuns        = obs.Default().Counter("lcp_dist_runs_total", "Completed distributed verification runs.")
	distRunsAborted = obs.Default().Counter("lcp_dist_runs_aborted_total", "Distributed runs aborted by context cancellation.")
	distRounds      = obs.Default().Counter("lcp_dist_rounds_total", "Communication rounds executed by completed runs.")
	distCrossShard  = obs.Default().Counter("lcp_dist_deliveries_total", deliveriesHelp, obs.Label{Name: "link", Value: "cross-shard"})
	distSameShard   = obs.Default().Counter("lcp_dist_deliveries_total", deliveriesHelp, obs.Label{Name: "link", Value: "same-shard"})
)

// deliveriesHelp is shared by both link kinds of one counter family.
const deliveriesHelp = "Message deliveries by completed runs, split by link kind: cross-shard rides a channel port, same-shard is a direct merge. With one node per shard every delivery is cross-shard."

// MetricsSnapshot is a point-in-time read of the runtime's counters,
// for tests and tools that want deltas around a run.
type MetricsSnapshot struct {
	Runs                 float64
	RunsAborted          float64
	Rounds               float64
	CrossShardDeliveries float64
	SameShardDeliveries  float64
}

// Metrics reads the current counter values.
func Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Runs:                 distRuns.Value(),
		RunsAborted:          distRunsAborted.Value(),
		Rounds:               distRounds.Value(),
		CrossShardDeliveries: distCrossShard.Value(),
		SameShardDeliveries:  distSameShard.Value(),
	}
}

// storeMax raises a to at least v. The flood workers use it to publish
// the slowest worker's wall time — the parallel phase's critical path —
// as the run's "dist.flood" stage.
func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// countRun records one finished run's contribution to the counters.
func countRun(net *network, rounds int, aborted bool) {
	if aborted {
		distRunsAborted.Inc()
		return
	}
	distRuns.Inc()
	distRounds.Add(float64(rounds))
	distCrossShard.Add(float64(net.crossPorts * rounds))
	distSameShard.Add(float64(net.localLinks * rounds))
}
