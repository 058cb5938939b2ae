package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"lcp/internal/core"
)

// The round loop. The node automata are batched onto shard goroutines
// (Options.Shards, GOMAXPROCS by default): each shard steps all of its
// nodes through one communication round together, delivering
// same-shard messages by a direct merge into the neighbour's automaton
// (no channel) and using ports only across shard boundaries. The round
// barrier has one participant per shard. With Shards ≥ n every shard
// owns one automaton and every edge is a port — the paper's network of
// independent processors, run by the same loop.
//
// Verdicts are identical to core.Check for every shard count: within a
// round every automaton's outgoing batch (cur) is frozen before any
// delivery happens, so a merge can never leak round-r knowledge into a
// round-r send. A round runs in four strict phases per shard —
//
//	1. send cur on every cross-shard port (non-blocking: each port has a
//	   free slot by the time the round starts);
//	2. rewind every owned node's next buffer;
//	3. deliver cur to same-shard neighbours by direct merge, then
//	   receive exactly one batch per cross-shard in-port and merge;
//	4. swap cur/next everywhere and hit the shard barrier.
//
// Phases 1–3 only read cur buffers, and a batch sent over a port is
// drained by the receiving shard before it reaches its own barrier, so
// the two batch buffers of every node are reused round after round.

// runShards fans the verdict work out by shard: every shard goroutine
// floods its nodes and then assembles and verifies each of them in
// place, so decision concurrency is the shard count. An aborted flood
// (a cancelled run poisoning the shard barrier) still reports one
// verdict per node, carrying errRunAborted, so run's collection loop
// drains exactly one entry per node.
func (net *network) runShards(in *core.Instance, radius, rounds int, v core.Verifier, verdicts chan<- nodeVerdict, wg *sync.WaitGroup, floodNS *atomic.Int64) {
	wg.Add(len(net.shards))
	for _, group := range net.shards {
		go func(group []*node) {
			defer wg.Done()
			var t0 time.Time
			if floodNS != nil {
				t0 = time.Now()
			}
			aborted := floodShard(group, rounds, net.bar)
			if floodNS != nil {
				storeMax(floodNS, int64(time.Since(t0)))
			}
			for _, nd := range group {
				if aborted {
					verdicts <- nodeVerdict{id: nd.id, err: errRunAborted}
					continue
				}
				verdicts <- decide(nd, in, radius, v)
			}
		}(group)
	}
}

// floodShard steps every node of one shard through the flooding
// protocol, one communication round at a time; bar is the shard-level
// barrier.
//
// The return value reports a poisoned-barrier abort: every shard gets
// the same per-round decision from the barrier, so all of them stop
// after the same round with every port drained.
func floodShard(group []*node, rounds int, bar *barrier) bool {
	for r := 1; r <= rounds; r++ {
		// Phase 1: cross-shard sends. cur buffers are frozen for the
		// whole delivery phase, mirroring "every node sends what it
		// learned last round" of the synchronous model.
		for _, nd := range group {
			for _, port := range nd.out {
				port <- nd.cur
			}
		}
		// Phase 2: rewind the accumulation buffers before any merge of
		// this round can append to them.
		for _, nd := range group {
			nd.next = nd.next[:0]
		}
		// Phase 3: same-shard delivery by direct merge, then cross-shard
		// receives. Merges mutate known/dist/next/indEdges only — never
		// a cur buffer — so ordering within the phase is irrelevant.
		for _, nd := range group {
			for _, nb := range nd.local {
				nb.merge(nd.cur, r)
			}
		}
		for _, nd := range group {
			for _, port := range nd.in {
				nd.merge(<-port, r)
			}
		}
		// Phase 4: everything learned this round becomes the next send.
		for _, nd := range group {
			nd.cur, nd.next = nd.next, nd.cur
		}
		if bar.await() {
			return true
		}
	}
	return false
}
