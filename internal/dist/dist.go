package dist

import (
	"context"
	"fmt"
	"runtime"

	"lcp/internal/core"
	"lcp/internal/partition"
)

// Options tunes the runtime's scheduler. The zero value is the default
// configuration used by Check and Collect: GOMAXPROCS shard goroutines
// over the contiguous partition.
type Options struct {
	// Shards is the number of shard goroutines the node automata are
	// batched onto, capped at the node count. 0 means GOMAXPROCS.
	// Same-shard message delivery is a direct merge into the
	// neighbour's automaton (no channel); only cross-shard edges keep
	// their ports. Shards ≥ n runs one automaton per shard, every edge
	// a port — the paper's network of n independent processors on the
	// same round loop. Verdicts are identical for every shard count.
	Shards int
	// Partitioner computes the node→shard assignment. nil means
	// partition.Contiguous{}: near-equal chunks of the ascending
	// identifier order. Locality-aware partitioners
	// (partition.BFSChunks, partition.GreedyBalanced) cut fewer edges
	// across shard boundaries, which means fewer ports, fewer channel
	// operations per round, and less cross-shard traffic on graphs
	// whose identifiers do not follow topology. Verdicts are identical
	// under every assignment.
	Partitioner partition.Partitioner
}

// shardCount resolves the shard goroutine count for an n-node network:
// at least 1 and at most n.
func (o Options) shardCount(n int) int {
	s := o.Shards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	return max(1, min(s, n))
}

// partitioner resolves the shard partitioner: the configured one, or
// the contiguous id-range default.
func (o Options) partitioner() partition.Partitioner {
	if o.Partitioner != nil {
		return o.Partitioner
	}
	return partition.Contiguous{}
}

// nodeVerdict is one node's contribution to the run result.
type nodeVerdict struct {
	id  int
	ok  bool
	err error
}

// Check runs the verifier on the message-passing runtime: every node
// automaton floods for Radius() rounds, assembles its view, and decides.
// The result is verdict-for-verdict identical to core.Check. The error is
// non-nil only if the network could not run (nil arguments) or a verifier
// panicked inside a shard goroutine.
func Check(in *core.Instance, p core.Proof, v core.Verifier) (*core.Result, error) {
	return CheckWith(in, p, v, Options{})
}

// CheckWith is Check with an explicit scheduler configuration: the
// shard count and the node→shard partitioner.
func CheckWith(in *core.Instance, p core.Proof, v core.Verifier, opt Options) (*core.Result, error) {
	//lint:ignore ctxflow ctx-less CheckWith is the documented uncancellable entry point; CheckWithCtx is the threaded variant
	return CheckWithCtx(context.Background(), in, p, v, opt)
}

// CheckWithCtx is CheckWith with context cancellation: runs abort
// between communication rounds (the context watcher poisons the round
// barrier and every shard stops after the same round) and return
// ctx.Err().
func CheckWithCtx(ctx context.Context, in *core.Instance, p core.Proof, v core.Verifier, opt Options) (*core.Result, error) {
	if in == nil || in.G == nil {
		return nil, fmt.Errorf("dist: nil instance")
	}
	if v == nil {
		return nil, fmt.Errorf("dist: nil verifier")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if in.G.N() == 0 {
		return &core.Result{Outputs: map[int]bool{}}, nil
	}
	net, err := buildNetwork(in, opt)
	if err != nil {
		return nil, err
	}
	res, err := net.run(ctx, in, p, v)
	net.release()
	return res, err
}

// Collect assembles the radius-r view of center by running the flooding
// protocol: every node participates in r communication rounds, after
// which center reconstructs (G[v,r], P[v,r], v) from what reached it. The
// result is identical to core.BuildView(in, p, center, radius) — the
// property test in the package asserts this — but is produced without
// any shared-memory traversal of the graph.
func Collect(in *core.Instance, p core.Proof, center, radius int) *core.View {
	return CollectWith(in, p, center, radius, Options{})
}

// CollectWith is Collect with an explicit scheduler configuration. Like
// Collect it panics on impossible inputs — an unknown center, or a
// custom Partitioner returning an invalid assignment.
func CollectWith(in *core.Instance, p core.Proof, center, radius int, opt Options) *core.View {
	if !in.G.Has(center) {
		panic(fmt.Sprintf("dist: unknown node %d", center))
	}
	net, err := buildNetwork(in, opt)
	if err != nil {
		panic(err)
	}
	for _, nd := range net.nodes {
		nd.seed(p)
	}
	v := net.collect(in, center, radius)
	net.release()
	return v
}
