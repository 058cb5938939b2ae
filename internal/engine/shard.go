package engine

import (
	"context"
	"fmt"
	"sync"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/obs"
	"lcp/internal/partition"
)

// The sharded message-passing path. A single dist runtime spans the
// whole graph; for large instances the engine instead spans several
// reusable runtimes, each owning a group of nodes chosen by the
// configured partitioner (each with its own scheduler shards, per
// Options.Dist). A shard's runtime is wired over the group's radius-r
// halo — every node within distance r of an owned node — so flooding
// inside the shard assembles exactly the views the owned nodes would
// see in the full graph (balls nest: ball(v, r) of an owned v lies
// entirely inside the halo, and shortest paths from v stay in the
// ball). Only owned verdicts are reported;
// halo-only nodes exist to carry messages. The halo is where the
// partitioner earns its keep: carriers are duplicated flooding work,
// one copy per shard whose boundary they pad, and a topologically
// tight owned set has a thin boundary — a locality-aware cut shrinks
// exactly the nodes that are paid for more than once.
type shardedNets struct {
	shards []*distShard
}

type distShard struct {
	owned []int // nodes whose verdicts this shard reports
	net   *dist.Network
}

func (sn *shardedNets) close() {
	for _, s := range sn.shards {
		s.net.Close()
	}
}

// netsFor returns the sharded runtimes for the radius, wiring them on
// first use behind the radius's build guard. tl, when non-nil, receives
// the cold build's cost split into the "engine.partition" (node→shard
// assignment) and "engine.wire" (halo construction + runtime wiring)
// stages; warm calls contribute nothing.
func (e *Engine) netsFor(radius int, tl *obs.Timeline) (*shardedNets, error) {
	e.mu.Lock()
	c, ok := e.nets[radius]
	if !ok {
		c = &netCache{}
		e.nets[radius] = c
	}
	e.mu.Unlock()
	c.once.Do(func() {
		nodes := e.in.G.Nodes()
		sn := &shardedNets{}
		shards := e.opt.shards()
		if shards > len(nodes) {
			shards = len(nodes)
		}
		var groups [][]int
		if shards > 0 && len(nodes) > 0 {
			stop := tl.Start("engine.partition")
			assign := e.opt.partitioner().Assign(e.in.G, shards)
			if err := partition.Validate(assign, len(nodes), shards); err != nil {
				stop()
				c.err = fmt.Errorf("engine: partitioner %q: %v", e.opt.partitioner().Name(), err)
				return
			}
			groups = partition.Groups(e.in.G, assign, shards)
			stop()
		}
		stopWire := tl.Start("engine.wire")
		defer stopWire()
		for _, owned := range groups {
			if len(owned) == 0 {
				continue
			}
			sub := e.in
			dopt := e.opt.Dist
			if len(owned) < len(nodes) {
				sub = haloInstance(e.in, owned, radius)
				// Halo-only nodes exist to carry messages: they flood
				// but never assemble a view or run the verifier (their
				// verdicts would be discarded, and their halo-clipped
				// views could even panic a structure-asserting
				// verifier).
				dopt.DecideOnly = owned
			}
			nw, err := dist.NewNetwork(sub, dopt)
			if err != nil {
				sn.close()
				c.err = err
				return
			}
			engineHaloOwned.Add(float64(len(owned)))
			engineHaloCarrier.Add(float64(sub.G.N() - len(owned)))
			engineRuntimes.Inc()
			sn.shards = append(sn.shards, &distShard{owned: owned, net: nw})
		}
		c.sn = sn
	})
	return c.sn, c.err
}

// HaloInstance restricts the instance to the union of radius-r balls
// around the owned nodes — the exported surface of the engine's halo
// cutter, used by the multi-process coordinator to ship each worker its
// shard's slice: at radius 1 the halo contains every owned node with
// all incident edges and their endpoints, which is exactly the round-0
// knowledge the transport-backed shard runner needs (everything deeper
// arrives over the wire).
func HaloInstance(in *core.Instance, owned []int, radius int) *core.Instance {
	return haloInstance(in, owned, radius)
}

// haloInstance restricts the instance to the union of radius-r balls
// around the owned nodes. The graph is induced on the halo; the
// labelling maps are shared with the parent (records only ever read
// entries of member nodes, and the nil-map conventions must match the
// full instance for verdict equivalence).
func haloInstance(in *core.Instance, owned []int, radius int) *core.Instance {
	seen := make(map[int]bool, len(owned))
	frontier := make([]int, 0, len(owned))
	halo := make([]int, 0, len(owned))
	for _, v := range owned {
		seen[v] = true
		frontier = append(frontier, v)
		halo = append(halo, v)
	}
	for d := 1; d <= radius && len(frontier) > 0; d++ {
		var next []int
		for _, u := range frontier {
			for _, w := range in.G.UndirectedNeighbors(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					halo = append(halo, w)
				}
			}
		}
		frontier = next
	}
	return &core.Instance{
		G:         in.G.Induced(halo),
		NodeLabel: in.NodeLabel,
		EdgeLabel: in.EdgeLabel,
		Weights:   in.Weights,
		Global:    in.Global,
	}
}

// CheckDistributed verifies the proof on the message-passing path: each
// shard's reusable runtime floods its halo concurrently with the
// others, and the owned verdicts merge into one result. Verdicts are
// identical to dist.Check on the full instance (and hence to
// core.Check).
func (e *Engine) CheckDistributed(p core.Proof, v core.Verifier) (*core.Result, error) {
	//lint:ignore ctxflow ctx-less CheckDistributed is the documented uncancellable entry point; CheckDistributedCtx is the threaded variant
	return e.CheckDistributedCtx(context.Background(), p, v)
}

// CheckDistributedCtx is CheckDistributed with context cancellation:
// the context threads into every shard's runtime, where lockstep runs
// abort between communication rounds (see dist.Network.CheckCtx), so a
// cancelled caller stops burning shard goroutines instead of flooding
// every halo to completion.
func (e *Engine) CheckDistributedCtx(ctx context.Context, p core.Proof, v core.Verifier) (*core.Result, error) {
	if v == nil {
		return nil, fmt.Errorf("engine: nil verifier")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tl := obs.TimelineFrom(ctx)
	sn, err := e.netsFor(v.Radius(), tl)
	if err != nil {
		return nil, err
	}
	// The shards flood concurrently, each recording its own dist.* stages
	// into the same timeline; "engine.run" is the wall time of the whole
	// fan-out (so dist stage totals can exceed it — Count discloses the
	// summation).
	stopRun := tl.Start("engine.run")
	defer stopRun()
	res := &core.Result{Outputs: make(map[int]bool, e.in.G.N())}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for _, s := range sn.shards {
		wg.Add(1)
		go func(s *distShard) {
			defer wg.Done()
			sres, err := s.net.CheckCtx(ctx, p, v)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for _, id := range s.owned {
				res.Outputs[id] = sres.Outputs[id]
			}
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
