package dist

// The transport-backed shard runner: the sharded scheduler's four-phase
// round, executed against a transport.Transport instead of in-process
// channel ports. This is what a worker process runs for its shard of a
// partitioned instance — the same node automata, merge rules, and view
// assembly as the channel scheduler (so verdicts are identical to
// core.Check by the same argument), with the cross-shard edge behind
// the Transport interface: InProc for the single-process fan-out the
// equivalence tests pin, TCP for the multi-process coordinator.
//
// The phase structure maps onto the interface as:
//
//	phase 1 (freeze + send cur)   -> Send per cut edge, then Exchange
//	phase 2 (rewind next)         -> after Exchange returns
//	phase 3 (merge local + recv)  -> direct merges + the deliveries
//	phase 4 (swap + barrier)      -> swap cur/next, then Barrier
//
// Exchange is the delivery synchronization (all round-r traffic handed
// over) and Barrier the reuse synchronization (all round-r merges done,
// so rewinding buffers in round r+1 is safe). The in-process transport
// implements both as group gates; TCP copies at staging time and
// message-counts, so its Barrier is free.

import (
	"context"
	"fmt"

	"lcp/internal/core"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

// ShardPlan describes one shard's slice of a partitioned instance: the
// instance it can see, the nodes it runs automata for, and the
// node→shard assignment that routes its cut edges.
type ShardPlan struct {
	// In is the instance the shard's automata read their round-0
	// knowledge from. It must contain every owned node with all of its
	// incident edges and their endpoints — the radius-1 halo the
	// coordinator ships to each worker, or simply the full instance in
	// process. Model-level conventions (graph kind, Global, the nil-map
	// labelling conventions) must match the full instance, since view
	// assembly consults them.
	In *core.Instance
	// Owned lists the node ids this shard runs automata (and decides)
	// for.
	Owned []int
	// Assign maps node id -> owning shard, covering at least Owned and
	// every neighbor of an owned node.
	Assign map[int]int
}

// remoteLink is one cut edge of the plan: after each round, from's cur
// batch is staged for the neighbor dst on the owning peer shard.
type remoteLink struct {
	from *node
	peer int
	dst  int
}

// RunShard floods one shard's automata over the transport for the
// verifier's radius and decides every owned node. The outputs map has
// exactly one verdict per owned node; a transport failure, context
// cancellation, or verifier panic surfaces as an error (the first one
// wins) with no partial outputs.
//
// The caller owns the transport: RunShard never closes it, so stats
// survive the run. The automata are plain heap nodes, not drawn from
// the scheduler's pool — a transport run's batches cross shard (or
// process) lifetimes the pool's reuse discipline does not cover.
func RunShard(ctx context.Context, plan ShardPlan, tr transport.Transport, p core.Proof, v core.Verifier) (map[int]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	me := tr.Shard()
	byID := make(map[int]*node, len(plan.Owned))
	nodes := make([]*node, 0, len(plan.Owned))
	for _, id := range plan.Owned {
		if !plan.In.G.Has(id) {
			return nil, fmt.Errorf("dist: shard %d owns node %d, absent from its instance", me, id)
		}
		nd := &node{
			id:    id,
			base:  initialRecord(plan.In, id, nil),
			known: make(map[int]record),
			dist:  make(map[int]int),
		}
		byID[id] = nd
		nodes = append(nodes, nd)
	}
	// Wire after every automaton exists: same-shard neighbours get
	// direct-merge links, cut edges get remote links routed by the
	// assignment.
	var remotes []remoteLink
	for _, nd := range nodes {
		for _, w := range plan.In.G.UndirectedNeighbors(nd.id) {
			owner, ok := plan.Assign[w]
			if !ok {
				return nil, fmt.Errorf("dist: shard %d: neighbor %d of node %d has no shard assignment", me, w, nd.id)
			}
			if owner == me {
				nb := byID[w]
				if nb == nil {
					return nil, fmt.Errorf("dist: shard %d: node %d assigned here but not owned", me, w)
				}
				nd.local = append(nd.local, nb)
			} else {
				remotes = append(remotes, remoteLink{from: nd, peer: owner, dst: w})
			}
		}
	}
	for _, nd := range nodes {
		nd.seed(p)
	}
	radius := v.Radius()
	rounds := radius
	if rounds < 0 {
		rounds = 0
	}
	for r := 1; r <= rounds; r++ {
		// Phase 1: freeze and stage cur on every cut edge, then
		// exchange. cur buffers stay untouched through the delivery.
		for _, rl := range remotes {
			tr.Send(rl.peer, rl.dst, rl.from.cur)
		}
		dels, err := tr.Exchange(ctx, r)
		if err != nil {
			return nil, err
		}
		// Phase 2: rewind the accumulation buffers.
		for _, nd := range nodes {
			nd.next = nd.next[:0]
		}
		// Phase 3: same-shard direct merges, then the transport's
		// deliveries. Merges never touch a cur buffer, so ordering
		// within the phase is irrelevant.
		for _, nd := range nodes {
			for _, nb := range nd.local {
				nb.merge(nd.cur, r)
			}
		}
		for _, d := range dels {
			nd := byID[d.Dst]
			if nd == nil {
				return nil, fmt.Errorf("dist: shard %d: delivery for node %d, which it does not own", me, d.Dst)
			}
			nd.merge(d.Recs, r)
		}
		// Phase 4: swap, then close the round — after Barrier, every
		// shard has merged round r and buffer reuse is licensed.
		for _, nd := range nodes {
			nd.cur, nd.next = nd.next, nd.cur
		}
		if err := tr.Barrier(ctx, r); err != nil {
			return nil, err
		}
	}
	outputs := make(map[int]bool, len(nodes))
	for _, nd := range nodes {
		nv := decide(nd, plan.In, radius, v)
		if nv.err != nil {
			return nil, nv.err
		}
		outputs[nv.id] = nv.ok
	}
	return outputs, nil
}

// CheckTransport verifies one proof by fanning the instance out over an
// in-process transport group: shards partitions by pt (nil =
// contiguous), one shard goroutine per group, cut edges carried by
// transport.InProc. Verdict-identical to Check and core.Check — it is
// the single-process reference for the transport path, and what the
// cross-backend equivalence tests pin the TCP coordinator against.
func CheckTransport(ctx context.Context, in *core.Instance, p core.Proof, v core.Verifier, shards int, pt partition.Partitioner) (*core.Result, error) {
	ids := in.G.Nodes()
	if shards <= 0 {
		shards = 1
	}
	if shards > len(ids) {
		shards = len(ids)
	}
	if len(ids) == 0 {
		return &core.Result{Outputs: map[int]bool{}}, nil
	}
	if pt == nil {
		pt = partition.Contiguous{}
	}
	assign := pt.Assign(in.G, shards)
	if err := partition.Validate(assign, len(ids), shards); err != nil {
		return nil, fmt.Errorf("dist: partitioner %q: %v", pt.Name(), err)
	}
	groups := partition.Groups(in.G, assign, shards)
	assignByID := make(map[int]int, len(ids))
	for i, id := range ids {
		assignByID[id] = assign[i]
	}
	trs := transport.NewInProcGroup(shards)
	type shardResult struct {
		outputs map[int]bool
		err     error
	}
	results := make([]shardResult, shards)
	done := make(chan int, shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			defer func() { done <- s }()
			// Close on exit: a normal exit is past the final barrier
			// (harmless to peers), an early error poisons the group so
			// nobody waits for a shard that quit.
			defer func() { _ = trs[s].Close() }()
			outputs, err := RunShard(ctx, ShardPlan{In: in, Owned: groups[s], Assign: assignByID}, trs[s], p, v)
			results[s] = shardResult{outputs: outputs, err: err}
		}(s)
	}
	for range trs {
		<-done
	}
	res := &core.Result{Outputs: make(map[int]bool, len(ids))}
	var firstErr error
	errShard := -1
	for s, sr := range results {
		if sr.err != nil && (errShard == -1 || s < errShard) {
			firstErr, errShard = sr.err, s
		}
		for id, ok := range sr.outputs {
			res.Outputs[id] = ok
		}
	}
	if firstErr != nil {
		// A poisoned group reports ErrClosed on every shard but the one
		// that failed first; surface the cancellation cause if that is
		// what started it.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, firstErr
	}
	return res, nil
}
