// Package dist is the LOCAL-model runtime for locally checkable proofs
// (Göös & Suomela, PODC 2011): it executes the verifiers of package core
// on a synchronous message-passing network.
//
// Execution follows the model of §2.1 literally. Every node starts
// knowing only its own identifier, proof string, input labels and
// incident edges. In each communication round it sends what it learned in
// the previous round to all neighbours and merges what arrives; after r
// rounds it has assembled exactly the radius-r view (G[v,r], P[v,r], v)
// and decides locally. Collect is therefore observationally equivalent to
// core.BuildView and Check to core.Check — a property the tests assert —
// but the information only ever travels along edges.
//
// One in-process layout runs the protocol: the node automata are
// batched onto Options.Shards shard goroutines (GOMAXPROCS by default),
// placed by Options.Partitioner. Same-shard delivery is a direct merge
// with no channel, only cross-shard edges keep one-slot channel ports,
// and a reusable barrier with one participant per shard ends every
// round. The barrier is also the cancellation point: a cancelled
// context aborts every run between rounds. Shards ≥ n is the
// model-faithful run — one automaton per shard, every edge a port, the
// paper's network of n independent processors — on the same loop.
// Because a node's verdict depends only on its radius-r view, the shard
// count and the partition change the cost of a run, never its verdicts.
//
// RunShard is the same four-phase round over a transport.Transport, for
// a shard of a partitioned instance living in another process.
//
// The reusable Network type wires a network once per instance and
// re-checks it against many proofs; it keeps a small pool of wirings so
// concurrent checks do not serialize.
//
// Each node assembles its view incrementally: the induced edges of the
// ball are collected as records arrive (see node.learn) and the ball
// graph is frozen through graph.FromParts, so the per-node
// induced-subgraph rebuild that used to dominate the decision phase is
// amortized into the flooding rounds.
package dist
