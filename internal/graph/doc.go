// Package graph implements the simple graphs on which locally checkable
// proofs operate (Göös & Suomela, PODC 2011, §2).
//
// Graphs are immutable once built: a Builder accumulates nodes and edges
// and Graph() freezes them into a sorted-adjacency representation. Nodes
// are identified with small natural numbers, V(G) ⊆ {1, 2, ..., poly(n)},
// exactly as the paper assumes; the identifier space being larger than n
// is essential for several constructions (e.g. the cycles C(a,b) of §5.3
// use identifiers up to ~2n²). Immutability makes graphs safe to share
// across the shard goroutines of internal/dist without locks.
//
// The paper's view operations map onto this package directly:
//
//   - BallAround is V[v,r]: the radius-r ball of §2.1, following
//     undirected reachability even on directed instances because the
//     LOCAL model's communication graph is the underlying undirected
//     graph (UndirectedNeighbors exposes exactly that adjacency);
//   - Induced is the G[v,r] operation: the subgraph induced by a ball;
//   - Relabel/ShiftIDs realize the closure of properties under
//     identifier re-assignment used throughout §5–§6;
//   - DisjointUnion and WithEdges back the lower-bound gluing
//     constructions that cut and re-join cycles.
//
// Two constructors freeze graphs. Builder is the safe general-purpose
// path: it deduplicates edges, rejects self-loops, and accepts input in
// any order. FromParts is the trusted fast path used by the message
// -passing runtime's incremental view assembly (internal/dist), which
// already holds a sorted node list and a deduplicated induced edge list
// when a node's flooding finishes and must not pay Builder's maps again
// for every node of every run.
package graph
