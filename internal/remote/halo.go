package remote

import "lcp/internal/core"

// haloInstance restricts the instance to the owned nodes and their
// neighbours: every owned node with all incident edges and their
// endpoints, which is exactly the round-0 knowledge a worker's shard
// runner needs (everything deeper arrives over the wire). The graph is
// induced on the halo; the labelling maps are shared with the parent
// (records only ever read entries of member nodes, and the nil-map
// conventions must match the full instance for verdict equivalence).
func haloInstance(in *core.Instance, owned []int) *core.Instance {
	seen := make(map[int]bool, len(owned))
	halo := make([]int, 0, len(owned))
	for _, v := range owned {
		seen[v] = true
		halo = append(halo, v)
	}
	for _, v := range owned {
		for _, w := range in.G.UndirectedNeighbors(v) {
			if !seen[w] {
				seen[w] = true
				halo = append(halo, w)
			}
		}
	}
	return &core.Instance{
		G:         in.G.Induced(halo),
		NodeLabel: in.NodeLabel,
		EdgeLabel: in.EdgeLabel,
		Weights:   in.Weights,
		Global:    in.Global,
	}
}
