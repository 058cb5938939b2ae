package remote

import (
	"fmt"
	"slices"
	"testing"

	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/partition"
)

// TestHaloInstance pins the shard slice the coordinator ships: every
// owned node keeps all of its incident edges (both arc directions on a
// directed graph) and their endpoints, nothing beyond one hop of an
// owned node is included, the labelling maps are the parent's, and an
// owned set covering the whole graph ships the whole graph.
func TestHaloInstance(t *testing.T) {
	directed := graph.NewBuilder(graph.Directed)
	for i := 1; i < 10; i++ {
		directed.AddEdge(i, i+1)
	}
	directed.AddEdge(10, 1).AddEdge(4, 1).AddEdge(7, 2)
	grid := graph.RandomPermutationIDs(graph.Grid(6, 6), 3)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(9)},
		{"cycle", graph.Cycle(12)},
		{"scrambled-grid", grid},
		{"directed", directed.Graph()},
	}
	for _, tc := range cases {
		in := core.NewInstance(tc.g).SetNodeLabel(tc.g.Nodes()[0], core.LabelLeader)
		ids := tc.g.Nodes()
		n := len(ids)
		owned := map[string][]int{
			"single":     ids[:1],
			"contiguous": ids[n/3 : 2*n/3],
			"scattered":  {ids[0], ids[n/2], ids[n-1]},
			"everything": ids,
		}
		for _, shards := range []int{2, 3} {
			assign := partition.BFSChunks{}.Assign(tc.g, shards)
			for s, group := range partition.Groups(tc.g, assign, shards) {
				owned[fmt.Sprintf("bfs-%d/%d", s, shards)] = group
			}
		}
		for oname, own := range owned {
			name := tc.name + "/" + oname
			halo := haloInstance(in, own)
			checkHalo(t, name, in, halo, own)
			if oname == "everything" && (halo.G.N() != tc.g.N() || halo.G.M() != tc.g.M()) {
				t.Fatalf("%s: halo has %d nodes, %d edges; want the whole graph (%d, %d)",
					name, halo.G.N(), halo.G.M(), tc.g.N(), tc.g.M())
			}
		}
	}
}

func checkHalo(t *testing.T, name string, in, halo *core.Instance, owned []int) {
	t.Helper()
	g, h := in.G, halo.G
	if h.Kind() != g.Kind() {
		t.Fatalf("%s: halo kind %v, want %v", name, h.Kind(), g.Kind())
	}
	within1 := make(map[int]bool)
	for _, v := range owned {
		within1[v] = true
		for _, w := range g.UndirectedNeighbors(v) {
			within1[w] = true
		}
	}
	for _, v := range owned {
		if !h.Has(v) {
			t.Fatalf("%s: owned node %d missing", name, v)
		}
		same := func(what string, got, want []int) {
			if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
				t.Fatalf("%s: owned node %d %s %v, want %v", name, v, what, got, want)
			}
		}
		same("out-neighbours", h.Neighbors(v), g.Neighbors(v))
		if g.Directed() {
			same("in-neighbours", h.InNeighbors(v), g.InNeighbors(v))
		}
	}
	for _, v := range h.Nodes() {
		if !within1[v] {
			t.Fatalf("%s: node %d is more than one hop from every owned node", name, v)
		}
	}
	if len(within1) != h.N() {
		t.Fatalf("%s: halo has %d nodes, want the %d within one hop", name, h.N(), len(within1))
	}
	if fmt.Sprint(halo.NodeLabel) != fmt.Sprint(in.NodeLabel) || fmt.Sprint(halo.Global) != fmt.Sprint(in.Global) {
		t.Fatalf("%s: labelling not carried over", name)
	}
}

// TestHaloShrinksWithLocalityPartitioner: every halo node a worker does
// not own is shipped and wired on more than one worker, so the summed
// halo sizes measure what the partition duplicates. On a scrambled grid
// the contiguous owned sets are scattered, nearly every owned node sits
// on a boundary and drags its neighbours in, while BFS-chunked owned
// sets are tight regions with thin boundaries.
func TestHaloShrinksWithLocalityPartitioner(t *testing.T) {
	g := graph.RandomPermutationIDs(graph.Grid(16, 16), 7)
	in := core.NewInstance(g)
	const shards = 4
	sum := func(p partition.Partitioner) int {
		total := 0
		for _, own := range partition.Groups(g, p.Assign(g, shards), shards) {
			total += haloInstance(in, own).G.N()
		}
		return total
	}
	contig, bfs := sum(partition.Contiguous{}), sum(partition.BFSChunks{})
	if bfs >= contig {
		t.Errorf("summed halo sizes: bfs=%d contiguous=%d, want strictly smaller", bfs, contig)
	}
}
