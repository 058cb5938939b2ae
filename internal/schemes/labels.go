// Package schemes implements every proof labelling scheme catalogued in
// Table 1 of Göös & Suomela (PODC 2011), one construction per row, plus
// the generic wrappers the paper describes (complement of LCP(0), the
// universal O(n²) scheme, LCL verification, monadic Σ¹₁).
//
// Each scheme bundles a centralized prover (the paper's f) with a
// constant-radius local verifier (the paper's A). Verifiers never trust
// the prover: every label is decoded defensively and all structural
// claims are re-checked within the local horizon.
package schemes

import (
	"lcp/internal/bitstr"
	"lcp/internal/core"
)

// treeLabel is the locally checkable rooted-spanning-tree certificate of
// Korman–Kutten–Peleg (§5.1): the root's identity plus the distance to
// the root, here extended with an explicit parent pointer and up to two
// subtree counters (§5.1: "node counters along the paths towards the
// root"). It is the workhorse of the LogLCP upper bounds: leader
// election, spanning trees, counting n(G), odd cycles, coLCP(0), Σ¹₁.
type treeLabel struct {
	Root   int
	Parent int
	Dist   uint64
	// Counters; width 0 means absent.
	Count1, Count2 uint64
	HasC1, HasC2   bool
}

// Field widths are part of the label so that the verifier can decode
// without knowing n; consistency of widths across neighbours is checked
// explicitly (and propagates globally on connected graphs).
const widthField = 6 // bits used to encode a width (values 0..63)

func (l treeLabel) encode() bitstr.String {
	var w bitstr.Writer
	idW := bitstr.WidthFor(uint64(maxInt(l.Root, l.Parent)))
	distW := bitstr.WidthFor(l.Dist)
	w.WriteUint(uint64(idW), widthField)
	w.WriteUint(uint64(l.Root), idW)
	w.WriteUint(uint64(l.Parent), idW)
	w.WriteUint(uint64(distW), widthField)
	w.WriteUint(l.Dist, distW)
	w.WriteBit(l.HasC1)
	if l.HasC1 {
		cw := bitstr.WidthFor(l.Count1)
		w.WriteUint(uint64(cw), widthField)
		w.WriteUint(l.Count1, cw)
	}
	w.WriteBit(l.HasC2)
	if l.HasC2 {
		cw := bitstr.WidthFor(l.Count2)
		w.WriteUint(uint64(cw), widthField)
		w.WriteUint(l.Count2, cw)
	}
	return w.String()
}

// decodeTreeLabel reads a treeLabel from the beginning of s, returning the
// remaining reader so schemes can append their own fields after the tree
// certificate. ok is false on any malformed input. The reader comes back
// by value: every verifier decodes each label of its view, so a heap
// allocated *Reader per label would be paid deg+1 times per node.
func decodeTreeLabel(s bitstr.String) (l treeLabel, r bitstr.Reader, ok bool) {
	r = *bitstr.NewReader(s)
	idW := int(r.ReadUint(widthField))
	l.Root = int(r.ReadUint(idW))
	l.Parent = int(r.ReadUint(idW))
	distW := int(r.ReadUint(widthField))
	l.Dist = r.ReadUint(distW)
	l.HasC1 = r.ReadBit()
	if l.HasC1 {
		cw := int(r.ReadUint(widthField))
		l.Count1 = r.ReadUint(cw)
	}
	l.HasC2 = r.ReadBit()
	if l.HasC2 {
		cw := int(r.ReadUint(widthField))
		l.Count2 = r.ReadUint(cw)
	}
	if r.Err() || l.Root <= 0 || l.Parent <= 0 {
		return treeLabel{}, r, false
	}
	return l, r, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// treeOpts configures checkTreeLabel.
type treeOpts struct {
	// needC1/needC2 require the counters to be present and consistent:
	// Count = own contribution + Σ over children (neighbours whose Parent
	// is the center).
	needC1, needC2 bool
	// contribution functions per counter; nil means "count 1 per node"
	// (the n(G) counter of §5.1).
	contrib1, contrib2 func(w *core.View, v int) uint64
	// rootCheck runs at the root node only (after structure checks).
	rootCheck func(w *core.View, l treeLabel) bool
	// trailing decides whether bits after the tree label are allowed
	// (schemes appending their own fields set this).
	trailing bool
}

// labelOf decodes the tree label of node v inside the view.
func labelOf(w *core.View, v int) (treeLabel, bitstr.Reader, bool) {
	return decodeTreeLabel(w.ProofOf(v))
}

// checkTreeLabel is the radius-1 verifier for the rooted-spanning-tree
// certificate, shared by all LogLCP schemes. It validates, at the view's
// center:
//
//   - the label decodes (and, unless opts.trailing, has no excess bits);
//   - every neighbour agrees on the root identity;
//   - the parent pointer names a neighbour whose distance is one less
//     (or the node itself at distance 0, in which case its identifier
//     must equal the claimed root — the step that pins down a unique
//     root, because identifiers are unique);
//   - requested counters satisfy Count = contrib(center) + Σ_children.
//
// Soundness (paper §5.1): distances strictly decrease along parent
// pointers, so every node's parent chain terminates at a node of distance
// 0, which must be the unique node whose identifier equals the agreed
// root. Hence the parent edges form a tree spanning the (connected)
// graph, and the counter fields force Count(v) to be the exact subtree
// aggregate, so the root learns the true global total.
func checkTreeLabel(w *core.View, opts treeOpts) (treeLabel, bool) {
	me := w.Center
	l, r, ok := labelOf(w, me)
	if !ok {
		return treeLabel{}, false
	}
	if !opts.trailing && !r.AtEnd() {
		return treeLabel{}, false
	}
	if opts.needC1 && !l.HasC1 {
		return treeLabel{}, false
	}
	if opts.needC2 && !l.HasC2 {
		return treeLabel{}, false
	}
	// Root agreement with every neighbour.
	for _, u := range w.Neighbors(me) {
		lu, _, okU := labelOf(w, u)
		if !okU || lu.Root != l.Root {
			return treeLabel{}, false
		}
	}
	// Parent structure.
	if l.Dist == 0 {
		if l.Parent != me || l.Root != me {
			return treeLabel{}, false
		}
	} else {
		if l.Parent == me || !w.G.HasEdge(me, l.Parent) {
			return treeLabel{}, false
		}
		lp, _, okP := labelOf(w, l.Parent)
		if !okP || lp.Dist != l.Dist-1 {
			return treeLabel{}, false
		}
	}
	// Counters over children.
	if opts.needC1 || opts.needC2 {
		var sum1, sum2 uint64
		for _, u := range w.Neighbors(me) {
			lu, _, okU := labelOf(w, u)
			if !okU {
				return treeLabel{}, false
			}
			if lu.Parent == me && lu.Dist == l.Dist+1 {
				sum1 += lu.Count1
				sum2 += lu.Count2
			} else if lu.Parent == me {
				// Claims me as parent but distance is wrong.
				return treeLabel{}, false
			}
		}
		if opts.needC1 {
			c := uint64(1)
			if opts.contrib1 != nil {
				c = opts.contrib1(w, me)
			}
			if l.Count1 != c+sum1 {
				return treeLabel{}, false
			}
		}
		if opts.needC2 {
			c := uint64(0)
			if opts.contrib2 != nil {
				c = opts.contrib2(w, me)
			}
			if l.Count2 != c+sum2 {
				return treeLabel{}, false
			}
		}
	}
	if l.Dist == 0 && opts.rootCheck != nil && !opts.rootCheck(w, l) {
		return treeLabel{}, false
	}
	return l, true
}

// buildTreeProof constructs the spanning-tree certificate rooted at root,
// optionally with subtree counters. decorate (if non-nil) appends
// scheme-specific bits to each node's label.
func buildTreeProof(in *core.Instance, root int,
	withC1 bool, contrib1 func(v int) uint64,
	withC2 bool, contrib2 func(v int) uint64,
	decorate func(v int, w *bitstr.Writer)) core.Proof {

	parent, depth, order := spanningTreeOf(in, root)
	// Subtree aggregation in reverse-BFS order (children before
	// parents, since BFS order is non-decreasing in depth).
	counts1 := map[int]uint64{}
	counts2 := map[int]uint64{}
	if withC1 || withC2 {
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if withC1 {
				c := uint64(1)
				if contrib1 != nil {
					c = contrib1(v)
				}
				counts1[v] += c
			}
			if withC2 {
				c := uint64(0)
				if contrib2 != nil {
					c = contrib2(v)
				}
				counts2[v] += c
			}
			if p := parent[v]; p != v {
				counts1[p] += counts1[v]
				counts2[p] += counts2[v]
			}
		}
	}
	proof := make(core.Proof, in.G.N())
	for v, p := range parent {
		l := treeLabel{
			Root: root, Parent: p, Dist: uint64(depth[v]),
			HasC1: withC1, Count1: counts1[v],
			HasC2: withC2, Count2: counts2[v],
		}
		var w bitstr.Writer
		w.WriteBitString(l.encode())
		if decorate != nil {
			decorate(v, &w)
		}
		proof[v] = w.String()
	}
	return proof
}

// spanningTreeOf BFS-builds the spanning tree rooted at root. The
// returned order is the BFS visit order — non-decreasing depth — which
// is exactly what reverse-order subtree aggregation needs; a former
// insertion sort by depth here was quadratic and would not survive the
// n=10^6 scale tier. Maps are presized to the node count so tree
// construction costs no rehash at scale.
func spanningTreeOf(in *core.Instance, root int) (parent, depth map[int]int, order []int) {
	n := in.G.N()
	parent = make(map[int]int, n)
	depth = make(map[int]int, n)
	order = make([]int, 0, n)
	parent[root] = root
	depth[root] = 0
	order = append(order, root)
	for i := 0; i < len(order); i++ {
		u := order[i]
		du := depth[u]
		for _, v := range in.G.Neighbors(u) {
			if _, ok := parent[v]; !ok {
				parent[v] = u
				depth[v] = du + 1
				order = append(order, v)
			}
		}
	}
	return parent, depth, order
}
