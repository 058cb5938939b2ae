// Network audit: a self-certifying network configuration.
//
// A management plane computes a spanning tree (the forwarding backbone)
// and elects a coordinator for a datacenter fabric. Rather than trusting
// the controller, every switch holds a locally checkable certificate —
// Θ(log n) bits — and the fabric continuously re-verifies itself with a
// constant-radius distributed check (Göös–Suomela §5.1). Any
// misconfiguration, fault or forgery triggers an alarm at some switch,
// no matter what the adversary writes into the certificates.
package main

import (
	"context"
	"fmt"
	"log"

	"lcp"
	"lcp/internal/core"
)

func main() {
	// The fabric: a 6×8 grid of switches with a few long-haul shortcuts.
	fabric := lcp.Grid(6, 8).WithEdges([]lcp.Edge{
		{U: 1, V: 48}, {U: 8, V: 41}, {U: 4, V: 44},
	}, nil)
	fmt.Printf("fabric: %v\n", fabric)

	// The controller picks a coordinator and a spanning tree (BFS from
	// the coordinator), then certifies both.
	const coordinator = 20
	cfg := lcp.NewInstance(fabric).SetNodeLabel(coordinator, lcp.LabelLeader)

	leaderScheme := lcp.LeaderElectionScheme()
	leaderProof, res, err := lcp.ProveAndCheck(cfg, leaderScheme)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator certificate: %d bits/switch, %s\n", leaderProof.Size(), res)

	// The backbone: mark the certificate's spanning tree as the
	// forwarding configuration and verify it as a solution.
	tree := lcp.NewInstance(fabric)
	parentOf := bfsTree(fabric, coordinator)
	for v, p := range parentOf {
		if v != p {
			tree.MarkEdge(v, p)
		}
	}
	treeScheme := lcp.SpanningTreeScheme()
	treeProof, res, err := lcp.ProveAndCheck(tree, treeScheme)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backbone certificate:    %d bits/switch, %s\n", treeProof.Size(), res)

	// Continuous distributed audit: every switch re-checks its radius-1
	// view each round (here once, on the message-passing runtime,
	// through the unified façade).
	ctx := context.Background()
	audit, err := lcp.NewChecker(tree, lcp.WithScheme(treeScheme), lcp.WithBackend(lcp.BackendDist))
	if err != nil {
		log.Fatal(err)
	}
	dres, err := audit.Check(ctx, treeProof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed audit:       %s\n\n", dres.Result())

	// Fault injection 1: a link on the backbone is silently dropped from
	// the forwarding config (the tree becomes a forest).
	broken := tree.Clone()
	for e := range broken.EdgeLabel {
		delete(broken.EdgeLabel, e)
		fmt.Printf("fault: dropped backbone link %d–%d\n", e.U, e.V)
		break
	}
	brokenChk, err := lcp.NewChecker(broken, lcp.WithScheme(treeScheme), lcp.WithBackend(lcp.BackendCore))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := brokenChk.Check(ctx, treeProof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit after link drop:   %s (alarms: %v)\n", rep.Result(), rep.Rejectors())

	// Fault injection 2: a rogue controller certifies a second
	// coordinator. No certificate can make this pass. One engine-backed
	// checker verifies all three forgeries on the same cached views.
	rogue := cfg.Clone().SetNodeLabel(41, lcp.LabelLeader)
	if _, err := leaderScheme.Prove(rogue); err != nil {
		fmt.Printf("rogue coordinator:       prover refuses (%v)\n", err)
	}
	rogueChk, err := lcp.NewChecker(rogue, lcp.WithScheme(leaderScheme))
	if err != nil {
		log.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		forged := core.RandomProof(rogue, 32, seed)
		frep, err := rogueChk.Check(ctx, forged)
		if err != nil {
			log.Fatal(err)
		}
		if frep.Accepted() {
			log.Fatal("forged certificate accepted — soundness violated!")
		}
	}
	fmt.Println("rogue coordinator:       3 forged certificates, all rejected")

	// Fault injection 3: bit rot in a stored certificate, caught by the
	// same audit checker (its wiring is already warm).
	rotten := core.FlipBit(treeProof, 42)
	rep, err = audit.Check(ctx, rotten)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit after bit rot:     %s (alarms: %v)\n", rep.Result(), rep.Rejectors())
}

// bfsTree returns parent pointers of a BFS tree rooted at root.
func bfsTree(g *lcp.Graph, root int) map[int]int {
	parent := map[int]int{root: root}
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if _, ok := parent[v]; !ok {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}
