package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"lcp/internal/core"
)

// Network is a long-lived instance of the message-passing runtime: node
// automata, port channels and round barrier are wired once per instance
// and then re-checked against many proofs. Construction is the expensive
// part of a run (per-node state, one channel per cross-shard directed
// port); Check only swaps the proof bits into the round-0 records and
// floods, so repeated verification of the same graph amortizes the
// wiring — the façade's dist backend, and through it cmd/lcpserve's
// per-instance checker cache, sits on top of this type.
//
// A wiring is single-occupancy (one run at a time), but Check never
// serializes callers on it: when the idle wirings run out, an extra one
// is built on the spot (cheap thanks to the node pool) and up to
// maxIdleWirings are kept for reuse afterwards. Concurrent checks of the
// same instance therefore scale to the caller's concurrency instead of
// queueing on a mutex.
type Network struct {
	in  *core.Instance
	opt Options

	// sem bounds in-flight runs — and with them the wirings built:
	// beyond a small multiple of GOMAXPROCS extra wirings cannot make
	// progress, they only multiply the O(n+m) automaton-and-channel
	// footprint per concurrent caller. Callers over the bound wait for
	// a wiring to come back instead of building another.
	sem chan struct{}

	mu     sync.Mutex
	closed bool
	idle   []*network // wirings ready for the next run
}

// maxIdleWirings bounds how many idle wirings a Network retains between
// checks: GOMAXPROCS, because that is the useful concurrency of CPU-
// bound runs — callers beyond it gain nothing from extra wirings, while
// anything below it would make steady-state concurrent checks rebuild
// wirings every wave on exactly the path the pool amortizes. Surplus
// wirings drain back into the node pool.
func maxIdleWirings() int {
	return runtime.GOMAXPROCS(0)
}

// maxLiveWirings bounds the in-flight runs of one Network (each run
// owns one wiring): twice the useful concurrency leaves headroom for
// runs finishing while new ones start, without letting a request burst
// inflate memory by a wiring per caller.
func maxLiveWirings() int {
	return 2 * runtime.GOMAXPROCS(0)
}

// NewNetwork wires a reusable network for the instance. The options fix
// the scheduler configuration for every subsequent run.
func NewNetwork(in *core.Instance, opt Options) (*Network, error) {
	if in == nil || in.G == nil {
		return nil, fmt.Errorf("dist: nil instance")
	}
	nw := &Network{in: in, opt: opt, sem: make(chan struct{}, maxLiveWirings())}
	if in.G.N() > 0 {
		net, err := buildNetwork(in, opt)
		if err != nil {
			return nil, err
		}
		nw.idle = append(nw.idle, net)
	}
	return nw, nil
}

// Check runs the verifier against the proof on a prewired network.
// Verdicts are identical to a fresh dist.CheckWith under the same
// options (and hence to core.Check). Concurrent calls do not serialize:
// each run gets its own wiring, built on demand when the idle ones are
// taken.
func (nw *Network) Check(p core.Proof, v core.Verifier) (*core.Result, error) {
	//lint:ignore ctxflow ctx-less Check is the documented uncancellable entry point; CheckCtx is the threaded variant
	return nw.CheckCtx(context.Background(), p, v)
}

// CheckCtx is Check with context cancellation: runs abort between
// communication rounds (the watcher poisons the round barrier, so every
// shard stops after the same round and the wiring stays reusable) and
// return ctx.Err().
func (nw *Network) CheckCtx(ctx context.Context, p core.Proof, v core.Verifier) (*core.Result, error) {
	if v == nil {
		return nil, fmt.Errorf("dist: nil verifier")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if nw.in.G.N() == 0 {
		return &core.Result{Outputs: map[int]bool{}}, nil
	}
	select {
	case nw.sem <- struct{}{}: // bound live wirings; waits out a burst
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	net, err := nw.acquire()
	if err != nil {
		<-nw.sem
		return nil, err
	}
	res, err := net.run(ctx, nw.in, p, v)
	nw.put(net)
	<-nw.sem
	return res, err
}

func (nw *Network) acquire() (*network, error) {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil, fmt.Errorf("dist: network is closed")
	}
	if n := len(nw.idle); n > 0 {
		net := nw.idle[n-1]
		nw.idle = nw.idle[:n-1]
		nw.mu.Unlock()
		return net, nil
	}
	nw.mu.Unlock()
	// Build outside the lock: wiring is the expensive part, and cold
	// concurrent checks must not serialize on it. A Close racing the
	// build is harmless — put() releases the wiring instead of pooling
	// it.
	return buildNetwork(nw.in, nw.opt)
}

func (nw *Network) put(net *network) {
	nw.mu.Lock()
	if !nw.closed && len(nw.idle) < maxIdleWirings() {
		nw.idle = append(nw.idle, net)
		nw.mu.Unlock()
		return
	}
	nw.mu.Unlock()
	net.release()
}

// Close releases the idle wirings back to the runtime's pool; wirings of
// in-flight checks follow as those checks return. The network must not
// be checked again afterwards.
func (nw *Network) Close() {
	nw.mu.Lock()
	idle := nw.idle
	nw.idle = nil
	nw.closed = true
	nw.mu.Unlock()
	for _, net := range idle {
		net.release()
	}
}
