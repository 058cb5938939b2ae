package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/textio"
	"lcp/internal/transport"
)

const (
	// helloTimeout bounds the handshake frame on every accepted
	// connection: a dialer that never says hello cannot park a socket
	// forever.
	helloTimeout = 10 * time.Second
	// controlWriteTimeout bounds one control-plane response write.
	controlWriteTimeout = 30 * time.Second
	// dataConnTTL bounds how long an accepted data connection waits to
	// be claimed by its check before the worker reaps it — the check
	// it belongs to either never started or already failed.
	dataConnTTL = 2 * time.Minute
)

// Worker serves one shard of registered instances: it accepts control
// connections from coordinators (register / check / close requests) and
// data connections from peer workers (one per shard pair per check),
// and runs the transport-backed shard runner for every check. One
// worker process can hold shards of many instances at once; checks on
// the same instance serialize, checks on different instances run
// concurrently.
type Worker struct {
	ln      net.Listener
	schemes map[string]core.Scheme

	mu      sync.Mutex
	insts   map[string]*workerInstance
	pending map[dataKey]chan net.Conn
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// workerInstance is one registered shard: the halo instance, the nodes
// this worker decides, and the routing the check phase needs.
type workerInstance struct {
	mu      sync.Mutex // serializes checks on this instance
	plan    dist.ShardPlan
	scheme  core.Scheme
	me      int
	peers   []int // shards sharing a cut edge with this one, ascending
	workers []string
	timeout time.Duration
}

// dataKey routes an accepted data connection to the check it belongs
// to.
type dataKey struct {
	instance string
	seq      uint64
	src      int
}

// NewWorker wraps a listener as a worker speaking the given scheme
// registry. The registry is a parameter — not pulled from the public
// façade — so the worker can be embedded in tests with toy schemes and
// the package stays import-cycle-free.
func NewWorker(ln net.Listener, schemes map[string]core.Scheme) *Worker {
	return &Worker{
		ln:      ln,
		schemes: schemes,
		insts:   make(map[string]*workerInstance),
		pending: make(map[dataKey]chan net.Conn),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Addr is the listener's address, for handing to coordinators.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts and dispatches connections until the context is
// cancelled or the worker is closed. It returns nil on a deliberate
// Close, the context's error on cancellation, and the accept error
// otherwise.
func (w *Worker) Serve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { _ = w.Close() })
	defer stop()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.wg.Wait()
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(ctx, conn)
		}()
	}
}

// Close stops the worker like a process death: the listener closes
// (unblocking Serve), every tracked connection — control, in-flight
// data, parked data — is severed, so peers mid-round fail their reads
// immediately instead of draining a deadline. This is exactly the
// "kill a worker mid-round" failure the fault tests exercise.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	pending := w.pending
	w.pending = make(map[dataKey]chan net.Conn)
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, c := range conns {
		_ = c.Close() // severing a live session; peers see the reset
	}
	for _, ch := range pending {
		select {
		case conn := <-ch:
			_ = conn.Close() // reaping a parked socket; nobody reads the result
		default:
		}
	}
	return err
}

// track registers a live connection for teardown at Close; it reports
// false (and closes the connection) when the worker is already closed.
func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		_ = conn.Close() // racing Close: behave as if accepted after death
		return false
	}
	w.conns[conn] = struct{}{}
	return true
}

// untrack forgets a connection whose lifecycle ended on its own.
func (w *Worker) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// release untracks and closes a connection in one step.
func (w *Worker) release(conn net.Conn) {
	w.untrack(conn)
	_ = conn.Close() // the caller is done with it either way
}

// handleConn routes one accepted connection by its hello frame.
func (w *Worker) handleConn(ctx context.Context, conn net.Conn) {
	if !w.track(conn) {
		return
	}
	h, err := transport.ReadHello(conn, helloTimeout)
	if err != nil {
		w.release(conn) // handshake never completed; nothing to report it on
		return
	}
	switch h.Role {
	case transport.RoleControl:
		w.serveControl(ctx, conn)
		w.untrack(conn)
	case transport.RoleData:
		w.parkData(h, conn)
	default:
		w.release(conn) // unknown role: drop, same as a bad handshake
	}
}

// parkData stashes a peer's data connection until the local check
// claims it, bounded by dataConnTTL.
func (w *Worker) parkData(h transport.Hello, conn net.Conn) {
	key := dataKey{instance: h.Instance, seq: h.Seq, src: h.Src}
	ch := w.pendingChan(key)
	if ch == nil {
		w.release(conn) // worker closed; dialer sees the reset
		return
	}
	select {
	case ch <- conn:
	default:
		w.release(conn) // duplicate handshake for the same edge; keep the first
		return
	}
	time.AfterFunc(dataConnTTL, func() { w.expireData(key) })
}

// pendingChan returns the parking channel for key, creating it if
// needed; nil after Close.
func (w *Worker) pendingChan(key dataKey) chan net.Conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	ch, ok := w.pending[key]
	if !ok {
		ch = make(chan net.Conn, 1)
		w.pending[key] = ch
	}
	return ch
}

// expireData reaps a parked data connection nobody claimed in time.
func (w *Worker) expireData(key dataKey) {
	w.mu.Lock()
	ch, ok := w.pending[key]
	if ok {
		delete(w.pending, key)
	}
	w.mu.Unlock()
	if !ok {
		return
	}
	select {
	case conn := <-ch:
		w.release(conn) // reaping an expired socket; the check it served is long gone
	default:
	}
}

// claimData waits for the peer's data connection for the given check,
// bounded by the timeout and the context.
func (w *Worker) claimData(ctx context.Context, key dataKey, timeout time.Duration) (net.Conn, error) {
	ch := w.pendingChan(key)
	if ch == nil {
		return nil, fmt.Errorf("remote: worker closed")
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case conn := <-ch:
		w.mu.Lock()
		delete(w.pending, key)
		w.mu.Unlock()
		return conn, nil
	case <-timer.C:
		return nil, fmt.Errorf("remote: no data connection from shard %d within %v", key.src, timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// serveControl runs one coordinator's request loop. The connection
// idles without a read deadline between requests — teardown happens by
// closing it, which the worker's Close and the serve context both do.
func (w *Worker) serveControl(ctx context.Context, conn net.Conn) {
	stop := context.AfterFunc(ctx, func() {
		_ = conn.Close() // teardown: unblock the idle read below
	})
	defer stop()
	defer func() {
		_ = conn.Close() // loop exit: request stream is done either way
	}()
	r := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return
		}
		typ, payload, _, err := transport.ReadFrame(r)
		if err != nil {
			return
		}
		if typ != transport.FrameRequest {
			return
		}
		var req Request
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		resp := w.dispatch(ctx, &req)
		resp.Seq = req.Seq
		if err := writeJSONFrame(conn, bw, transport.FrameResponse, resp, time.Now().Add(controlWriteTimeout)); err != nil {
			return
		}
	}
}

// dispatch executes one control request and shapes its response.
// Failures are responses, not connection teardown: the coordinator
// decides what a failed register or check means for the run.
func (w *Worker) dispatch(ctx context.Context, req *Request) *Response {
	var err error
	resp := &Response{OK: true}
	switch req.Op {
	case OpRegister:
		err = w.register(req)
	case OpCheck:
		resp.Outputs, resp.Stats, err = w.check(ctx, req)
	case OpClose:
		w.mu.Lock()
		delete(w.insts, req.Instance)
		w.mu.Unlock()
	default:
		err = fmt.Errorf("remote: unknown op %q", req.Op)
	}
	if err != nil {
		return &Response{OK: false, Error: err.Error()}
	}
	return resp
}

// register parses and installs one instance shard.
func (w *Worker) register(req *Request) error {
	scheme, ok := w.schemes[req.Scheme]
	if !ok {
		return fmt.Errorf("remote: unknown scheme %q", req.Scheme)
	}
	doc, err := textio.Parse(strings.NewReader(req.Doc))
	if err != nil {
		return fmt.Errorf("remote: bad instance doc: %w", err)
	}
	in := doc.Instance
	// Restore the full instance's nil-map conventions: this worker's
	// halo may have no labelled member, but view assembly keys the
	// label maps' presence off the instance — a nil map here would drop
	// remote labels flooded in over the wire and diverge from
	// core.Check.
	if req.HasNodeLabels && in.NodeLabel == nil {
		in.NodeLabel = map[int]string{}
	}
	if req.HasEdgeLabels && in.EdgeLabel == nil {
		in.EdgeLabel = map[graph.Edge]string{}
	}
	if req.HasWeights && in.Weights == nil {
		in.Weights = map[graph.Edge]int64{}
	}
	peerSet := map[int]bool{}
	for _, id := range req.Owned {
		if !in.G.Has(id) {
			return fmt.Errorf("remote: owned node %d absent from shipped halo", id)
		}
		for _, nb := range in.G.UndirectedNeighbors(id) {
			owner, ok := req.Assign[nb]
			if !ok {
				return fmt.Errorf("remote: neighbor %d of owned node %d has no shard assignment", nb, id)
			}
			if owner != req.Me {
				peerSet[owner] = true
			}
		}
	}
	peers := make([]int, 0, len(peerSet))
	for p := range peerSet {
		if p < 0 || p >= len(req.Workers) {
			return fmt.Errorf("remote: assignment names shard %d but only %d workers", p, len(req.Workers))
		}
		peers = append(peers, p)
	}
	sort.Ints(peers)
	timeout := time.Duration(req.RoundTimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = transport.DefaultRoundTimeout
	}
	inst := &workerInstance{
		plan:    dist.ShardPlan{In: in, Owned: req.Owned, Assign: req.Assign},
		scheme:  scheme,
		me:      req.Me,
		peers:   peers,
		workers: req.Workers,
		timeout: timeout,
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("remote: worker closed")
	}
	w.insts[req.Instance] = inst
	return nil
}

// check runs one proof over a registered shard: establish the data
// edges for this sequence (dial lower peers, claim connections accepted
// from higher ones), run the shard, report verdicts and traffic.
func (w *Worker) check(ctx context.Context, req *Request) (map[int]bool, transport.Stats, error) {
	w.mu.Lock()
	inst := w.insts[req.Instance]
	w.mu.Unlock()
	if inst == nil {
		return nil, transport.Stats{}, fmt.Errorf("remote: instance %q not registered", req.Instance)
	}
	proof, err := parseProof(req.Proof)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	conns := make(map[int]net.Conn, len(inst.peers))
	releaseAll := func() {
		for _, c := range conns {
			w.release(c) // unwinding a failed or finished session
		}
	}
	for _, p := range inst.peers {
		var conn net.Conn
		var err error
		if p < inst.me {
			conn, err = transport.DialData(ctx, inst.workers[p], transport.Hello{
				Instance: req.Instance, Seq: req.Seq, Src: inst.me,
			}, inst.timeout)
			if err == nil && !w.track(conn) {
				err = fmt.Errorf("worker closed")
			}
		} else {
			conn, err = w.claimData(ctx, dataKey{instance: req.Instance, seq: req.Seq, src: p}, inst.timeout)
		}
		if err != nil {
			releaseAll()
			return nil, transport.Stats{}, fmt.Errorf("remote: shard %d <-> %d: %w", inst.me, p, err)
		}
		conns[p] = conn
	}
	tr := transport.NewTCP(inst.me, req.Seq, conns, inst.timeout)
	defer releaseAll() // session conns are per-check; stats were read before
	outputs, err := dist.RunShard(ctx, inst.plan, tr, proof, inst.scheme.Verifier())
	stats := tr.Stats()
	if err != nil {
		return nil, stats, err
	}
	return outputs, stats, nil
}

// parseProof decodes the request's textual proof map. Entry presence is
// preserved exactly — an explicit empty string is the ε proof, a
// missing entry is no proof — matching core.Proof's conventions.
func parseProof(m map[int]string) (core.Proof, error) {
	p := make(core.Proof, len(m))
	for id, text := range m {
		s, err := bitstr.ParseBits(text)
		if err != nil {
			return nil, fmt.Errorf("remote: proof for node %d: invalid bit %q", id, err.(*bitstr.BitError).Rune)
		}
		p[id] = s
	}
	return p, nil
}
