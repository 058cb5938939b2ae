package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/remote"
	"lcp/internal/serve"
	"lcp/internal/textio"
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 9
	// batchSize is the proofs per batch request.
	batchSize = 16
	// clients is the closed-loop concurrency and the open loop's sender
	// count: the machine has two cores.
	clients = 2
	// shards is the dist shard count and the worker fleet size.
	shards = 2
	// serveRate is serve-warm's offered load in requests per second,
	// about half the saturated_rps the same mix reaches on a 2-core
	// x86-64 machine.
	serveRate = 20.0
)

// workload is one named input family plus the front door it drives.
type workload struct {
	name string
	// graph generates the instance graph; smoke selects the toy size.
	graph func(seed int64, smoke bool) *graph.Graph
	// tampered is the size of the tampered-proof pool.
	tampered int
	// run measures the end-to-end metrics.
	run func(ctx context.Context, e *env) (map[string]float64, error)
	// front opens the front door run measures; the returned func closes it.
	front func(ctx context.Context, inp *inputs) (door, func(), error)
}

var workloads = []*workload{
	{
		name: "serve-warm",
		graph: func(seed int64, smoke bool) *graph.Graph {
			return graph.PowerLaw(size(smoke, 4096, 200), 4, seed)
		},
		tampered: 32,
		run:      runServeWarm,
		front: func(ctx context.Context, inp *inputs) (door, func(), error) {
			srv := startServer()
			doc, err := instanceDoc(inp)
			if err != nil {
				srv.close()
				return nil, nil, err
			}
			id, err := srv.register(ctx, doc)
			if err != nil {
				srv.close()
				return nil, nil, err
			}
			d, err := newHTTPDoor(srv.client, srv.ts.URL, id, inp.proofs)
			return d, srv.close, err
		},
	},
	{
		name: "flood-regular",
		graph: func(seed int64, smoke bool) *graph.Graph {
			return graph.RandomRegular(size(smoke, 20000, 300), 4, seed)
		},
		tampered: 4,
		run:      runFlood,
		front: func(_ context.Context, inp *inputs) (door, func(), error) {
			c, err := lcp.NewChecker(inp.in, distOptions(inp)...)
			if err != nil {
				return nil, nil, err
			}
			return facadeDoor{c: c, proofs: inp.proofs}, func() { lcp.CloseChecker(c) }, nil
		},
	},
}

func size(smoke bool, full, toy int) int {
	if smoke {
		return toy
	}
	return full
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is one run's state: its seeds, budget and score.
type env struct {
	w       *workload
	smoke   bool
	seconds time.Duration
	// graphSeed, leaderSeed, tamperSeed and drawSeed are derived from
	// the run's -seed; the program sees only what they generate.
	graphSeed, leaderSeed, tamperSeed, drawSeed int64
	tal                                         tally
	report                                      []string
}

func newEnv(w *workload, seed int64, seconds time.Duration, smoke bool) *env {
	master := rand.New(rand.NewSource(seed))
	return &env{
		w: w, smoke: smoke, seconds: seconds,
		graphSeed: master.Int63(), leaderSeed: master.Int63(),
		tamperSeed: master.Int63(), drawSeed: master.Int63(),
	}
}

func (e *env) drawRNG() *rand.Rand { return rand.New(rand.NewSource(e.drawSeed)) }

func (e *env) notef(format string, args ...any) {
	e.report = append(e.report, fmt.Sprintf(format, args...))
}

// instance generates the workload's instance with its seeded leader.
func (e *env) instance() *core.Instance {
	return newInstance(e.w.graph(e.graphSeed, e.smoke), rand.New(rand.NewSource(e.leaderSeed)))
}

// inputs proves the instance and draws the tampered pool.
func (e *env) inputs(in *core.Instance, honest core.Proof) (*inputs, error) {
	return makeInputs(in, honest, e.w.tampered, rand.New(rand.NewSource(e.tamperSeed)))
}

// pipelineTimes are the stage times of one generate → write → parse →
// prove pass.
type pipelineTimes struct{ generate, write, parse, prove time.Duration }

// pipeline runs the cold path from nothing to a proof, as the traced
// run's graph, textio and schemes probes time it: generate the graph,
// write it as a textio document, parse it back and prove the parsed
// instance.
func (e *env) pipeline(tr *tracer, parent int) (*core.Instance, core.Proof, pipelineTimes, error) {
	var pt pipelineTimes
	scheme := lcp.LeaderElectionScheme()
	t0 := time.Now()
	_, end := tr.start(parent, "graph.generate")
	in := e.instance()
	end()
	pt.generate = time.Since(t0)

	var buf bytes.Buffer
	t0 = time.Now()
	_, end = tr.start(parent, "textio.write")
	err := textio.Write(&buf, &textio.Document{Instance: in, SchemeName: scheme.Name()})
	end()
	pt.write = time.Since(t0)
	if err != nil {
		return nil, nil, pt, fmt.Errorf("textio write: %w", err)
	}

	t0 = time.Now()
	_, end = tr.start(parent, "textio.parse")
	doc, err := textio.Parse(&buf)
	end()
	pt.parse = time.Since(t0)
	if err != nil {
		return nil, nil, pt, fmt.Errorf("textio parse: %w", err)
	}

	t0 = time.Now()
	_, end = tr.start(parent, "schemes.prove")
	proof, err := scheme.Prove(doc.Instance)
	end()
	pt.prove = time.Since(t0)
	if err != nil {
		return nil, nil, pt, fmt.Errorf("prove: %w", err)
	}
	return doc.Instance, proof, pt, nil
}

// closedLoop runs n clients that each call op back to back until d has
// passed. op reports whether the operation succeeded. It returns the
// latencies of successful operations, the number of operations
// completed, and the clients' busy time: the sum over clients of the
// time to their last completion, so done*n/busy is the saturated rate
// without the idle tail of a client that finished first.
func closedLoop(n int, d time.Duration, op func(client, i int) bool) (lat samples, done int, busy time.Duration) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine samples
			count := 0
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				ok := op(c, i)
				count++
				if ok {
					mine = append(mine, time.Since(t0))
				}
			}
			elapsed := time.Since(start)
			mu.Lock()
			lat = append(lat, mine...)
			done += count
			busy += elapsed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, done, busy
}

// slice is one cycle of the interleaved timed phases: single checks
// for 60% of it, the saturated closed loop for the rest. Interleaving
// spreads both phases over the whole run, so a stretch of slow machine
// weighs on both alike.
const slice = 2500 * time.Millisecond

// slices is how many phase cycles fit the run's budget.
func (e *env) slices() int { return max(1, int(e.seconds/slice)) }

// measureDoor runs the two timed phases of a façade workload,
// interleaved: single checks from one client (honest and tampered
// alternating), then a closed loop of clients for saturated_rps.
func (e *env) measureDoor(ctx context.Context, d checkDoor, inp *inputs, out map[string]float64) {
	checkOp := func(client, i int) bool {
		idx := inp.pick(i*clients + client)
		got, err := d.check(ctx, idx)
		return e.tal.record(got, inp.want[idx], err)
	}
	per := e.seconds / time.Duration(e.slices())
	var lat samples
	done, busy := 0, time.Duration(0)
	for range e.slices() {
		runtime.GC() // the saturated phase's garbage is not the next phase's cost
		l, _, _ := closedLoop(1, per*6/10, checkOp)
		lat = append(lat, l...)
		_, n, b := closedLoop(clients, per*4/10, checkOp)
		done += n
		busy += b
	}
	out["check_p50_ms"] = ms(lat.quantile(0.5))
	out["saturated_rps"] = float64(done*clients) / busy.Seconds()
	e.notef("checks: %d samples, p50 %.3f ms, p90 %.3f ms (%d beyond p90)",
		len(lat), ms(lat.quantile(0.5)), ms(lat.quantile(0.9)), lat.beyond(0.9))
	e.notef("saturated: %d checks by %d clients in %.2f client-seconds", done, clients, busy.Seconds())
}

// firstCheck makes the first check through d, which builds whatever the
// backend caches, and scores its verdict.
func (e *env) firstCheck(ctx context.Context, d checkDoor, inp *inputs) error {
	got, err := d.check(ctx, 0)
	if !e.tal.record(got, inp.want[0], err) {
		return fmt.Errorf("first check: %v", e.tal.firstErr)
	}
	return nil
}

// medianSetup repeats a set-up setupReps times and returns the median
// wall time in seconds. fn returns an undo that releases what its pass
// built; it runs untimed before the next pass. The last pass's state is
// kept, and its undo returned.
func medianSetup(fn func() (undo func(), err error)) (float64, func(), error) {
	var times []float64
	undo := func() {}
	for range setupReps {
		undo()
		t0 := time.Now()
		u, err := fn()
		if err != nil {
			return 0, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		undo = u
	}
	return median(times), undo, nil
}

// runFlood: set-up is NewChecker plus the first check (the network
// wiring); the timed call is the sharded dist backend's Check.
func runFlood(ctx context.Context, e *env) (map[string]float64, error) {
	out := make(map[string]float64)
	inp, err := e.inputs(e.instance(), nil)
	if err != nil {
		return nil, err
	}
	var d door
	setup, stop, err := medianSetup(func() (func(), error) {
		var stop func()
		var err error
		if d, stop, err = e.w.front(ctx, inp); err != nil {
			return nil, err
		}
		if err := e.firstCheck(ctx, d, inp); err != nil {
			stop()
			return nil, err
		}
		return stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()
	out["setup_s"] = setup
	e.measureDoor(ctx, d, inp, out)
	return out, nil
}

func distOptions(inp *inputs) []lcp.CheckerOption {
	return []lcp.CheckerOption{
		lcp.WithScheme(inp.scheme), lcp.WithBackend(lcp.BackendDist),
		lcp.WithShards(shards), lcp.WithPartitioner(partition.BFSChunks{}),
	}
}

// fleet is a set of in-process remote workers on loopback listeners.
type fleet struct {
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(ctx context.Context, n int) (*fleet, error) {
	ctx, cancel := context.WithCancel(ctx)
	f := &fleet{cancel: cancel}
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("worker listen: %w", err)
		}
		w := remote.NewWorker(ln, lcp.BuiltinSchemes())
		f.addrs = append(f.addrs, w.Addr())
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			// A worker that dies fails the checks routed to it, and those
			// count as failed operations.
			_ = w.Serve(ctx)
		}()
	}
	return f, nil
}

// stop cancels every worker and waits for them to exit.
func (f *fleet) stop() {
	f.cancel()
	f.wg.Wait()
}

// server is an in-process serve.Server on a loopback listener.
type server struct {
	ts     *httptest.Server
	client *http.Client
}

func startServer() *server {
	ts := httptest.NewServer(serve.New(lcp.BuiltinSchemes(), config.Config{}))
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	return &server{ts: ts, client: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// register posts the instance as a textio document and returns its id.
func (s *server) register(ctx context.Context, doc []byte) (string, error) {
	var info struct {
		ID string `json:"id"`
	}
	if err := postJSON(ctx, s.client, s.ts.URL+"/instances", doc, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

func (s *server) deregister(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, s.ts.URL+"/instances/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	_ = resp.Body.Close() // the status is the answer; the body is not read
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("DELETE /instances/%s: status %d", id, resp.StatusCode)
	}
	return nil
}

func instanceDoc(inp *inputs) ([]byte, error) {
	var buf bytes.Buffer
	err := textio.Write(&buf, &textio.Document{Instance: inp.in, SchemeName: inp.scheme.Name()})
	return buf.Bytes(), err
}

// serveOp is one request of serve-warm's mix.
type serveOp struct {
	due   time.Time // open loop only
	proof int       // single check: proof index
	batch []int     // batch: proof indexes
}

// mix deals serve-warm's request mix from a deck of ten: 5 honest
// /check, 3 tampered /check and 2 /check/batch of batchSize distinct
// tamperings, reshuffled every ten draws so that every window of the
// run holds the mix in exact proportion.
type mix struct {
	rng  *rand.Rand
	inp  *inputs
	deck []int // 0: honest, 1: tampered, 2: batch
}

func newMix(rng *rand.Rand, inp *inputs) *mix { return &mix{rng: rng, inp: inp} }

func (m *mix) next() serveOp {
	if len(m.deck) == 0 {
		m.deck = []int{0, 0, 0, 0, 0, 1, 1, 1, 2, 2}
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	kind := m.deck[0]
	m.deck = m.deck[1:]
	switch kind {
	case 0:
		return serveOp{proof: 0}
	case 1:
		return serveOp{proof: 1 + m.rng.Intn(len(m.inp.proofs)-1)}
	default:
		return serveOp{batch: m.inp.drawBatch(m.rng, batchSize)}
	}
}

func (e *env) doServeOp(ctx context.Context, d door, inp *inputs, op serveOp) bool {
	if op.batch != nil {
		got, err := d.batch(ctx, op.batch)
		return e.tal.recordBatch(got, op.batch, inp, err)
	}
	got, err := d.check(ctx, op.proof)
	return e.tal.record(got, inp.want[op.proof], err)
}

// runServeWarm: set-up is POST /instances plus the first check (the
// skeleton build). Each slice runs an open loop of the mix at serveRate,
// whose latencies from due time go to the report, then single /check
// calls from one client for check_p50_ms, then a closed loop of the mix
// for saturated_rps. The open loop's p50 is not the gate: it swings
// with how arrivals happen to overlap batches and garbage collection,
// about twice the run-to-run spread of the closed-loop p50.
func runServeWarm(ctx context.Context, e *env) (map[string]float64, error) {
	out := make(map[string]float64)
	inp, err := e.inputs(e.instance(), nil)
	if err != nil {
		return nil, err
	}
	doc, err := instanceDoc(inp)
	if err != nil {
		return nil, err
	}
	srv := startServer()
	defer srv.close()
	var d *httpDoor
	setup, _, err := medianSetup(func() (func(), error) {
		id, err := srv.register(ctx, doc)
		if err != nil {
			return nil, err
		}
		if d, err = newHTTPDoor(srv.client, srv.ts.URL, id, inp.proofs); err != nil {
			return nil, err
		}
		if err := e.firstCheck(ctx, d, inp); err != nil {
			return nil, err
		}
		return func() { // only the last pass's instance stays registered
			if err := srv.deregister(ctx, id); err != nil {
				e.tal.record(nil, nil, err)
			}
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out["setup_s"] = setup

	rng := e.drawRNG()
	open := newMix(rand.New(rand.NewSource(rng.Int63())), inp)
	mixes := make([]*mix, clients)
	for c := range mixes {
		mixes[c] = newMix(rand.New(rand.NewSource(rng.Int63())), inp)
	}
	checkOp := func(_, i int) bool {
		idx := inp.pick(i)
		got, err := d.check(ctx, idx)
		return e.tal.record(got, inp.want[idx], err)
	}
	per := e.seconds / time.Duration(e.slices())
	var lat, checks, batches, late samples
	done, busy := 0, time.Duration(0)
	for range e.slices() {
		runtime.GC()
		c, b, l := e.openLoop(ctx, d, inp, open, rng, per*4/10)
		checks, batches, late = append(checks, c...), append(batches, b...), append(late, l...)
		l1, _, _ := closedLoop(1, per*3/10, checkOp)
		lat = append(lat, l1...)
		_, n, cb := closedLoop(clients, per*3/10, func(client, _ int) bool {
			return e.doServeOp(ctx, d, inp, mixes[client].next())
		})
		done += n
		busy += cb
	}
	out["check_p50_ms"] = ms(lat.quantile(0.5))
	out["saturated_rps"] = float64(done*clients) / busy.Seconds()
	e.notef("/check from 1 client: %d samples, p50 %.3f ms, p90 %.3f ms (%d beyond p90)",
		len(lat), ms(lat.quantile(0.5)), ms(lat.quantile(0.9)), lat.beyond(0.9))
	e.notef("open loop at %.0f req/s (Poisson, %d senders), latency from due time:", serveRate, clients)
	e.notef("  /check: %d samples, p50 %.3f ms, p90 %.3f ms (%d beyond p90)",
		len(checks), ms(checks.quantile(0.5)), ms(checks.quantile(0.9)), checks.beyond(0.9))
	e.notef("  /check/batch: %d samples, p50 %.3f ms, p90 %.3f ms (%d beyond p90)",
		len(batches), ms(batches.quantile(0.5)), ms(batches.quantile(0.9)), batches.beyond(0.9))
	e.notef("  loadgen late p90 %.3f ms over %d arrivals", ms(late.quantile(0.9)), len(late))
	e.notef("saturated: %d requests of the mix by %d clients in %.2f client-seconds", done, clients, busy.Seconds())
	return out, nil
}

// openLoop sends Poisson arrivals at serveRate for dur, drawn from rng,
// with requests dealt by m; each request is timed from its due time, so a stall also
// delays the requests queued behind it. It returns the /check and
// /check/batch latencies and how late each request left.
func (e *env) openLoop(ctx context.Context, d door, inp *inputs, m *mix, rng *rand.Rand, dur time.Duration) (checks, batches, late samples) {
	var ops []serveOp
	start := time.Now().Add(20 * time.Millisecond)
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if at >= dur {
			break
		}
		op := m.next()
		op.due = start.Add(at)
		ops = append(ops, op)
	}
	queue := make(chan serveOp)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range queue {
				sent := time.Now()
				ok := e.doServeOp(ctx, d, inp, op)
				lat := time.Since(op.due)
				mu.Lock()
				late = append(late, sent.Sub(op.due))
				if ok && op.batch != nil {
					batches = append(batches, lat)
				} else if ok {
					checks = append(checks, lat)
				}
				mu.Unlock()
			}
		}()
	}
	for _, op := range ops {
		time.Sleep(time.Until(op.due))
		queue <- op
	}
	close(queue)
	wg.Wait()
	return checks, batches, late
}
