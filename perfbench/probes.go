package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/obs"
	"lcp/internal/partition"
	"lcp/internal/remote"
	"lcp/internal/transport"
)

// The traced run measures every layer on the workload's own instance by
// timing calls into each layer's public functions, one span per call.
// Predictions of which end-to-end metric each layer metric should move
// live in perfbench/plan.json.

// layers are the packages a span can be charged to, for self times.
var layers = []string{"graph", "textio", "schemes", "core", "bitstr", "partition", "transport", "engine", "serve", "dist", "remote"}

const (
	probeReps = 3 // passes of a whole-instance layer loop; the median is kept
	// probeLoops is how many timed loops of checks or batches share the
	// run's --seconds; each runs at least minProbeOps operations.
	probeLoops  = 8
	minProbeOps = 4
)

// sink keeps the compiler from discarding probe results.
var sink uint64

// probe is the state shared by the traced run's probes.
type probe struct {
	ctx  context.Context
	e    *env
	tr   *tracer
	root int
	inp  *inputs
	out  map[string]float64
}

// span opens a child span of the probe's root.
func (p *probe) span(name string) func() {
	_, end := p.tr.start(p.root, name)
	return end
}

// timed runs fn inside a span and returns its wall time.
func (p *probe) timed(name string, fn func()) time.Duration {
	end := p.span(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

func runTraced(ctx context.Context, e *env, run string) (map[string]float64, error) {
	tr := newTracer(run)
	p := &probe{ctx: ctx, e: e, tr: tr, out: make(map[string]float64)}
	var endRoot func()
	p.root, endRoot = tr.start(0, "perfbench.run")

	var gen, wr, pa, pr []float64
	var in *core.Instance
	var honest core.Proof
	for range probeReps {
		var pt pipelineTimes
		var err error
		if in, honest, pt, err = e.pipeline(tr, p.root); err != nil {
			return nil, err
		}
		gen = append(gen, pt.generate.Seconds())
		wr = append(wr, pt.write.Seconds())
		pa = append(pa, pt.parse.Seconds())
		pr = append(pr, pt.prove.Seconds())
	}
	p.out["graph.generate_s"] = median(gen)
	p.out["textio.write_s"] = median(wr)
	p.out["textio.parse_s"] = median(pa)
	p.out["schemes.prove_s"] = median(pr)
	var err error
	if p.inp, err = e.inputs(in, honest); err != nil {
		return nil, err
	}
	e.notef("instance: %d nodes, %d edges, %d proof bits, %d tampered proofs",
		in.G.N(), in.G.M(), honest.TotalBits(), len(p.inp.proofs)-1)

	p.localLayers()
	for _, step := range []func() error{p.wireLayers, p.engine, p.serve, p.dist, p.remote, p.overhead} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	endRoot()

	self := tr.selfTimes()
	for _, l := range layers {
		p.out["self."+l+"_ms"] = ms(self[l])
	}
	p.out["trace.spans"] = float64(tr.count())
	path, err := tr.write(".bench_build/traces")
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	e.notef("spans written to %s", path)
	return p.out, nil
}

// perNode is the median over probeReps passes of fn's time per node.
func (p *probe) perNode(name string, fn func()) float64 {
	var xs []float64
	n := float64(p.inp.in.G.N())
	for range probeReps {
		xs = append(xs, float64(p.timed(name, fn).Nanoseconds())/n)
	}
	return median(xs)
}

// localLayers measures the layers one node's check runs through:
// ball, view, proof decoding and the verifier.
func (p *probe) localLayers() {
	in, proof := p.inp.in, p.inp.proofs[0]
	v := p.inp.scheme.Verifier()
	r := v.Radius()
	nodes := in.G.Nodes()

	var ball []int
	p.out["graph.ball_ns_per_node"] = p.perNode("graph.AppendBallIDs", func() {
		for _, c := range nodes {
			ball = in.G.AppendBallIDs(ball[:0], c, r)
		}
	})

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.out["core.view_ns_per_node"] = p.perNode("core.BuildView", func() {
		for _, c := range nodes {
			if core.BuildView(in, proof, c, r) == nil {
				sink++
			}
		}
	})
	runtime.ReadMemStats(&m1)
	p.out["core.view_allocs_per_node"] = float64(m1.Mallocs-m0.Mallocs) / float64(probeReps*len(nodes))

	// The verifier alone, on views built beforehand in chunks.
	const chunk = 1024
	var verify time.Duration
	views := make([]*core.View, 0, chunk)
	for lo := 0; lo < len(nodes); lo += chunk {
		views = views[:0]
		end := p.span("core.BuildView")
		for _, c := range nodes[lo:min(lo+chunk, len(nodes))] {
			views = append(views, core.BuildView(in, proof, c, r))
		}
		end()
		verify += p.timed("schemes.Verify", func() {
			for _, w := range views {
				if v.Verify(w) {
					sink++
				}
			}
		})
	}
	p.out["schemes.verify_ns_per_node"] = float64(verify.Nanoseconds()) / float64(len(nodes))

	// Proof decoding: every label read once per view holding it, as a
	// per-view decoder does.
	var labels []bitstr.String
	viewBits := 0
	for _, c := range nodes {
		ball = in.G.AppendBallIDs(ball[:0], c, r)
		for _, u := range ball {
			labels = append(labels, proof[u])
			viewBits += proof[u].Len()
		}
	}
	var reads []float64
	for range probeReps {
		d := p.timed("bitstr.ReadUint", func() {
			for _, s := range labels {
				rd := bitstr.NewReader(s)
				for rem := s.Len(); rem > 0; rem -= 64 {
					sink ^= rd.ReadUint(min(rem, 64))
				}
			}
		})
		reads = append(reads, float64(d.Nanoseconds())/float64(max(viewBits, 1)))
	}
	p.out["bitstr.read_ns_per_bit"] = median(reads)
	p.out["bitstr.view_bits_per_proof_bit"] = float64(viewBits) / float64(max(proof.TotalBits(), 1))
}

// wireLayers measures the partitioner and the TCP data-frame codec over
// the instance's cut edges.
func (p *probe) wireLayers() error {
	in, proof := p.inp.in, p.inp.proofs[0]
	g := in.G
	var assign []int
	var times []float64
	for range probeReps {
		times = append(times, ms(p.timed("partition.Assign", func() {
			assign = partition.BFSChunks{}.Assign(g, shards)
		})))
	}
	p.out["partition.assign_ms"] = median(times)

	shardOf := make(map[int]int, g.N())
	for i, id := range g.Nodes() {
		shardOf[id] = assign[i]
	}
	record := func(u int) transport.Record {
		label, hasLabel := in.NodeLabel[u]
		rec := transport.Record{ID: u, Proof: proof[u], HasProof: true, Label: label, HasLabel: hasLabel}
		for _, w := range g.Neighbors(u) {
			rec.Edges = append(rec.Edges, transport.EdgeRec{E: graph.NormEdge(u, w)})
		}
		return rec
	}
	var dels []transport.Delivery
	for _, e := range g.Edges() {
		if shardOf[e.U] != shardOf[e.V] {
			dels = append(dels,
				transport.Delivery{Dst: e.V, Recs: transport.Batch{record(e.U)}},
				transport.Delivery{Dst: e.U, Recs: transport.Batch{record(e.V)}})
		}
	}
	p.out["partition.cut_share"] = float64(len(dels)/2) / float64(max(g.M(), 1))

	var buf []byte
	times = times[:0]
	for range probeReps {
		d := p.timed("transport.AppendData", func() {
			buf = transport.AppendData(buf[:0], transport.DataHeader{Seq: 1, Round: 1}, dels)
		})
		var got []transport.Delivery
		var err error
		d += p.timed("transport.DecodeData", func() { _, got, err = transport.DecodeData(buf) })
		if err != nil || len(got) != len(dels) {
			return fmt.Errorf("transport codec round trip: %d of %d deliveries, %v", len(got), len(dels), err)
		}
		times = append(times, float64(d.Nanoseconds())/float64(max(len(buf), 1)))
	}
	p.out["transport.codec_ns_per_byte"] = median(times)
	return nil
}

// defaultSeries scrapes the process-wide metrics registry.
func defaultSeries() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default().WriteProm(&buf); err != nil {
		return nil, err
	}
	return promSeries(buf.Bytes())
}

// budget is one probe loop's share of the run.
func (p *probe) budget() time.Duration { return p.e.seconds / probeLoops }

// checks times single checks (honest and tampered alternating) through
// d for one loop budget, each in a span, and scores every verdict.
func (p *probe) checks(name string, d checkDoor) samples {
	var lat samples
	start := time.Now()
	for i := 0; i < minProbeOps || time.Since(start) < p.budget(); i++ {
		idx := p.inp.pick(i)
		var got []int
		var err error
		lat = append(lat, p.timed(name, func() { got, err = d.check(p.ctx, idx) }))
		p.e.tal.record(got, p.inp.want[idx], err)
	}
	return lat
}

// batches times batches of distinct tamperings through d for one loop
// budget.
func (p *probe) batches(name string, d door) samples {
	var lat samples
	rng := p.e.drawRNG()
	start := time.Now()
	for i := 0; i < minProbeOps || time.Since(start) < p.budget(); i++ {
		idx := p.inp.drawBatch(rng, min(batchSize, len(p.inp.proofs)-1))
		var got [][]int
		var err error
		lat = append(lat, p.timed(name, func() { got, err = d.batch(p.ctx, idx) }))
		p.e.tal.recordBatch(got, idx, p.inp, err)
	}
	return lat
}

// engine measures the cached-view engine through an in-process façade
// checker: the floor under serve's HTTP numbers.
func (p *probe) engine() error {
	c, err := lcp.NewChecker(p.inp.in, lcp.WithScheme(p.inp.scheme), lcp.WithBackend(lcp.BackendEngine))
	if err != nil {
		return err
	}
	d := facadeDoor{c: c, proofs: p.inp.proofs, stages: make(map[string]float64)}
	if err := p.e.firstCheck(p.ctx, d, p.inp); err != nil { // builds the skeletons
		return err
	}
	before, err := defaultSeries()
	if err != nil {
		return err
	}
	clear(d.stages)
	lat := p.checks("engine.Check", d)
	p.out["engine.check_p50_ms"] = ms(lat.quantile(0.5))
	p.out["engine.views_ms"] = d.stages["engine.views"] / float64(len(lat))
	p.out["engine.verify_ms"] = d.stages["engine.verify"] / float64(len(lat))
	clear(d.stages)
	blat := p.batches("engine.CheckBatch", d)
	p.out["engine.batch_p50_ms"] = ms(blat.quantile(0.5))
	p.out["engine.batch_ms"] = d.stages["engine.batch"] / float64(len(blat))
	after, err := defaultSeries()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("lcp_engine_cache_hits_total"), delta("lcp_engine_cache_misses_total")
	p.out["engine.cache_hit_share"] = hits / max(hits+misses, 1)
	p.out["engine.columns_batches"] = delta("lcp_engine_batch_columns_total") / float64(len(blat))
	return nil
}

// serve measures what HTTP adds on top of the engine: the same proofs
// through an in-process serve.Server.
func (p *probe) serve() error {
	srv := startServer()
	defer srv.close()
	doc, err := instanceDoc(p.inp)
	if err != nil {
		return err
	}
	var id string
	end := p.span("serve.register")
	id, err = srv.register(p.ctx, doc)
	end()
	if err != nil {
		return err
	}
	d, err := newHTTPDoor(srv.client, srv.ts.URL, id, p.inp.proofs)
	if err != nil {
		return err
	}
	if err := p.e.firstCheck(p.ctx, d, p.inp); err != nil {
		return err
	}
	lat := p.checks("serve.check", d)
	blat := p.batches("serve.batch", d)
	p.out["serve.check_overhead_ms"] = ms(lat.quantile(0.5)) - p.out["engine.check_p50_ms"]
	p.out["serve.batch_overhead_ms"] = ms(blat.quantile(0.5)) - p.out["engine.batch_p50_ms"]
	bytesTotal := 0
	for i := range lat {
		bytesTotal += len(d.checkBody(p.inp.pick(i)))
	}
	p.out["serve.request_bytes"] = float64(bytesTotal) / float64(len(lat))
	series, err := scrape(srv)
	if err != nil {
		return err
	}
	p.out["serve.server_p50_ms"] = 1e3 * histQuantile(series, "lcp_http_request_seconds", `route="POST /check"`, 0.5)
	p.e.notef("serve: HTTP /check p50 %.3f ms vs engine %.3f ms; /check/batch p50 %.3f ms vs engine %.3f ms (engine.batch stage %.3f ms)",
		ms(lat.quantile(0.5)), p.out["engine.check_p50_ms"], ms(blat.quantile(0.5)), p.out["engine.batch_p50_ms"], p.out["engine.batch_ms"])
	return nil
}

func scrape(srv *server) (map[string]float64, error) {
	req, err := srv.client.Get(srv.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer req.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(req.Body); err != nil {
		return nil, err
	}
	return promSeries(buf.Bytes())
}

// dist measures the in-process sharded runtime: its stages, the
// paper's round and message counters, and allocation per check.
func (p *probe) dist() error {
	c, err := lcp.NewChecker(p.inp.in, distOptions(p.inp)...)
	if err != nil {
		return err
	}
	defer lcp.CloseChecker(c)
	d := facadeDoor{c: c, proofs: p.inp.proofs, stages: make(map[string]float64)}
	end := p.span("dist.Check")
	err = p.e.firstCheck(p.ctx, d, p.inp) // wires the network
	end()
	if err != nil {
		return err
	}
	p.out["dist.wire_ms"] = d.stages["dist.wire"]
	clear(d.stages)
	m0 := dist.Metrics()
	var a0, a1 runtime.MemStats
	runtime.ReadMemStats(&a0)
	lat := p.checks("dist.Check", d)
	runtime.ReadMemStats(&a1)
	m1 := dist.Metrics()
	p.out["dist.inproc_check_p50_ms"] = ms(lat.quantile(0.5))
	n := float64(len(lat))
	p.out["dist.seed_ms"] = d.stages["dist.seed"] / n
	p.out["dist.flood_ms"] = d.stages["dist.flood"] / n
	p.out["dist.run_ms"] = d.stages["dist.run"] / n
	p.out["dist.rounds_per_check"] = (m1.Rounds - m0.Rounds) / max(m1.Runs-m0.Runs, 1)
	cross, same := m1.CrossShardDeliveries-m0.CrossShardDeliveries, m1.SameShardDeliveries-m0.SameShardDeliveries
	p.out["dist.cross_shard_share"] = cross / max(cross+same, 1)
	p.out["dist.alloc_bytes_per_check"] = float64(a1.TotalAlloc-a0.TotalAlloc) / n
	return nil
}

// coordDoor calls a remote.Coordinator directly and sums its transport
// statistics.
type coordDoor struct {
	coord  *remote.Coordinator
	proofs []core.Proof
	stats  transport.Stats
}

func (d *coordDoor) check(ctx context.Context, i int) ([]int, error) {
	res, st, err := d.coord.Check(ctx, d.proofs[i])
	if err != nil {
		return nil, err
	}
	d.stats.Add(st)
	return res.Rejectors(), nil
}

// remote measures the TCP fleet: registration, the coordinator's check
// and the wire traffic it reports.
func (p *probe) remote() error {
	fl, err := startFleet(p.ctx, shards)
	if err != nil {
		return err
	}
	defer fl.stop()
	var coord *remote.Coordinator
	p.out["remote.register_ms"] = ms(p.timed("remote.Register", func() {
		coord, err = remote.DialCoordinator(p.ctx, "probe", fl.addrs, remote.Options{Partitioner: partition.BFSChunks{}})
		if err == nil {
			err = coord.Register(p.ctx, p.inp.in, p.inp.scheme.Name())
		}
	}))
	if coord != nil {
		defer coord.Close()
	}
	if err != nil {
		return err
	}
	d := &coordDoor{coord: coord, proofs: p.inp.proofs}
	if err := p.e.firstCheck(p.ctx, d, p.inp); err != nil {
		return err
	}
	d.stats = transport.Stats{}
	lat := p.checks("remote.Check", d)
	p.out["remote.check_p50_ms"] = ms(lat.quantile(0.5))
	n := float64(len(lat))
	p.out["transport.bytes_per_check"] = float64(d.stats.BytesOut) / n
	p.out["transport.frames_per_check"] = float64(d.stats.FramesOut) / n
	p.out["transport.rounds_per_check"] = float64(d.stats.Rounds) / (n * shards)
	return nil
}

// overhead compares the workload's front-door check with and without a
// span around it, interleaved, as the tracing overhead.
func (p *probe) overhead() error {
	d, stop, err := p.e.w.front(p.ctx, p.inp)
	if err != nil {
		return err
	}
	defer stop()
	if err := p.e.firstCheck(p.ctx, d, p.inp); err != nil {
		return err
	}
	var plain, traced samples
	start := time.Now()
	for i := 0; i < minProbeOps || time.Since(start) < p.budget(); i++ {
		idx := p.inp.pick(i)
		t0 := time.Now()
		got, err := d.check(p.ctx, idx)
		plain = append(plain, time.Since(t0))
		p.e.tal.record(got, p.inp.want[idx], err)
		var tgot []int
		traced = append(traced, p.timed("front.check", func() { tgot, err = d.check(p.ctx, idx) }))
		p.e.tal.record(tgot, p.inp.want[idx], err)
	}
	p.out["trace.overhead_ms"] = ms(traced.quantile(0.5)) - ms(plain.quantile(0.5))
	return nil
}
