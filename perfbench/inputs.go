package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/graph"
)

// inputs is one workload's generated instance with its proof pool and
// the core.Check reference verdict of every proof in it.
type inputs struct {
	in     *core.Instance
	scheme core.Scheme
	proofs []core.Proof // proofs[0] is honest; the rest are distinct core.FlipBit tamperings
	want   [][]int      // core.Check rejectors of each proof, ascending (nil: all accept)
}

// newInstance labels one seeded node of g as the leader.
func newInstance(g *graph.Graph, rng *rand.Rand) *core.Instance {
	in := core.NewInstance(g)
	nodes := g.Nodes()
	in.NodeLabel = map[int]string{nodes[rng.Intn(len(nodes))]: core.LabelLeader}
	return in
}

// makeInputs proves the instance, draws tampered distinct proofs from
// rng and computes the core.Check reference for every proof.
func makeInputs(in *core.Instance, honest core.Proof, tampered int, rng *rand.Rand) (*inputs, error) {
	scheme := lcp.LeaderElectionScheme()
	if honest == nil {
		var err error
		if honest, err = scheme.Prove(in); err != nil {
			return nil, fmt.Errorf("prove: %w", err)
		}
	}
	inp := &inputs{in: in, scheme: scheme, proofs: []core.Proof{honest}}
	seen := make(map[string]bool)
	for attempts := 0; len(inp.proofs) < 1+tampered; attempts++ {
		if attempts > 50*tampered+100 {
			return nil, fmt.Errorf("could not draw %d distinct tamperings", tampered)
		}
		p := core.FlipBit(honest, rng.Int63())
		key := flipKey(in.G, honest, p)
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		inp.proofs = append(inp.proofs, p)
	}
	v := scheme.Verifier()
	for _, p := range inp.proofs {
		inp.want = append(inp.want, core.Check(in, p, v).Rejectors())
	}
	if len(inp.want[0]) != 0 {
		return nil, fmt.Errorf("honest proof rejected by %d nodes", len(inp.want[0]))
	}
	return inp, nil
}

// flipKey names the one label where tampered differs from honest.
func flipKey(g *graph.Graph, honest, tampered core.Proof) string {
	for _, v := range g.Nodes() {
		if !honest[v].Equal(tampered[v]) {
			return strconv.Itoa(v) + ":" + tampered[v].Key()
		}
	}
	return ""
}

// pick returns the proof index of the i-th single check of a closed
// loop: honest and tampered proofs alternate.
func (inp *inputs) pick(i int) int {
	if i%2 == 0 {
		return 0
	}
	return 1 + (i/2)%(len(inp.proofs)-1)
}

// drawBatch draws k distinct tampered proof indexes.
func (inp *inputs) drawBatch(rng *rand.Rand, k int) []int {
	idx := rng.Perm(len(inp.proofs) - 1)[:k]
	for i := range idx {
		idx[i]++
	}
	return idx
}

// checkDoor verifies single proofs.
type checkDoor interface {
	// check verifies proof i and returns its rejectors, ascending.
	check(ctx context.Context, i int) ([]int, error)
}

// door is a workload's front door: the surface a user calls.
type door interface {
	checkDoor
	// batch verifies the proofs idx in one call.
	batch(ctx context.Context, idx []int) ([][]int, error)
}

// facadeDoor calls an lcp.Checker in process. With stages set, it sums
// the reports' stage times by name, in milliseconds.
type facadeDoor struct {
	c      lcp.Checker
	proofs []core.Proof
	stages map[string]float64
}

func (d facadeDoor) addStages(rep *lcp.Report) {
	if d.stages == nil {
		return
	}
	for _, st := range rep.Stages {
		d.stages[st.Name] += ms(st.Total)
	}
}

func (d facadeDoor) check(ctx context.Context, i int) ([]int, error) {
	rep, err := d.c.Check(ctx, d.proofs[i])
	if err != nil {
		return nil, err
	}
	d.addStages(rep)
	return rep.Rejectors(), nil
}

func (d facadeDoor) batch(ctx context.Context, idx []int) ([][]int, error) {
	ps := make([]core.Proof, len(idx))
	for j, i := range idx {
		ps[j] = d.proofs[i]
	}
	reps, err := d.c.CheckBatch(ctx, ps)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(reps))
	for j, rep := range reps {
		out[j] = rep.Rejectors()
	}
	if len(reps) > 0 {
		d.addStages(reps[0]) // the reports of a column batch share one timeline
	}
	return out, nil
}

// httpDoor posts JSON to a serve.Server. Proofs travel in the wire
// form serve parses: node id → "0101…".
type httpDoor struct {
	client   *http.Client
	url      string
	instance string
	wire     [][]byte // JSON of each proof's wire map
}

func newHTTPDoor(client *http.Client, url, instance string, proofs []core.Proof) (*httpDoor, error) {
	d := &httpDoor{client: client, url: url, instance: instance}
	for _, p := range proofs {
		m := make(map[string]string, len(p))
		for id, bits := range p {
			m[strconv.Itoa(id)] = bits.String()
		}
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		d.wire = append(d.wire, b)
	}
	return d, nil
}

type checkResp struct {
	Rejectors []int `json:"rejectors"`
}

func (d *httpDoor) checkBody(i int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"instance":%q,"proof":`, d.instance)
	b.Write(d.wire[i])
	b.WriteByte('}')
	return b.Bytes()
}

func (d *httpDoor) batchBody(idx []int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"instance":%q,"proofs":[`, d.instance)
	for j, i := range idx {
		if j > 0 {
			b.WriteByte(',')
		}
		b.Write(d.wire[i])
	}
	b.WriteString("]}")
	return b.Bytes()
}

func (d *httpDoor) check(ctx context.Context, i int) ([]int, error) {
	var out checkResp
	if err := postJSON(ctx, d.client, d.url+"/check", d.checkBody(i), &out); err != nil {
		return nil, err
	}
	return out.Rejectors, nil
}

func (d *httpDoor) batch(ctx context.Context, idx []int) ([][]int, error) {
	var out struct {
		Results []checkResp `json:"results"`
	}
	if err := postJSON(ctx, d.client, d.url+"/check/batch", d.batchBody(idx), &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(idx) {
		return nil, fmt.Errorf("batch of %d answered with %d results", len(idx), len(out.Results))
	}
	rej := make([][]int, len(idx))
	for j, r := range out.Results {
		rej[j] = r.Rejectors
	}
	return rej, nil
}

// postJSON posts body and decodes a 2xx answer into v; any other status
// is an error.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// tally counts operations against the reference. An operation fails on
// an error, a non-2xx answer or a verdict that differs from core.Check.
type tally struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	mismatches int
	firstErr   error
}

// record scores one check: got against the reference rejectors want.
func (t *tally) record(got, want []int, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return false
	case !slices.Equal(got, want):
		t.failed++
		t.mismatches++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("verdict mismatch: %d rejectors, core.Check reference has %d", len(got), len(want))
		}
		return false
	}
	return true
}

// recordBatch scores one batch as one operation.
func (t *tally) recordBatch(got [][]int, idx []int, inp *inputs, err error) bool {
	if err == nil {
		for j, i := range idx {
			if !slices.Equal(got[j], inp.want[i]) {
				return t.record(got[j], inp.want[i], nil)
			}
		}
	}
	return t.record(nil, nil, err)
}
