package serve_test

// httptest integration tests for the lcpserve HTTP surface: instance
// registration, one-shot documents, single checks, a 100-proof batch,
// and the streaming NDJSON endpoint with early exit.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/serve"
	"lcp/internal/textio"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(lcp.BuiltinSchemes(), config.Config{Runtimes: 2}))
	t.Cleanup(ts.Close)
	return ts
}

func docText(t *testing.T, in *core.Instance, schemeName string, p core.Proof) string {
	t.Helper()
	var buf bytes.Buffer
	if err := textio.Write(&buf, &textio.Document{Instance: in, Proof: p, SchemeName: schemeName}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func registerInstance(t *testing.T, ts *httptest.Server, doc string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/instances", "text/plain", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" {
		t.Fatal("register: empty id")
	}
	return info.ID
}

func proofWire(p core.Proof) map[string]string {
	out := make(map[string]string, len(p))
	for id, s := range p {
		out[strconv.Itoa(id)] = s.String()
	}
	return out
}

// TestServeDistributedBatchConcurrentShards is the -race stress test of
// concurrent shard checks inside a single serve request: one
// /check/batch with distributed=true fans its proofs out over the
// engine's sharded dist runtimes concurrently (each proof's shards also
// flood in parallel, on the sharded scheduler), so the whole wiring pool
// and the shard barriers are exercised under contention. Verdicts must
// match the sequential reference proof-for-proof.
func TestServeDistributedBatchConcurrentShards(t *testing.T) {
	ts := httptest.NewServer(serve.New(lcp.BuiltinSchemes(), config.Config{
		Workers:  4,
		Runtimes: 3,
		Dist:     dist.Options{Sharded: true, Shards: 2},
	}))
	t.Cleanup(ts.Close)

	in := lcp.NewInstance(lcp.Cycle(21))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))

	const batch = 24
	proofs := make([]map[string]string, batch)
	want := make([]bool, batch)
	for i := range proofs {
		proof := p
		if i%3 != 0 {
			proof = core.FlipBit(p, int64(i))
		}
		proofs[i] = proofWire(proof)
		want[i] = core.Check(in, proof, scheme.Verifier()).Accepted()
	}

	resp, body := postJSON(t, ts.URL+"/check/batch", map[string]any{
		"instance":    id,
		"proofs":      proofs,
		"distributed": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Accepted bool `json:"accepted"`
		} `json:"results"`
		Checked int `json:"checked"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Checked != batch || len(out.Results) != batch {
		t.Fatalf("checked %d of %d", out.Checked, batch)
	}
	for i, res := range out.Results {
		if res.Accepted != want[i] {
			t.Errorf("proofs[%d]: accepted=%v, reference says %v", i, res.Accepted, want[i])
		}
	}
}

func TestServeCheckRegisteredInstance(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(16))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))

	for _, distributed := range []bool{false, true} {
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{
			"instance":    id,
			"proof":       proofWire(p),
			"distributed": distributed,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("distributed=%v: status %d: %s", distributed, resp.StatusCode, body)
		}
		var out struct {
			Accepted  bool  `json:"accepted"`
			Nodes     int   `json:"nodes"`
			ProofBits int   `json:"proof_bits"`
			Rejectors []int `json:"rejectors"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Accepted || out.Nodes != 16 || out.ProofBits != 1 || len(out.Rejectors) != 0 {
			t.Fatalf("distributed=%v: unexpected verdict %+v", distributed, out)
		}
	}

	// A tampered proof must be rejected with the same rejectors the
	// sequential reference reports.
	bad := core.FlipBit(p, 3)
	want := core.Check(in, bad, scheme.Verifier())
	resp, body := postJSON(t, ts.URL+"/check", map[string]any{
		"instance": id, "proof": proofWire(bad),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Accepted  bool  `json:"accepted"`
		Rejectors []int `json:"rejectors"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Fatal("tampered proof accepted")
	}
	if fmt.Sprint(out.Rejectors) != fmt.Sprint(want.Rejectors()) {
		t.Fatalf("rejectors %v, want %v", out.Rejectors, want.Rejectors())
	}
}

func TestServeCheckInlineDocumentAndProve(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(9))
	doc := docText(t, in, "odd-n", nil)

	// Prove over the wire...
	resp, body := postJSON(t, ts.URL+"/prove", map[string]any{"document": doc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: status %d: %s", resp.StatusCode, body)
	}
	var proved struct {
		Proof       map[string]string `json:"proof"`
		BitsPerNode int               `json:"bits_per_node"`
	}
	if err := json.Unmarshal(body, &proved); err != nil {
		t.Fatal(err)
	}
	if len(proved.Proof) == 0 {
		t.Fatal("prove returned no proof")
	}
	// ...and check the returned proof against the same inline document.
	resp, body = postJSON(t, ts.URL+"/check", map[string]any{
		"document": doc, "proof": proved.Proof,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Accepted bool `json:"accepted"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("honest odd-n proof rejected: %s", body)
	}
}

// TestServeBatchHundredProofs is the acceptance-criteria test: one
// registered instance, 100 proofs over HTTP in a single batch, verdicts
// matching the sequential reference element-wise.
func TestServeBatchHundredProofs(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(21))
	scheme := lcp.OddNScheme()
	honest, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))

	proofs := make([]core.Proof, 100)
	wire := make([]map[string]string, 100)
	proofs[0] = honest
	for i := 1; i < 100; i++ {
		proofs[i] = core.FlipBit(honest, int64(i))
	}
	for i, p := range proofs {
		wire[i] = proofWire(p)
	}
	resp, body := postJSON(t, ts.URL+"/check/batch", map[string]any{
		"instance": id, "proofs": wire,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Accepted  bool  `json:"accepted"`
			Rejectors []int `json:"rejectors"`
		} `json:"results"`
		Accepted int `json:"accepted"`
		Checked  int `json:"checked"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Checked != 100 || len(out.Results) != 100 {
		t.Fatalf("checked %d results %d, want 100", out.Checked, len(out.Results))
	}
	acceptedWant := 0
	for i, p := range proofs {
		want := core.Check(in, p, scheme.Verifier())
		if want.Accepted() {
			acceptedWant++
		}
		if out.Results[i].Accepted != want.Accepted() {
			t.Fatalf("proofs[%d]: accepted=%v, want %v", i, out.Results[i].Accepted, want.Accepted())
		}
		if fmt.Sprint(out.Results[i].Rejectors) != fmt.Sprint(want.Rejectors()) {
			t.Fatalf("proofs[%d]: rejectors %v, want %v", i, out.Results[i].Rejectors, want.Rejectors())
		}
	}
	if !out.Results[0].Accepted {
		t.Fatal("honest proof rejected in batch")
	}
	if out.Accepted != acceptedWant {
		t.Fatalf("accepted %d, want %d", out.Accepted, acceptedWant)
	}
}

func TestServeStreamNDJSON(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(12))
	p, err := lcp.BipartiteScheme().Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))

	body, _ := json.Marshal(map[string]any{"instance": id, "proof": proofWire(p)})
	resp, err := http.Post(ts.URL+"/check/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	seen := map[int]bool{}
	var summary struct {
		Done     bool `json:"done"`
		Accepted bool `json:"accepted"`
		Checked  int  `json:"checked"`
		Nodes    int  `json:"nodes"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Node   int  `json:"node"`
			Accept bool `json:"accept"`
			Done   bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !line.Accept {
			t.Fatalf("node %d rejected an honest proof", line.Node)
		}
		seen[line.Node] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 || !summary.Done || !summary.Accepted || summary.Checked != 12 || summary.Nodes != 12 {
		t.Fatalf("stream: %d verdicts, summary %+v", len(seen), summary)
	}
}

func TestServeStreamStopOnReject(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(64)) // even cycle: odd-n rejects
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))

	body, _ := json.Marshal(map[string]any{
		"instance": id, "proof": map[string]string{}, "stop_on_reject": true,
	})
	resp, err := http.Post(ts.URL+"/check/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rejects int
	var summary struct {
		Done         bool `json:"done"`
		Accepted     bool `json:"accepted"`
		Checked      int  `json:"checked"`
		StoppedEarly bool `json:"stopped_early"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Accept bool `json:"accept"`
			Done   bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
		} else if !line.Accept {
			rejects++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rejects == 0 || !summary.StoppedEarly || summary.Accepted {
		t.Fatalf("expected early-exit rejection, got rejects=%d summary=%+v", rejects, summary)
	}
	if summary.Checked >= in.G.N() {
		t.Fatalf("stop_on_reject still checked all %d nodes", summary.Checked)
	}
}

// TestServeRejectsMisdirectedFields: a field an endpoint would
// silently ignore is a client bug and must 400, never produce a
// verdict for a proof that was not checked.
func TestServeRejectsMisdirectedFields(t *testing.T) {
	ts := newTestServer(t)
	id := registerInstance(t, ts, docText(t, lcp.NewInstance(lcp.Cycle(5)), "odd-n", nil))
	for _, tc := range []struct {
		endpoint string
		req      map[string]any
	}{
		{"/check/stream", map[string]any{"instance": id, "proof": map[string]string{}, "distributed": true}},
		{"/check", map[string]any{"instance": id, "proofs": []map[string]string{{}}}},
		{"/check", map[string]any{"instance": id, "proof": map[string]string{}, "stop_on_reject": true}},
		{"/check/batch", map[string]any{"instance": id, "proof": map[string]string{}, "proofs": []map[string]string{{}}}},
		{"/check/stream", map[string]any{"instance": id, "proofs": []map[string]string{{}}}},
		{"/prove", map[string]any{"instance": id, "proof": map[string]string{}}},
		{"/prove", map[string]any{"instance": id, "distributed": true}},
		{"/check", map[string]any{"instance": id, "proof": map[string]string{}, "batch_columns": "true"}},
		{"/check/stream", map[string]any{"instance": id, "proof": map[string]string{}, "batch_columns": "auto"}},
		{"/prove", map[string]any{"instance": id, "batch_columns": "true"}},
	} {
		resp, body := postJSON(t, ts.URL+tc.endpoint, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %v: status %d: %s", tc.endpoint, tc.req, resp.StatusCode, body)
		}
	}
}

// panicScheme's verifier panics at one node: the server must fail
// closed (reject) rather than let the panic kill a worker goroutine.
type panicScheme struct{}

func (panicScheme) Name() string { return "panicky" }
func (panicScheme) Verifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		if w.Center == 3 {
			panic("verifier bug")
		}
		return true
	}}
}
func (panicScheme) Prove(in *core.Instance) (core.Proof, error) { return core.Proof{}, nil }

func TestServePanickingVerifierFailsClosed(t *testing.T) {
	ts := httptest.NewServer(serve.New(map[string]core.Scheme{"panicky": panicScheme{}}, config.Config{}))
	t.Cleanup(ts.Close)
	id := registerInstance(t, ts, docText(t, lcp.NewInstance(lcp.Cycle(6)), "panicky", nil))
	for _, endpoint := range []string{"/check", "/check/stream"} {
		resp, body := postJSON(t, ts.URL+endpoint, map[string]any{
			"instance": id, "proof": map[string]string{},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", endpoint, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"accept":false`) && !strings.Contains(string(body), `"accepted":false`) {
			t.Fatalf("%s: panicking node did not fail closed: %s", endpoint, body)
		}
	}
	// The daemon is still alive.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon died after panicking verifier: %v", err)
	}
	resp.Body.Close()
}

func TestServeInstanceLifecycleAndErrors(t *testing.T) {
	ts := newTestServer(t)
	id := registerInstance(t, ts, docText(t, lcp.NewInstance(lcp.Cycle(5)), "odd-n", nil))

	// List shows it.
	resp, err := http.Get(ts.URL + "/instances")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		ID    string `json:"id"`
		Nodes int    `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != id || list[0].Nodes != 5 {
		t.Fatalf("list: %+v", list)
	}

	// Schemes endpoint lists the registry.
	resp, err = http.Get(ts.URL + "/schemes")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(names) != len(lcp.BuiltinSchemes()) {
		t.Fatalf("schemes: got %d names, want %d", len(names), len(lcp.BuiltinSchemes()))
	}

	// Delete, then the id is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/instances/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/check", map[string]any{"instance": id}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("check of deleted instance: status %d: %s", resp.StatusCode, body)
	}

	// Error surfaces: bad document, unknown scheme, bad proof bits.
	for _, tc := range []map[string]any{
		{"document": "graph sideways"},
		{"document": "graph undirected\nedge 1 2", "scheme": "no-such-scheme"},
		{"document": "graph undirected\nedge 1 2\nscheme bipartite", "proof": map[string]string{"1": "02"}},
		{"document": "graph undirected\nedge 1 2\nscheme bipartite", "proof": map[string]string{"99": "0"}},
		{},
	} {
		if resp, body := postJSON(t, ts.URL+"/check", tc); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %d: %s", tc, resp.StatusCode, body)
		}
	}

	// Prove on a no-instance reports the soundness error.
	noDoc := docText(t, lcp.NewInstance(lcp.Cycle(7)), "bipartite", nil) // odd cycle: not bipartite
	if resp, body := postJSON(t, ts.URL+"/prove", map[string]any{"document": noDoc}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("prove no-instance: status %d: %s", resp.StatusCode, body)
	}
}

// TestServeHostileProofBodies posts hand-written request bodies at the
// proof decoder: escapes, whitespace, null in every position, bad ids
// and bits, unknown nodes, duplicate keys, trailing garbage, wrong JSON
// types, deep nesting and an oversized body. Each must answer 400 or
// the verdict core.Check gives on the proof the body spells — never a
// panic or a 500.
func TestServeHostileProofBodies(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(6))
	in.NodeLabel = map[int]string{1: core.LabelLeader}
	scheme := lcp.LeaderElectionScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, scheme.Name(), nil))

	// entries renders p as JSON object members, node 1 first; edit may
	// rewrite each member's key and label text.
	entries := func(edit func(key, bits string) string) string {
		var parts []string
		for v := 1; v <= 6; v++ {
			key, bits := strconv.Itoa(v), p[v].String()
			if edit != nil {
				parts = append(parts, edit(key, bits))
			} else {
				parts = append(parts, fmt.Sprintf("%q:%q", key, bits))
			}
		}
		return strings.Join(parts, ",")
	}
	honest := "{" + entries(nil) + "}"
	escaped := "{\n\t" + entries(func(key, bits string) string {
		// \u00XX-escape the first character of every key and label.
		return fmt.Sprintf(" \"\\u%04x%s\" :\r\n \"\\u%04x%s\" ", key[0], key[1:], bits[0], bits[1:])
	}) + "\n}"
	withNode1 := func(text string) core.Proof {
		q := p.Clone()
		q[1] = bitstr.Parse(text)
		return q
	}
	envelope := func(field, value string) string {
		return fmt.Sprintf(`{"instance":%q,%q:%s}`, id, field, value)
	}
	empty := core.Proof{}

	const bad = 400
	for _, tc := range []struct {
		name  string
		route string
		body  string
		want  []core.Proof // the proofs a 200 answer must judge; nil: want 400
	}{
		{"honest", "/check", envelope("proof", honest), []core.Proof{p}},
		{"escapes-and-whitespace", "/check", envelope("proof", escaped), []core.Proof{p}},
		{"empty-object", "/check", envelope("proof", "{}"), []core.Proof{empty}},
		{"null-proof-uses-document", "/check", envelope("proof", "null"), []core.Proof{empty}},
		{"null-label-is-empty", "/check", envelope("proof", strings.Replace(honest, `"1":"`+p[1].String()+`"`, `"1":null`, 1)), []core.Proof{withNode1("")}},
		{"leading-zero-id", "/check", envelope("proof", strings.Replace(honest, `"1":`, `"01":`, 1)), []core.Proof{p}},
		{"duplicate-key-last-wins", "/check", envelope("proof", `{"1":"x",`+honest[1:]), []core.Proof{p}},
		{"duplicate-key-last-bad", "/check", envelope("proof", honest[:len(honest)-1]+`,"1":"x"}`), nil},
		{"non-numeric-id", "/check", envelope("proof", `{"one":"0"}`), nil},
		{"negative-id", "/check", envelope("proof", `{"-1":"0"}`), nil},
		{"unknown-node", "/check", envelope("proof", `{"99":"0"}`), nil},
		{"bad-bit", "/check", envelope("proof", `{"1":"012"}`), nil},
		{"non-ascii-bit", "/check", envelope("proof", `{"1":"0é"}`), nil},
		{"number-label", "/check", envelope("proof", `{"1":1}`), nil},
		{"array-proof", "/check", envelope("proof", `["0","1"]`), nil},
		{"string-proof", "/check", envelope("proof", `"0101"`), nil},
		{"unknown-field", "/check", `{"instance":"` + id + `","proof":{},"extra":1}`, nil},
		{"garbage-inside-proof", "/check", envelope("proof", `{"1":"0"} x}`), nil},
		{"unterminated", "/check", envelope("proof", `{"1":"0"`), nil},
		{"garbage-after-envelope", "/check", envelope("proof", honest) + " trailing", []core.Proof{p}},
		{"deep-nesting", "/check", envelope("proof", `{"1":`+strings.Repeat("[", 100000)+strings.Repeat("]", 100000)+"}"), nil},
		{"oversized", "/check", envelope("proof", `{"1":"`+strings.Repeat("0", 17<<20)+`"}`), nil},
		{"proofs-on-check", "/check", envelope("proofs", "[null]"), nil},
		{"batch-null-element", "/check/batch", envelope("proofs", "[null]"), []core.Proof{empty}},
		{"batch-mixed", "/check/batch", envelope("proofs", "["+honest+",null,{},"+escaped+"]"), []core.Proof{p, empty, empty, p}},
		{"batch-null", "/check/batch", envelope("proofs", "null"), nil},
		{"batch-bad-element", "/check/batch", envelope("proofs", "["+honest+`,{"1":"2"}]`), nil},
		{"batch-object", "/check/batch", envelope("proofs", honest), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == nil {
				if resp.StatusCode != bad {
					t.Fatalf("status %d, want 400: %.200s", resp.StatusCode, body)
				}
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200: %.200s", resp.StatusCode, body)
			}
			type verdict struct {
				Accepted  bool  `json:"accepted"`
				Rejectors []int `json:"rejectors"`
			}
			var got []verdict
			if tc.route == "/check/batch" {
				var out struct {
					Results []verdict `json:"results"`
				}
				err = json.Unmarshal(body, &out)
				got = out.Results
			} else {
				var out verdict
				err = json.Unmarshal(body, &out)
				got = []verdict{out}
			}
			if err != nil || len(got) != len(tc.want) {
				t.Fatalf("answer %s: %v", body, err)
			}
			for i, q := range tc.want {
				ref := core.Check(in, q, scheme.Verifier())
				if got[i].Accepted != ref.Accepted() || fmt.Sprint(got[i].Rejectors) != fmt.Sprint(ref.Rejectors()) {
					t.Errorf("proof %d: got %+v, reference accepted=%v rejectors=%v", i, got[i], ref.Accepted(), ref.Rejectors())
				}
			}
		})
	}
}
