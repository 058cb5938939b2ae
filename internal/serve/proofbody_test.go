package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graph"
)

// refRequest decodes a request body the way the server did before
// proofBody: the proof fields as plain maps, every other field from
// checkRequest (the shallower fields win encoding/json's name lookup).
type refRequest struct {
	checkRequest
	Proof  map[string]string   `json:"proof,omitempty"`
	Proofs []map[string]string `json:"proofs,omitempty"`
}

// refParseProof is the map-based proof parser proofBody replaced.
func refParseProof(in *core.Instance, m map[string]string) (core.Proof, error) {
	p := make(core.Proof, len(m))
	for key, bits := range m {
		id, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("bad proof node id %q", key)
		}
		if !in.G.Has(id) {
			return nil, fmt.Errorf("proof references unknown node %d", id)
		}
		var w bitstr.Writer
		for _, r := range bits {
			switch r {
			case '0':
				w.WriteBit(false)
			case '1':
				w.WriteBit(true)
			default:
				return nil, fmt.Errorf("node %d: bad proof bit %q", id, r)
			}
		}
		p[id] = w.String()
	}
	return p, nil
}

func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// sameProof compares a decoded proof with the reference. Two distinct
// keys naming one node ("1" and "01") leave the reference's pick to map
// order, so any of the key's values is accepted for that node.
func sameProof(t *testing.T, in *core.Instance, m map[string]string, got *proofBody) {
	t.Helper()
	want, wantErr := refParseProof(in, m)
	gotP, gotErr := parseProof(in, got)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("reference err %v, decoder err %v", wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	values := make(map[int][]string, len(m))
	for key, text := range m {
		id, _ := strconv.Atoi(key)
		values[id] = append(values[id], text)
	}
	if len(gotP) != len(want) || len(want) != len(values) {
		t.Fatalf("decoded %d labels, reference %d", len(gotP), len(want))
	}
	for id, texts := range values {
		s, ok := gotP[id]
		if !ok || !slices.Contains(texts, s.String()) {
			t.Fatalf("node %d: decoded %q (present %v), reference values %q", id, s, ok, texts)
		}
	}
}

// FuzzProofBody decodes a request body twice — through proofBody and
// through the reference (encoding/json maps, then the old parser) —
// and demands the same proofs from both, or a rejection from both, on
// an 8-cycle instance.
func FuzzProofBody(f *testing.F) {
	for _, seed := range []string{
		`{"instance":"i1","proof":{"1":"01","2":"10"}}`,
		`{"proof":{"1" : "01", "2":"1\n"}}`,
		"{\"proof\" :\n\t{ \"3\" :\r \"0110\" , \"4\":\"\" }\n}",
		`{"proof":{}}`,
		`{"proof":null}`,
		`{"proofs":[null]}`,
		`{"proofs":[{"1":"0"},null,{},{"8":"1"}]}`,
		`{"proof":{"x":"0"}}`,
		`{"proof":{"-1":"0"}}`,
		`{"proof":{"1":"012"}}`,
		`{"proof":{"1":"0é"}}`,
		`{"proof":{"99":"0"}}`,
		`{"proof":{"1":"0"}} trailing`,
		`{"proof":{"1":"0"}`,
		`{"proof":{"1":"x","1":"01"}}`,
		`{"proof":{"1":"01","1":"x"}}`,
		`{"proof":{"1":"0","01":"1"}}`,
		`{"proof":{"1":5}}`,
		`{"proof":{"1":null}}`,
		`{"proof":[1]}`,
		`{"proofs":{"1":"0"}}`,
		`{"proof":{"1":"0"},"bogus":1}`,
	} {
		f.Add([]byte(seed))
	}
	in := core.NewInstance(graph.Cycle(8))
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref refRequest
		var got checkRequest
		refErr, gotErr := decodeBody(body, &ref), decodeBody(body, &got)
		if (refErr != nil) != (gotErr != nil) {
			t.Fatalf("reference decode err %v, decoder err %v", refErr, gotErr)
		}
		if refErr != nil {
			return
		}
		if (ref.Proof == nil) != (got.Proof == nil) {
			t.Fatalf("proof present: reference %v, decoder %v", ref.Proof != nil, got.Proof != nil)
		}
		if ref.Proof != nil {
			sameProof(t, in, ref.Proof, got.Proof)
		}
		if len(ref.Proofs) != len(got.Proofs) || (ref.Proofs == nil) != (got.Proofs == nil) {
			t.Fatalf("reference %d proofs, decoder %d", len(ref.Proofs), len(got.Proofs))
		}
		for i, m := range ref.Proofs {
			sameProof(t, in, m, got.Proofs[i])
		}
	})
}

// TestProofBodyTypeErrors pins the error texts of wrongly typed proof
// values to the ones decoding into map[string]string gives.
func TestProofBodyTypeErrors(t *testing.T) {
	for _, body := range []string{
		`{"proof":{"1":5}}`,
		`{"proof":{"1":true}}`,
		`{"proof":{"1":{}}}`,
		`{"proof":{"1":"0","2":["1"]}}`,
		`{"proof":[1]}`,
		`{"proof":"0101"}`,
		`{"proof":false}`,
		`{"proof":7}`,
		`{"proofs":[{"1":-1}]}`,
		`{"proofs":[[1]]}`,
	} {
		var ref refRequest
		var got checkRequest
		refErr, gotErr := decodeBody([]byte(body), &ref), decodeBody([]byte(body), &got)
		if refErr == nil || gotErr == nil {
			t.Fatalf("%s: reference err %v, decoder err %v", body, refErr, gotErr)
		}
		// The reference names its own struct; the rest must match.
		if want := strings.Replace(refErr.Error(), "refRequest", "checkRequest", 1); gotErr.Error() != want {
			t.Errorf("%s: decoder error %q, want %q", body, gotErr, want)
		}
	}
}

// BenchmarkDecodeProofBody decodes one /check request body carrying a
// leader-election proof of PowerLaw(4096, 4) — serve-warm's instance —
// and checks it against the instance, the work serve does per proof
// before the engine sees it.
func BenchmarkDecodeProofBody(b *testing.B) {
	in := core.NewInstance(graph.PowerLaw(4096, 4, 601))
	in.NodeLabel = map[int]string{in.G.Nodes()[0]: core.LabelLeader}
	p, err := lcp.LeaderElectionScheme().Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	wire := make(map[string]string, len(p))
	for id, s := range p {
		wire[strconv.Itoa(id)] = s.String()
	}
	body, err := json.Marshal(map[string]any{"instance": "i1", "proof": wire})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req checkRequest
		if err := decodeBody(body, &req); err != nil {
			b.Fatal(err)
		}
		if _, err := parseProof(in, req.Proof); err != nil {
			b.Fatal(err)
		}
	}
}
