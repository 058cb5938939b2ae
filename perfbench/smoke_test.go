package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that the last line of output names exactly the metrics
// BENCHMARK.json lists for that mode, each with its unit, and that
// every verdict matched the core.Check reference.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	t.Chdir(t.TempDir()) // traced runs write their spans under the working directory
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var stdout, stderr bytes.Buffer
			if err := run(&stdout, &stderr, w.Name, 7, time.Second, traced, true); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s traced=%v: last line is not the summary: %v", w.Name, traced, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestSameSeedSameInputs pins that -seed alone determines the inputs.
func TestSameSeedSameInputs(t *testing.T) {
	w, err := workloadByName("flood-regular")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) *inputs {
		e := newEnv(w, seed, time.Second, true)
		inp, err := e.inputs(e.instance(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return inp
	}
	a, b, c := gen(3), gen(3), gen(4)
	for i := range a.proofs {
		if flipKey(a.in.G, a.proofs[0], a.proofs[i]) != flipKey(b.in.G, b.proofs[0], b.proofs[i]) {
			t.Errorf("seed 3 drew tampering %d differently on two runs", i)
		}
	}
	if !slices.Equal(a.in.G.Edges(), b.in.G.Edges()) {
		t.Error("seed 3 generated two different graphs")
	}
	if slices.Equal(a.in.G.Edges(), c.in.G.Edges()) {
		t.Error("seeds 3 and 4 generated the same graph")
	}
}
