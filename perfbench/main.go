// Command perfbench is the repository's end-to-end benchmark. One run
// measures one named workload, generated from -seed, in this process:
//
//	perfbench --workload serve-warm --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// instead times calls into each layer's public functions on the same
// instance, keeping spans in memory and writing them to
// .bench_build/traces at exit. Every verdict is compared with a
// core.Check reference computed before timing. The last line of
// standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; a human-readable report goes to standard error.
// The run exits non-zero on any failed operation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// units names the unit of every metric the benchmark prints: the
// end-to-end metrics of an untraced run, then the per-layer metrics of
// a traced one.
var units = map[string]string{
	"setup_s":       "s",
	"check_p50_ms":  "ms",
	"saturated_rps": "1/s",
	"peak_rss_mb":   "MB",

	"graph.generate_s":               "s",
	"graph.ball_ns_per_node":         "ns/node",
	"textio.write_s":                 "s",
	"textio.parse_s":                 "s",
	"schemes.prove_s":                "s",
	"schemes.verify_ns_per_node":     "ns/node",
	"core.view_ns_per_node":          "ns/node",
	"core.view_allocs_per_node":      "allocs/node",
	"bitstr.read_ns_per_bit":         "ns/bit",
	"bitstr.view_bits_per_proof_bit": "bit/bit",
	"partition.assign_ms":            "ms",
	"partition.cut_share":            "ratio",
	"transport.codec_ns_per_byte":    "ns/B",
	"engine.check_p50_ms":            "ms",
	"engine.batch_p50_ms":            "ms",
	"engine.views_ms":                "ms",
	"engine.verify_ms":               "ms",
	"engine.batch_ms":                "ms",
	"engine.cache_hit_share":         "ratio",
	"engine.columns_batches":         "proofs/batch",
	"serve.check_overhead_ms":        "ms",
	"serve.batch_overhead_ms":        "ms",
	"serve.server_p50_ms":            "ms",
	"serve.request_bytes":            "B",
	"dist.wire_ms":                   "ms",
	"dist.seed_ms":                   "ms",
	"dist.flood_ms":                  "ms",
	"dist.run_ms":                    "ms",
	"dist.rounds_per_check":          "rounds",
	"dist.cross_shard_share":         "ratio",
	"dist.alloc_bytes_per_check":     "B",
	"dist.inproc_check_p50_ms":       "ms",
	"remote.register_ms":             "ms",
	"remote.check_p50_ms":            "ms",
	"transport.bytes_per_check":      "B",
	"transport.frames_per_check":     "count",
	"transport.rounds_per_check":     "rounds",
	"trace.overhead_ms":              "ms",
	"trace.spans":                    "count",
}

func init() {
	for _, l := range layers {
		units["self."+l+"_ms"] = "ms"
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-warm or flood-regular")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1: measure per-layer metrics with spans instead of end-to-end metrics")
	smoke := flag.Bool("smoke", false, "toy-sized instances, for the benchmark's own tests")
	flag.Parse()
	if err := run(os.Stdout, os.Stderr, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout, stderr io.Writer, name string, seed int64, seconds time.Duration, traced, smoke bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx := context.Background()
	e := newEnv(w, seed, seconds, smoke)
	var values map[string]float64
	if traced {
		values, err = runTraced(ctx, e, fmt.Sprintf("%s-seed%d", name, seed))
	} else {
		values, err = w.run(ctx, e)
		if err == nil {
			values["peak_rss_mb"], err = peakRSSMB()
		}
	}
	for _, line := range e.report {
		fmt.Fprintf(stderr, "%s: %s\n", name, line)
	}
	if err != nil {
		return err
	}
	out := summary{Correct: e.tal.failed == 0, Attempted: e.tal.attempted, Failed: e.tal.failed, Metrics: make(map[string]metric)}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		unit, ok := units[k]
		if !ok {
			return fmt.Errorf("metric %q has no unit", k)
		}
		out.Metrics[k] = metric{Value: values[k], Unit: unit}
		fmt.Fprintf(stderr, "%s: %-32s %14.6f %s\n", name, k, values[k], unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if !out.Correct {
		return fmt.Errorf("%d of %d operations failed (%d verdict mismatches against core.Check); first: %v",
			e.tal.failed, e.tal.attempted, e.tal.mismatches, e.tal.firstErr)
	}
	return nil
}
