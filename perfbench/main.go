// Command perfbench is the repository's end-to-end benchmark for push-based
// real-time queries. It builds one deployment per workload from library
// defaults (only partition counts are set), drives it through public entry
// points only — appserver.Server, the cluster's bus topics with
// core.Envelope, and gateway.ServeListener over an in-memory listener — and
// reports notification latency on an open-loop schedule, closed-loop
// capacity, CPU per write, subscribe latency, set-up time and live heap.
// Every run checks its outputs exactly and exits non-zero when they are
// wrong. With -trace 1 it instead reports per-layer metrics from spans it
// records around its own calls into each layer, plus counter deltas read
// from the layers' public Metrics()/Stats().
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload grid-match --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See NOTES.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// unit records each metric's unit; the output uses it verbatim.
var endToEndUnits = map[string]string{
	"notify_p50_ms":    "ms",
	"capacity_wps":     "1/s",
	"cpu_us_per_write": "us",
	"subscribe_p50_ms": "ms",
	"setup_s":          "s",
	"heap_mb":          "MiB",
}

// perLayerUnits lists every per-layer metric. Each workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayerUnits = map[string]string{
	"gen.late_p50_ms": "ms",
	"gen.late_p99_ms": "ms",

	"core.ingest_ms":            "ms",
	"core.grid_ms":              "ms",
	"core.candidates_per_write": "count",
	"core.match_ratio":          "ratio",

	"topology.executed_per_write.write-ingest": "count",
	"topology.executed_per_write.match":        "count",
	"topology.executed_per_write.sort":         "count",
	"topology.executed_per_write.query-ingest": "count",
	"topology.queue_max.write-ingest":          "count",
	"topology.queue_max.match":                 "count",
	"topology.queue_max.sort":                  "count",

	"wire.encode_us":               "us",
	"wire.decode_us":               "us",
	"wire.bytes_per_write":         "B",
	"wire.bytes_per_notification":  "B",
	"eventlayer.publish_us":        "us",
	"eventlayer.bus_ms":            "ms",
	"eventlayer.dropped":           "count",
	"storage.insert_us":            "us",
	"storage.find_ms":              "ms",
	"appserver.write_us":           "us",
	"appserver.subscribe_ms":       "ms",
	"appserver.dispatch_ms":        "ms",
	"appserver.events_per_write":   "count",
	"appserver.dedup_dropped":      "count",
	"appserver.event_dropped":      "count",
	"gateway.deliveries_per_write": "count",
	"gateway.fanout_spread_ms":     "ms",
	"gateway.shed":                 "count",
	"runtime.gc_pause_ms":          "ms",
	"runtime.cpu_busy_frac":        "ratio",
	"tail.notify_p99_ms":           "ms",

	"stage.gen_ms":                  "ms",
	"stage.wire.encode_ms":          "ms",
	"stage.eventlayer.publish_ms":   "ms",
	"stage.appserver.write_ms":      "ms",
	"stage.core.ingest_ms":          "ms",
	"stage.core.grid_ms":            "ms",
	"stage.eventlayer.bus_ms":       "ms",
	"stage.wire.decode_ms":          "ms",
	"stage.appserver.deliver_ms":    "ms",
	"stage.gateway.deliver_ms":      "ms",
	"stage.unattributed_ms":         "ms",
	"trace.e2e_mean_ms":             "ms",
	"trace.notify_mean_ms":          "ms",
	"trace.untraced_notify_mean_ms": "ms",
	"trace.overhead_ms":             "ms",
	"trace.spans":                   "count",
}

// stageNames are the child span names, in pipeline order; the roll-up
// reports each as stage.<name>_ms.
var stageNames = []string{
	"gen", "wire.encode", "eventlayer.publish", "appserver.write",
	"core.ingest", "core.grid", "eventlayer.bus", "wire.decode",
	"appserver.deliver", "gateway.deliver",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "span dump path for -trace 1 (default .bench_build/traces/<workload>-<seed>.jsonl)")
	flag.Parse()

	mk, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
	}
	if cfg.traced {
		cfg.traceOut = *traceOut
		if cfg.traceOut == "" {
			cfg.traceOut = fmt.Sprintf(".bench_build/traces/%s-%d.jsonl", *workload, *seed)
		}
	}
	res, err := run(mk, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, msg := range res.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	if res.failed > len(res.failures) {
		fmt.Fprintf(os.Stderr, "perfbench: ... %d failed operations in all\n", res.failed)
	}
	units := endToEndUnits
	if cfg.traced {
		units = perLayerUnits
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := res.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *workload, name)
			os.Exit(1)
		}
		rep.Metrics[name] = metric{Value: v, Unit: units[name]}
		fmt.Printf("%-44s %14.4f %s\n", name, v, units[name])
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}
