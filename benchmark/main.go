// Command benchmark is the repository's performance ledger: four seeded
// whole-overlay workloads measured end to end (untraced) and layer by layer
// (traced), with a correctness gate inside every run. See README.md.
//
// Usage:
//
//	go run ./benchmark [-seed 1] [-seconds 10] [-repeat 1] [-workloads a,b] [-out file.json]
//	    every workload, each run in its own child process: untraced for the
//	    end-to-end metrics, then traced for the per-layer metrics
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	    one run in this process; the last line of standard output is the
//	    result object the driver of BENCHMARK.json reads
//	go run ./benchmark compare A.json B.json
//	    apply the per-metric bounds to two result files
//	go run ./benchmark manifest
//	    print BENCHMARK.json as generated from the metric and workload tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times an untraced run builds and warms the fleet;
// setup_s is the median, and the last build is the one measured.
const setupRepeats = 2

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// outDir receives the traces and result files; relative to the working
// directory, which is the repository root under `go run ./benchmark`.
const outDir = "benchmark/out"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			os.Stdout.Write(manifest())
			return
		}
	}
	workload := flag.String("workload", "", "run this one workload in-process and print the driver's result line")
	seed := flag.Int64("seed", 1, "workload seed (7 is the held-out seed)")
	seconds := flag.Int("seconds", defaultSeconds, "target wall length of the measured phase; sets its virtual length")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced end-to-end run, 1 = traced per-layer run")
	repeat := flag.Int("repeat", 1, "full set: untraced runs per workload (spread for compare)")
	only := flag.String("workloads", "", "full set: comma-separated subset of workloads")
	out := flag.String("out", "", "full set: result file (default "+outDir+"/results-<time>.json)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(fullSet(*seed, *seconds, *repeat, *only, *out))
	}
	s := specByName(*workload)
	if s == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad -workload %q, -seconds %d or -trace %d\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := runWorkload(s, *seed, *seconds, *trace == 1, outDir)
	r.print(os.Stdout)
	if !r.Correct {
		os.Exit(1)
	}
}

// run is the outcome of one workload run.
type run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	WarmupS  float64 `json:"warmup_virt_s"`
	MeasureS float64 `json:"measure_virt_s"`

	Correct  bool     `json:"correct"`
	Failures []string `json:"failures,omitempty"`
	// Attempted counts route lookups sampled plus stream packets sent; Failed
	// the packets delivered wrongly — to the wrong node, altered, or twice on
	// links that do not duplicate. Lookups and packets that merely went
	// unserved are what availability and data_delivered_share measure.
	Attempted uint64 `json:"ops_attempted"`
	Failed    uint64 `json:"ops_failed"`
	Digest    string `json:"sim_digest"`
	Events    uint64 `json:"events"`

	MeasureWallS float64 `json:"measure_wall_s"`
	WallS        float64 `json:"wall_s"`
	// Metrics holds the end-to-end metrics of an untraced run or the layer
	// rows of a traced one.
	Metrics map[string]float64 `json:"metrics"`

	spec *spec
}

// runWorkload executes one run in this process.
func runWorkload(s *spec, seed int64, seconds int, traced bool, dir string) *run {
	began := time.Now()
	dur := s.measureDuration(seconds)
	r := &run{
		Workload: s.name, Seed: seed, Traced: traced, spec: s,
		WarmupS: s.warmup.Seconds(), MeasureS: dur.Seconds(),
	}
	repeats := setupRepeats
	if traced {
		repeats = 1 // setup_s belongs to the untraced run
	}

	// The untraced pass. A traced run makes it too: it is the reference the
	// tracing overhead and the digest are checked against.
	var w *world
	var setups []float64
	for i := 0; i < repeats; i++ {
		w = nil
		debug.FreeOSMemory() // every build starts from the same cold heap
		t0 := time.Now()
		w = build(s, seed, dur)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.Failures = w.coverage()
	m := newMeasurement(w, dur, nil)
	m.run()
	r.Failures = append(r.Failures, m.gate()...)
	r.Digest, r.Events = m.digest, m.events
	r.Attempted = m.lookups + uint64(len(m.stream.sent))
	r.Failed = m.stream.corrupt
	if s.dup == 0 {
		r.Failed += m.stream.duplicates
	}
	if !traced {
		r.MeasureWallS = m.wall.Seconds()
		r.Metrics = m.endToEnd(median(setups))
	} else {
		reference := m.wall
		w, m = nil, nil
		debug.FreeOSMemory()
		w = build(s, seed, dur)
		tr := &tracer{}
		m = newMeasurement(w, dur, tr)
		m.run()
		if d := m.digest; d != r.Digest || m.events != r.Events {
			r.Failures = append(r.Failures, fmt.Sprintf(
				"traced run diverged: digest %.12s… after %d events, untraced %.12s… after %d", d, m.events, r.Digest, r.Events))
		}
		r.MeasureWallS = m.wall.Seconds()
		r.Metrics = map[string]float64{"trace_overhead": m.wall.Seconds()/reference.Seconds() - 1}
		m.layerRows(r.Metrics)
		tr.rows(r.Metrics)
		directCalls(shapeOf(m), r.Metrics)
		if err := tr.write(dir, fmt.Sprintf("%s-seed%d", s.name, seed), r.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing trace: %v\n", err)
		}
	}
	r.Correct = len(r.Failures) == 0
	r.WallS = time.Since(began).Seconds()
	return r
}

// print writes the run for people, then the line-oriented records the full
// set's parent process reads back, and last the driver's result object.
func (r *run) print(out *os.File) {
	kind, defs := "end-to-end (untraced)", endToEnd
	if r.Traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(out, "# %s seed=%d %s: warm-up %.0f + measured %.0f virtual s, %d events, wall %.1f s\n",
		r.Workload, r.Seed, kind, r.WarmupS, r.MeasureS, r.Events, r.WallS)
	fmt.Fprintf(out, "# ops_attempted=%d ops_failed=%d sim_digest=%s\n", r.Attempted, r.Failed, r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "GATE FAILED: %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		v := r.Metrics[d.name]
		result.Metrics[d.name] = value{v, d.unit}
		if r.Correct { // a failed gate suppresses the metric lines
			fmt.Fprintf(out, "%-36s %14.6g %-9s %s\n", d.name, v, d.unit, paperReference(d.name, r.spec))
		}
	}
	record, _ := json.Marshal(r)
	fmt.Fprintf(out, "run: %s\n", record)
	line, _ := json.Marshal(result)
	fmt.Fprintf(out, "%s\n", line)
}

// manifest renders BENCHMARK.json from the workload and metric tables.
func manifest() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds,
	}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workload{s.name, s.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better(), m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better()})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
