package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"allpairs/internal/stats"
)

// compareMain implements `benchmark compare A.json B.json`: A is the base, B
// the candidate. Every (workload, metric) row that carries a tolerance gets a
// verdict; the exit code is non-zero on any worse row, any rise in
// ops_failed/ops_attempted, or a failed gate in either file.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]results
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := files[0], files[1]
	fmt.Printf("# base      %s: commit %s, %s, seed %d, --seconds %d\n", args[0], a.Header.Commit, a.Header.Go, a.Seed, a.Seconds)
	fmt.Printf("# candidate %s: commit %s, %s, seed %d, --seconds %d\n", args[1], b.Header.Commit, b.Header.Go, b.Seed, b.Seconds)
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Println("# note: seeds or durations differ; virtual-time rows are not expected to repeat")
	}
	bad := 0
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sa, sb := a.Workloads[name], b.Workloads[name]
		if sb == nil {
			fmt.Printf("%-16s missing from the candidate\n", name)
			bad++
			continue
		}
		bad += compareSets(name, sa, sb)
	}
	if bad > 0 {
		fmt.Printf("# %d rows worse or failed\n", bad)
		return 1
	}
	fmt.Println("# no row worse")
	return 0
}

// compareSets prints one workload's rows and returns how many are bad.
func compareSets(name string, a, b *setOfRuns) (bad int) {
	for _, r := range append(append([]*run{a.Traced, b.Traced}, a.Untraced...), b.Untraced...) {
		if r != nil && !r.Correct {
			fmt.Printf("%-16s %-34s gate failed (traced=%v): %v\n", name, "correctness", r.Traced, r.Failures)
			bad++
		}
	}
	if fa, fb := failureShare(a), failureShare(b); fb > fa {
		fmt.Printf("%-16s %-34s %12.6g -> %12.6g  worse\n", name, "ops_failed/ops_attempted", fa, fb)
		bad++
	}
	if len(a.Untraced) > 0 && len(b.Untraced) > 0 {
		same := "identical"
		if a.Untraced[0].Digest != b.Untraced[0].Digest || a.Untraced[0].Events != b.Untraced[0].Events {
			same = "differs"
		}
		fmt.Printf("%-16s %-34s %s\n", name, "sim_digest", same)
	}
	rows := func(defs []metric, ra, rb []*run) {
		for _, d := range defs {
			if d.rel == 0 && d.abs == 0 {
				continue
			}
			xa, xb := values(ra, d.name), values(rb, d.name)
			if len(xa) == 0 || len(xb) == 0 || (median(xa) == 0 && median(xb) == 0) {
				continue // not measured, or a row this workload has nothing for
			}
			v := verdict(d, xa, xb)
			fmt.Printf("%-16s %-34s %12.6g -> %12.6g %-9s %s\n", name, d.name, median(xa), median(xb), d.unit, v)
			if v == "worse" {
				bad++
			}
		}
	}
	rows(endToEnd, a.Untraced, b.Untraced)
	rows(perLayer, []*run{a.Traced}, []*run{b.Traced})
	return bad
}

// values collects one metric over a set of runs.
func values(runs []*run, name string) (vs []float64) {
	for _, r := range runs {
		if r != nil {
			if v, ok := r.Metrics[name]; ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

func failureShare(s *setOfRuns) float64 {
	var failed, attempted uint64
	for _, r := range s.Untraced {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// verdict compares the medians against the metric's tolerance. A row inside
// the tolerance whose own run-to-run spread is wider than the tolerance is
// unresolved, not unchanged.
func verdict(d metric, a, b []float64) string {
	base := median(a)
	tol := math.Max(d.rel*math.Abs(base), d.abs)
	worse := median(b) - base
	if d.higher {
		worse = -worse
	}
	switch {
	case worse > tol:
		return "worse"
	case spread(a) > tol || spread(b) > tol:
		return "unresolved"
	case worse < -tol:
		return "better"
	}
	return "within-bound"
}

// spread is the distance between the quartiles of four or more values, the
// range of fewer, and 0 of one.
func spread(vs []float64) float64 {
	d := stats.NewCDF(vs)
	if len(vs) >= 4 {
		return d.Quantile(0.75) - d.Quantile(0.25)
	}
	return d.Max() - d.Min()
}
