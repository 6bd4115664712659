package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// header records where and on what a result file was measured.
type header struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"nproc"`
	LoadAvg1   string `json:"loadavg_1min"`
	Date       string `json:"date"`
}

func newHeader() header {
	h := header{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs: runtime.NumCPU(), LoadAvg1: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg1, _, _ = strings.Cut(string(b), " ")
	}
	return h
}

// results is the file one full set writes and compare reads.
type results struct {
	Header    header                `json:"header"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Workloads map[string]*setOfRuns `json:"workloads"`
}

type setOfRuns struct {
	Untraced []*run `json:"untraced"`
	Traced   *run   `json:"traced"`
}

// fullSet runs every selected workload, each run in a child process of its
// own so that live_heap_mb and the allocator's state never carry over, and
// returns the process exit code.
func fullSet(seed int64, seconds, repeat int, only, outPath string) int {
	res := results{Header: newHeader(), Seed: seed, Seconds: seconds, Workloads: map[string]*setOfRuns{}}
	h := res.Header
	fmt.Printf("# allpairs benchmark: commit %s, %s, GOMAXPROCS %d, nproc %d, load average %s, seed %d, --seconds %d\n",
		h.Commit, h.Go, h.GOMAXPROCS, h.CPUs, h.LoadAvg1, seed, seconds)
	ok := true
	for _, s := range specs {
		if only != "" && !strings.Contains(","+only+",", ","+s.name+",") {
			continue
		}
		set := &setOfRuns{}
		res.Workloads[s.name] = set
		for i := 0; i < max(repeat, 1); i++ {
			r, err := child(s.name, seed, seconds, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s untraced: %v\n", s.name, err)
				return 1
			}
			set.Untraced = append(set.Untraced, r)
			ok = ok && r.Correct
		}
		r, err := child(s.name, seed, seconds, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced: %v\n", s.name, err)
			return 1
		}
		set.Traced = r
		ok = ok && r.Correct
		if u := set.Untraced[0]; u.Digest != r.Digest || u.Events != r.Events {
			fmt.Printf("GATE FAILED: %s: traced process saw digest %.12s… after %d events, untraced %.12s… after %d\n",
				s.name, r.Digest, r.Events, u.Digest, u.Events)
			ok = false
		}
	}
	if outPath == "" {
		outPath = filepath.Join(outDir, "results-"+time.Now().UTC().Format("20060102T150405")+".json")
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing results: %v\n", err)
		return 1
	}
	fmt.Printf("# results written to %s\n", outPath)
	if !ok {
		return 1
	}
	return 0
}

// child runs one workload run in a fresh process, relays its report and
// returns the run record it printed. A failed gate is a record with
// Correct == false, not an error.
func child(workload string, seed int64, seconds, trace int) (*run, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var r *run
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch record, isRecord := strings.CutPrefix(line, "run: "); {
		case isRecord:
			r = new(run)
			if err := json.Unmarshal([]byte(record), r); err != nil {
				r = nil
			}
		case strings.HasPrefix(line, "{"): // the driver's result object
		default:
			fmt.Println(line)
		}
	}
	err = cmd.Wait()
	if r == nil {
		if err == nil {
			err = fmt.Errorf("no run record in the child's output")
		}
		return nil, err
	}
	return r, nil
}
