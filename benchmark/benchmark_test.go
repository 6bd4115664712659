package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// toy shrinks a workload to 36 nodes and its shortest measured phase, so the
// whole harness — both passes, the gate, the tracer, the direct calls — runs
// in well under a second per workload.
func toy(s *spec) *spec {
	t := *s
	t.n, t.warmup = 36, 2*time.Minute
	return &t
}

// hostTime names the end-to-end metrics that depend on the machine.
var hostTime = map[string]bool{"setup_s": true, "sim_rate": true, "live_heap_mb": true}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from the metric and workload tables; regenerate it with `go run ./benchmark manifest > BENCHMARK.json`")
	}
}

func TestEveryMessageTypeIsClassified(t *testing.T) {
	for mt := wire.MsgType(1); mt.Valid(); mt++ {
		if planeOf[mt] == planeNone {
			t.Errorf("message type %v has no plane in planeOf: its steps would fall into \"other\"", mt)
		}
	}
}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s, dir := toy(s), t.TempDir()
			traced := runWorkload(s, 1, 1, true, dir)
			first := runWorkload(s, 1, 1, false, dir)
			again := runWorkload(s, 1, 1, false, dir)
			other := runWorkload(s, 2, 1, false, dir)
			for _, r := range []*run{traced, first, again, other} {
				if !r.Correct {
					t.Fatalf("seed %d traced=%v: gate failed: %v", r.Seed, r.Traced, r.Failures)
				}
			}
			// Every name BENCHMARK.json lists is emitted, and nothing else.
			for _, c := range []struct {
				r    *run
				defs []metric
			}{{first, endToEnd}, {traced, perLayer}} {
				for _, d := range c.defs {
					if _, ok := c.r.Metrics[d.name]; !ok {
						t.Errorf("traced=%v run does not emit %s", c.r.Traced, d.name)
					}
				}
				if len(c.r.Metrics) != len(c.defs) {
					t.Errorf("traced=%v run emits %d metrics, the tables list %d", c.r.Traced, len(c.r.Metrics), len(c.defs))
				}
			}
			// Same seed: the same simulation, whichever pass or process.
			if traced.Digest != first.Digest || again.Digest != first.Digest || again.Events != first.Events {
				t.Errorf("same seed, different digests: traced %.12s first %.12s again %.12s", traced.Digest, first.Digest, again.Digest)
			}
			for _, d := range endToEnd {
				if !hostTime[d.name] && first.Metrics[d.name] != again.Metrics[d.name] {
					t.Errorf("%s is a virtual-time metric but read %v then %v on the same seed", d.name, first.Metrics[d.name], again.Metrics[d.name])
				}
				if first.Metrics[d.name] == 0 {
					t.Errorf("%s reads 0", d.name)
				}
			}
			if other.Digest == first.Digest {
				t.Errorf("seeds 1 and 2 give the same digest %.12s", first.Digest)
			}
			// The predictions the per-layer table makes about this workload.
			member := traced.Metrics["membership.client.events"] + traced.Metrics["membership.coord.events"]
			if s.dynamic == (member == 0) {
				t.Errorf("dynamic=%v but %v membership steps", s.dynamic, member)
			}
			if quorum := s.alg.String() == "quorum"; quorum == (traced.Metrics["core.recommend.events"] == 0) {
				t.Errorf("router %v but %v recommendation steps", s.alg, traced.Metrics["core.recommend.events"])
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	rate := metric{name: "sim_rate", higher: true, rel: 0.10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100}, []float64{95}, "within-bound"},
		{[]float64{100}, []float64{85}, "worse"},
		{[]float64{100}, []float64{115}, "better"},
		{[]float64{90, 100, 112}, []float64{95, 101, 99}, "unresolved"},
	} {
		if got := verdict(rate, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
