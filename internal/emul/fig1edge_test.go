package emul

import (
	"testing"

	"allpairs/internal/traces"
)

func TestFig1TwoHostsNoPanic(t *testing.T) {
	env := traces.Generate(2, 1, traces.Config{})
	env.LatencyMS[0][1], env.LatencyMS[1][0] = 900, 900
	r := Fig1(env, 400)
	if r.HighPairs != 0 || len(r.Best.Values()) != 0 {
		t.Errorf("n=2 should yield no comparable pairs, got high=%d best=%d", r.HighPairs, len(r.Best.Values()))
	}
}
