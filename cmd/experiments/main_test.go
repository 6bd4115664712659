package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSubcommandsEndToEnd builds the experiments binary and runs five of its
// subcommands at small sizes: each must exit 0 and print its summary lines.
func TestSubcommandsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"failover", "-seed", "1"}, []string{
			"# scenario  recovered_s  bound_s  within  failovers_used",
			"# paper bounds:",
		}},
		{[]string{"deployment", "-n", "36", "-minutes", "5"}, []string{
			"# Figure 8:", "# fleet average", "# Figure 11:",
			"# Figure 12:", "# pairs: 1260;", "# Figure 13:", "# Figure 14:", "# pairs: 35;",
		}},
		{[]string{"churn", "-n", "30", "-scenario", "poisson", "-minutes", "3"}, []string{
			"# churn scenario=poisson n=30", "final_members=", "# availability min=", "# coordinator msgs=",
		}},
		{[]string{"soak", "-n", "20", "-minutes", "10", "-max-heap-mb", "64", "-seed", "1"}, []string{
			"# soak lossy-gossip poisson churn", "# t_min  members  joins  departs  heap_mib", "converged=true",
		}},
		// -n equal to the flag's default still overrides the figure's 359.
		{[]string{"fig1", "-n", "140"}, []string{"(n=140 hosts)"}},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).Output()
			if err != nil {
				t.Fatalf("experiments %s: %v", strings.Join(tc.args, " "), err)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
	}
}

// Example_failover runs the three §4.1 failure scenarios at seed 11 and pins
// the whole report: recovery times, bounds and failover servers used.
func Example_failover() {
	failover(11)
	// Output:
	// # §4.1 failure scenarios: measured recovery vs paper bound
	// # scenario  recovered_s  bound_s  within  failovers_used
	//         1         40.0     70.0    true               1
	//         2         37.0     70.0    true               1
	//         3         51.0    122.5    true               0
	// # paper bounds: ≤p+2r, ≤p+2r, ≤p+3r (p=30s probing detection, r=15s)
}
