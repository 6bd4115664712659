#!/bin/sh
# Behaviour-identity check: print `workload seed sim_digest` for the four
# ledger workloads at each seed in SEEDS (default 1). A run is a pure function
# of (workload, seed, seconds), so two commits that print the same lines
# simulated the same events in the same order. Run from the repository root.
set -eu

for seed in ${SEEDS:-1}; do
    for w in steady-quorum steady-fullmesh churn-poisson partition-heal; do
        out=$(go run ./benchmark --workload "$w" --seed "$seed" --seconds 10 --trace 0)
        echo "$w $seed $(echo "$out" | sed -n 's/^# ops_attempted=.* sim_digest=//p')"
    done
done
