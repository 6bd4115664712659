#!/bin/sh
# Smoke-run every fuzz target — the wire codecs' round trips, snapshot
# reassembly over parser-accepted chunks, the one-hop kernels against their
# scalar twins, the simulator's event queue against its reference model, a
# quorum router's recommendation decode against one from the grid, and the
# prober's announced latency against the band around its EWMA — for FUZZTIME
# (default 30s) each.
# `go test -fuzz` accepts only one target per invocation, so the targets are
# enumerated with -list and looped. Any crasher fails the run and leaves its
# reproducer under the package's testdata/fuzz/ for `go test` to replay.
set -eu

FUZZTIME="${FUZZTIME:-30s}"

for pkg in ./internal/wire ./internal/membership ./internal/lsdb ./internal/simnet ./internal/core ./internal/probe; do
    targets=$(go test "$pkg" -list '^Fuzz' | grep '^Fuzz' || true)
    if [ -z "$targets" ]; then
        echo "fuzz.sh: no fuzz targets found in $pkg" >&2
        exit 1
    fi
    for t in $targets; do
        echo "==> $pkg $t ($FUZZTIME)"
        go test "$pkg" -run '^$' -fuzz "^${t}\$" -fuzztime "$FUZZTIME"
    done
done
