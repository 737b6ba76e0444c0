#!/usr/bin/env bash
# Builds jellyfishd, the experiments CLI and the jfbench harness from the
# checkout, then runs the harness with the given arguments. Run from the
# repository root:
#
#	bash jfbench/run.sh --workload hot --seed 1 --seconds 15 --trace 0
#
# Every build output, Go cache and run directory lives under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/jellyfishd" || ! -f "$root/jfbench/go.mod" ]]; then
	echo "jfbench: run from the repository root (needs go.mod, cmd/jellyfishd and jfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
mkdir -p "$out/bin" "$TMPDIR"
go build -o "$out/bin/jellyfishd" ./cmd/jellyfishd
go build -o "$out/bin/experiments" ./cmd/experiments
(cd jfbench && go build -o "$out/bin/jfbench" .)
exec "$out/bin/jfbench" -bin "$out/bin" -work "$out/run" "$@"
