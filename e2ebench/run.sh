#!/usr/bin/env bash
# Builds mdbgpd and the benchmark from this checkout's sources, then runs the
# benchmark against that daemon. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload gd-cold --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build caches and span files stay under .bench_build.
set -euo pipefail
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(
	cd "$bench_dir"
	go build -buildvcs=false -o "$out/bin/mdbgpd" mdbgp/cmd/mdbgpd
	go build -buildvcs=false -o "$out/bin/e2ebench" .
)
exec "$out/bin/e2ebench" -daemon "$out/bin/mdbgpd" -out "$out" "$@"
