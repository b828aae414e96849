#!/usr/bin/env bash
# run.sh builds the benchmark binary, vpsim and vpserve from the source
# tree it is run in, then runs the benchmark with the given arguments:
#
#   bash vpbench/run.sh --workload ideal-flat --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, Go build cache and
# temporary file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/vpbench/go.mod" ] || [ ! -d "$root/cmd/vpserve" ]; then
    echo "vpbench: run from the root of a valuepred source tree" >&2
    exit 2
fi

out="$root/.bench_build/vpbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/vpsim" ./cmd/vpsim
go build -o "$out/bin/vpserve" ./cmd/vpserve
(cd "$root/vpbench" && go build -o "$out/bin/vpbench" .)
exec "$out/bin/vpbench" -root "$root" -bin "$out/bin" "$@"
