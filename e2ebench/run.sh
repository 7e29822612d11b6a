#!/usr/bin/env bash
# Builds tiresias-serve and the load generator from the checkout this
# script sits in, then runs one benchmark workload. Run it from the
# root of the checkout:
#
#   bash e2ebench/run.sh --workload dense-ingest --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (binaries, the Go build cache, traces).
set -euo pipefail

root=$(pwd)

# Refuse a directory without the source tree before anything runs or
# is written there.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tiresias-serve" ]; then
	echo "e2ebench: $root holds no tiresias source tree; run from the root of a checkout" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/bin"

# Keep the Go toolchain's caches and settings inside the checkout and
# off the network: the module has no external dependencies.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

# With telemetry on, the go command starts a detached upload process
# that outlives it. Switch telemetry off in the checkout-local config
# by writing its mode file, before the first go command runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off %s' "$(date -u +%F)" >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/tiresias-serve" ./cmd/tiresias-serve
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)

exec "$out/bin/e2ebench" -server "$out/bin/tiresias-serve" -out "$out" "$@"
