#!/usr/bin/env bash
# Builds the shipped daemons (ibp-depot, lbone-server, xnd) and the perfstack
# load generator from this checkout's source, then runs one workload.
# Run from the repository root:
#
#   bash perfstack/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"

# Build before anything is timed. Go's caches and config live in the
# checkout; nothing is fetched.
(
	cd "$root/perfstack"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off \
		go build -o "$out/bin/" repro/cmd/ibp-depot repro/cmd/lbone-server repro/cmd/xnd .
) >&2

exec "$out/bin/perfstack" -bin "$out/bin" -work "$out" "$@"
