#!/usr/bin/env bash
# Builds the benchmark and qilabeld from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash qibench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, daemon logs and span files all stay
# under .bench_build in the checkout (CARGO_TARGET_DIR names it when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# Keep the Go tool's cache, module path, configuration and temporary files
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(
	cd "$root/qibench"
	go build -o "$out/bin/qibench" .
	go build -o "$out/bin/qilabeld" qilabel/cmd/qilabeld
) >&2
exec "$out/bin/qibench" -daemon "$out/bin/qilabeld" -out "$out" "$@"
