#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a verikern checkout. Everything the build writes (binary,
# Go build cache, temp files) and the traced run's span files stay under
# $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache"
go build -C "$here" -o "$out/perfbench" . >&2
exec "$out/perfbench" --out-dir "$out" "$@"
