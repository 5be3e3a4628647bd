#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags (see e2ebench/README.md). Run from the repository root. The build
# cache, the build's temporary files, the binary and span files stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -spans-dir "$out" "$@"
