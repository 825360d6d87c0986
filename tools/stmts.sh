#!/usr/bin/env bash
# Exact work counts without a PMU: executed statements per package over one
# traced `wire` run of the stack benchmark (seed 1).
#
#   tools/stmts.sh [package ...]
#
# It builds the stack benchmark with statement coverage into
# .bench_build/work/ (a build of its own: the timed binary is never built
# with -cover), runs `-workload wire -trace 1 -seed 1` with GOCOVERDIR set,
# and reduces the counters to executed statements (statements × count per
# block). It prints one line per package, then one line per file for every
# package named on the command line, e.g. `tools/stmts.sh dytis/client`.
# Runtime work (scheduler, channels, syscalls) is outside dytis/... and is
# not counted.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work="$root/.bench_build/work"
rm -rf "$work"
mkdir -p "$work/cover"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOFLAGS= GOTOOLCHAIN=local
go build -C "$root/benchmark" -cover -covermode=atomic -coverpkg=dytis/... -o "$work/stackbench" .
cd "$root"
GOCOVERDIR="$work/cover" "$work/stackbench" -workload wire -trace 1 -seed 1 -dir "$work" >"$work/run.txt"
if ! grep -q '"correct": *true' "$work/run.txt"; then
	echo "stmts.sh: the traced run did not report correct:true (see $work/run.txt)" >&2
	exit 1
fi
go tool covdata textfmt -i="$work/cover" -o "$work/profile.txt"
awk -v named=" $* " '
	NR == 1 { next } # mode: atomic
	{
		file = substr($1, 1, index($1, ":") - 1)
		pkg = file
		sub(/\/[^\/]*$/, "", pkg)
		n = $2 * $3
		pkgs[pkg] += n
		if (index(named, " " pkg " ")) files[file] += n
	}
	END {
		for (p in pkgs) printf "%-32s %15.0f\n", p, pkgs[p] | "sort"
		close("sort")
		for (f in files) printf "  %-50s %15.0f\n", f, files[f] | "sort"
	}
' "$work/profile.txt"
