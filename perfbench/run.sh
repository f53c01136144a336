#!/usr/bin/env bash
# Builds the tracenet benchmark from the source tree it sits in and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload survey --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files, cross-run digests) lands in .bench_build/ under the current
# directory; the daemon workload's spool is a private tmpfs mounted there.
# The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's caches and config inside the checkout, and never let
# it reach for a module proxy or a newer toolchain.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# The daemon workload's spool goes on a tmpfs mounted over .bench_build/spool
# in a private mount namespace: the spool stays inside the checkout, vanishes
# with the process, and its writes cost memory copies instead of ext4
# journal commits, whose latency moves with whatever else the disk is doing.
workload=
prev=
for a in "$@"; do
	case $prev in --workload | -workload) workload=$a ;; esac
	case $a in --workload=* | -workload=*) workload=${a#*=} ;; esac
	prev=$a
done
if [ "$workload" = daemon ]; then
	spool="$out/spool"
	mkdir -p "$spool"
	userns=()
	if [ "$(id -u)" != 0 ]; then
		userns=(--user --map-root-user)
	fi
	exec unshare "${userns[@]}" --mount --propagation private -- \
		sh -c 'mount -t tmpfs -o size=1g,mode=0700 perfbench-spool "$1" && shift && exec "$@"' \
		sh "$spool" "$out/perfbench" -out "$out" -spool "$spool" "$@"
fi
exec "$out/perfbench" -out "$out" "$@"
