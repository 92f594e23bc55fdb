#!/usr/bin/env bash
# Byte identity of the working tree against a parent revision: build
# both, produce the standard artifact set on each side, cmp file by
# file. `make identity PARENT=<rev>` runs this; exit 0 = every artifact
# identical, 1 = at least one differs (each is named, and a differing
# text artifact's `diff -u` is printed, up to 200 lines), 2 = usage.
#
#   bash scripts/identity.sh <rev> [scratch-dir]
#
# The parent is exported with `git archive` into the scratch directory
# (default: a mktemp dir, removed on success and kept, with its path
# printed, on a difference), so nothing is written into the checkout or
# into .git. The artifact set:
#
#   sweep.json        rdsweep -scenarios all -costs all -seeds 6 -horizon-ms 700 -json
#   fleet-w1.json     rdsweep -scenarios fleet -workers 1 -seeds 2 -horizon-ms 700 -json:
#                     one sweep worker, so its clusters advance on the idle
#                     cores (sweep.json's GOMAXPROCS workers leave none)
#   <sc>.trace.json, <sc>.manifest.json
#                     rdsim trace + manifest (-build '') of every scenario
#                     (settop fig4 fig5 quiescent avsync), and the settop
#                     manifest's `rdtrace export` (settop.perfetto.json)
#   crash-<p>-w<n>.json, crash-<p>-nodes/, crash-<p>-stitched.json,
#   crash-<p>-w1.perfetto.json
#                     fleet-crash cluster manifest under each placement
#                     at 1 and 2 cluster workers, the per-node manifests,
#                     `rdtrace stitch` of the node files, and the
#                     Perfetto export of the 1-worker manifest
#   rdbench.txt       every rdbench experiment
#   example-<name>.txt
#                     the stdout of every examples/* program
#   digests.txt       the six benchmark workloads' stats_digest and exact
#                     work counts (benchmark -trace 1)
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: scripts/identity.sh <parent-rev> [scratch-dir]" >&2
	exit 2
fi
if [ ! -f go.mod ] || [ ! -d internal/sweep ]; then
	echo "scripts/identity.sh: run from the repository root" >&2
	exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
scratch=${2:-$(mktemp -d)}
mkdir -p "$scratch/parent-src" "$scratch/parent" "$scratch/change"
scratch=$(cd "$scratch" && pwd)
git archive "$parent" | tar -x -C "$scratch/parent-src"

# produce <source root> <output dir>: build the tools from the source
# root and write the artifact set into the output dir.
produce() (
	src=$1 out=$2 bin=$2/bin
	cd "$src"
	mkdir -p "$bin"
	for tool in rdsweep rdsim rdtrace rdbench; do
		go build -o "$bin/$tool" "./cmd/$tool"
	done
	go build -o "$bin/benchmark" ./benchmark

	"$bin/rdsweep" -scenarios all -costs all -seeds 6 -horizon-ms 700 -quiet -json "$out/sweep.json"
	"$bin/rdsweep" -scenarios fleet -workers 1 -seeds 2 -horizon-ms 700 -quiet -json "$out/fleet-w1.json"
	for sc in settop fig4 fig5 quiescent avsync; do
		"$bin/rdsim" -scenario "$sc" -seed 7 -horizon 100ms -build '' \
			-json "$out/$sc.trace.json" -manifest "$out/$sc.manifest.json" >/dev/null
	done
	"$bin/rdtrace" export -validate -o "$out/settop.perfetto.json" "$out/settop.manifest.json"
	for p in first-fit least-loaded rr-hash; do
		for w in 1 2; do
			"$bin/rdsweep" -scenarios fleet-crash -policies "$p" -horizon-ms 500 -cluster-workers "$w" \
				-cluster-manifest "$out/crash-$p-w$w.json" -node-manifests "$out/crash-$p-nodes" >/dev/null
		done
		"$bin/rdtrace" stitch -o "$out/crash-$p-stitched.json" "$out/crash-$p-nodes"/*.manifest.json
		cmp "$out/crash-$p-w1.json" "$out/crash-$p-w2.json"
		cmp "$out/crash-$p-w1.json" "$out/crash-$p-stitched.json"
		"$bin/rdtrace" export -validate -o "$out/crash-$p-w1.perfetto.json" "$out/crash-$p-w1.json"
	done
	"$bin/rdbench" >"$out/rdbench.txt"
	for ex in examples/*/; do
		go run "./$ex" >"$out/example-$(basename "$ex").txt"
	done
	# The benchmark writes its profile under benchmark/out relative to
	# where it runs; the output dir keeps that out of both trees.
	(cd "$out" && for wl in paper-short paper-long fault-baseline fleet-deny fleet-wide cluster-manifest; do
		"$bin/benchmark" -workload "$wl" -seconds 1 -trace 1
	done) | grep -E 'stats_digest| count$' | grep -v allocs >"$out/digests.txt"
	rm -rf "$bin" "$out/benchmark"
)

echo "identity: parent $parent"
produce "$scratch/parent-src" "$scratch/parent"
echo "identity: working tree"
produce "$PWD" "$scratch/change"

if diff -rq "$scratch/parent" "$scratch/change"; then
	echo "identity: every artifact is byte-identical to $parent"
	[ $# -eq 2 ] || rm -rf "$scratch"
	exit 0
fi
for f in rdbench.txt digests.txt $(cd "$scratch/parent" && echo example-*.txt); do
	if ! cmp -s "$scratch/parent/$f" "$scratch/change/$f"; then
		echo "identity: $f differs:"
		{ diff -u "$scratch/parent/$f" "$scratch/change/$f" || true; } | head -n 200
	fi
done
echo "identity: artifacts differ; both sets are under $scratch" >&2
exit 1
