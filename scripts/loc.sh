#!/usr/bin/env bash
# Go line counts per package: non-test (.go outside _test.go) and test
# (_test.go), then the two totals, the rdlint subtotal ROADMAP item 5a
# tracks, and the largest non-test file. `make loc` runs this. Counts
# are `wc -l` over tracked and untracked-but-not-ignored files;
# testdata/ fixtures are not counted.
#
#   bash scripts/loc.sh [dir]      (default: the repository root)
set -euo pipefail

cd "${1:-.}"
if [ ! -f go.mod ]; then
	echo "scripts/loc.sh: run from the repository root" >&2
	exit 2
fi

{ git ls-files -co --exclude-standard -- '*.go' 2>/dev/null || find . -name '*.go' | sed 's|^\./||'; } |
	grep -v '/testdata/' | while read -r f; do
	[ -f "$f" ] || continue
	kind=code
	case $f in *_test.go) kind=test ;; esac
	echo "$(dirname "$f") $kind $(wc -l <"$f") $f"
done | awk '
	{ if ($2 == "code") code[$1] += $3; else test[$1] += $3; seen[$1] = 1 }
	$2 == "code" && $3 > big { big = $3; bigf = $4 }
	END { for (p in seen) print p, code[p] + 0, test[p] + 0; print "~", big, bigf }' | sort | awk '
	BEGIN { printf "%-44s %8s %8s\n", "package", "non-test", "test" }
	$1 == "~" { big = $2; bigf = $3; next }
	{
		printf "%-44s %8d %8d\n", $1, $2, $3
		tc += $2; tt += $3
		if ($1 ~ /^internal\/analysis/ || $1 == "cmd/rdlint") { lc += $2; lt += $3 }
	}
	END {
		printf "%-44s %8d %8d\n", "total (" NR - 1 " packages)", tc, tt
		printf "%-44s %8d %8d\n", "rdlint (internal/analysis/... + cmd/rdlint)", lc, lt
		printf "%-44s %8d\n", "largest non-test file: " bigf, big
	}'
