#!/bin/sh
# bench-pairs.sh PARENT — alternating parent/change pairs of the repository
# benchmark (BENCHMARK.json).
#
# Builds PARENT (any git revision) and the working tree, each from a git
# archive in a temporary directory, then runs PAIRS pairs (default 10) of
# the unmodified benchmark command
#
#   go -C bench run . --workload <w> --seed <SEED> --seconds 28 --trace 0
#
# at SEED (default 1) for each workload of WORKLOADS (default: the four of
# BENCHMARK.json), odd pairs parent first and even pairs change first.
# Each run prints one JSON
# line, {"pair","side","workload","seed","correct","attempted","failed",
# "metrics":{name: value}}, the shape of a BENCH_pr*.json "runs" entry; the
# benchmark's own output goes to standard error. TMPDIR places the archives.
set -eu

parent=${1:?usage: bench-pairs.sh PARENT}
pairs=${PAIRS:-10}
workloads=${WORKLOADS:-chain3-video-be chain3-small-reliable emu-mixed-loss emu-churn-64}
seed=${SEED:-1}

root=$(git rev-parse --show-toplevel)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
trap 'exit 130' INT TERM

# The working tree as a tree object: tracked and untracked files, less
# what .gitignore lists, through a throwaway index.
GIT_INDEX_FILE=$dir/index git -C "$root" add -A
change=$(GIT_INDEX_FILE=$dir/index git -C "$root" write-tree)
echo "bench-pairs: parent $(git -C "$root" rev-parse "$parent"), change tree $change" >&2

for side in parent change; do
	rev=$parent
	[ "$side" = change ] && rev=$change
	mkdir "$dir/$side"
	git -C "$root" archive "$rev" | tar -x -C "$dir/$side"
	go -C "$dir/$side/bench" build -o /dev/null .
done

run() { # side pair workload
	out=$(go -C "$dir/$1/bench" run . --workload "$3" --seed $seed --seconds 28 --trace 0) || true
	printf '%s\n' "$out" >&2
	last=$(printf '%s\n' "$out" | tail -n 1)
	case $last in
	'{"correct":'*) ;;
	*) echo "bench-pairs: $1 $3 (pair $2) printed no result" >&2; exit 1 ;;
	esac
	printf '{"pair":%d,"side":"%s","workload":"%s","seed":%d,%s\n' "$2" "$1" "$3" $seed "${last#\{}" |
		sed 's/{"value":\([^,]*\),"unit":"[^"]*"}/\1/g'
}

i=1
while [ "$i" -le "$pairs" ]; do
	for w in $workloads; do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$i" "$w"
			run change "$i" "$w"
		else
			run change "$i" "$w"
			run parent "$i" "$w"
		fi
	done
	i=$((i + 1))
done
