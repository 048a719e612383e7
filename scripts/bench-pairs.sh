#!/bin/sh
# bench-pairs.sh — interleaved base-vs-change runs of one bench workload,
# the choosing-metrics §8 table: builds bench/ at a base revision (in a
# temporary checkout) and at the working tree, runs N seed-7 pairs one at a
# time, alternating which side goes first, and prints for each of the seven
# end-to-end metrics BENCHMARK.json names every run, each side's median and
# quartiles (linear interpolation), and how many pairs the change won. It
# edits nothing under bench/.
#
# usage: scripts/bench-pairs.sh <workload> [pairs=10] [base=HEAD]
#        make bench-pairs W=hit-small N=10 BASE=HEAD~1
set -eu

w=${1:?usage: bench-pairs.sh <workload> [pairs] [base-rev]}
n=${2:-10}
base=${3:-HEAD}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# The base side is a plain export of the revision (bench/go.mod replaces
# difane with ../, so the whole tree comes along); nothing is registered
# in the repository's .git.
mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
go build -C "$tmp/base/bench" -o "$tmp/bench-base" .
go build -C "$root/bench" -o "$tmp/bench-change" .

# The metrics compared, in the column order of $tmp/SIDE.out, each with the
# direction that is better; "failed" follows them as the last of cols
# columns.
metrics="goodput_pps:higher cpu_us_per_pkt:lower heap_mb:lower setup_s:lower
first_pkt_p50_us:lower hit_pkt_p50_us:lower tcam_entries_max:lower"
cols=$(($(printf '%s\n' $metrics | wc -l) + 1))

# run SIDE DIR: one seed-7 run; appends one line of $metrics then failed to
# $tmp/SIDE.out.
run() {
	line=$(cd "$2" && "$tmp/bench-$1" -workload "$w" -seed 7 2>/dev/null | tail -n 1) || true
	get() { printf '%s\n' "$line" | sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"; }
	failed=$(printf '%s\n' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	vals=""
	for m in $metrics; do
		v=$(get "${m%%:*}")
		vals="$vals${v:-nan} "
	done
	echo "$vals${failed:-?}" >>"$tmp/$1.out"
}

echo "workload $w, $n seed-7 pairs, base $(git -C "$root" rev-parse --short "$base") vs working tree"
i=0
while [ "$i" -lt "$n" ]; do
	if [ $((i % 2)) -eq 0 ]; then
		run base "$tmp/base/bench"
		run change "$root/bench"
	else
		run change "$root/bench"
		run base "$tmp/base/bench"
	fi
	i=$((i + 1))
done

# stats COL FILE: "q1 median q3" of column COL.
stats() {
	cut -d' ' -f"$1" "$2" | sort -g | awk '
		{ a[NR] = $1 }
		function q(p,  h, i) { h = (NR - 1) * p; i = int(h); return a[i+1] + (h - i) * (a[i+2] - a[i+1]) }
		END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

# Every run: one row per pair, base then change for each metric in turn.
paste -d' ' "$tmp/base.out" "$tmp/change.out" | awk -v cols="$cols" -v names="$metrics" '
	BEGIN {
		n = split(names, name, /[ \n]+/)
		printf "pair first "
		for (m = 1; m <= n; m++) {
			sub(/:.*/, "", name[m])
			printf " base/change:%s", name[m]
		}
		print "  failed(base,change)"
	}
	{
		printf "%-4d %-6s", NR, (NR % 2 ? "base" : "change")
		for (m = 1; m < cols; m++)
			printf " %.6g/%.6g", $m, $(m + cols)
		printf "  %s,%s\n", $cols, $(2 * cols)
	}'

col=0
for m in $metrics; do
	col=$((col + 1))
	set -- "$col" "${m%%:*}" "${m##*:}"
	b=$(stats "$1" "$tmp/base.out")
	c=$(stats "$1" "$tmp/change.out")
	wins=$(paste -d' ' "$tmp/base.out" "$tmp/change.out" | awk -v col="$1" -v cols="$cols" -v dir="$3" '
		{ b = $col; c = $(col + cols); if ((dir == "higher" && c > b) || (dir == "lower" && c < b)) k++ }
		END { print k + 0 }')
	echo "$b $c" | awk -v name="$2" -v dir="$3" -v wins="$wins" -v n="$n" '{
		printf "%s (%s is better)\n", name, dir
		printf "  base    q1 %.6g  median %.6g  q3 %.6g\n", $1, $2, $3
		printf "  change  q1 %.6g  median %.6g  q3 %.6g\n", $4, $5, $6
		d = $5 - $2; if (d < 0) d = -d
		printf "  change wins %d of %d; median ratio %.4g; |median difference| %.6g vs base interquartile distance %.6g\n",
			wins, n, ($2 ? $5 / $2 : 0), d, $3 - $1
	}'
done
