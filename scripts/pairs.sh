#!/bin/sh
# Paired benchmark runs of a base commit against this working tree:
#
#   scripts/pairs.sh BASE_REF WORKLOAD [N=10]      (make pairs BASE=... WORKLOAD=... [N=...])
#
# BASE_REF is exported (git archive) into a temporary directory, so neither
# the repository nor its worktree list is touched. Pair i runs
#   bash benchmark/run.sh -workload WORKLOAD -seed i -trace 0
# on both sides, alternating which side goes first, and the summary prints,
# per end-to-end metric of BENCHMARK.json, each side's median and quartiles,
# the change of the medians, and in how many pairs the working tree was
# better (ties count for neither), plus each side's failed operations. Every
# run's JSON line is kept in the log named at the end. This script calls the
# benchmark; it is not part of it.
set -eu
if [ $# -lt 2 ]; then
	echo "usage: $0 BASE_REF WORKLOAD [N=10]" >&2
	exit 2
fi
base_ref=$1 workload=$2 n=${3:-10}
cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
log=$tmp/runs.log
trap 'rm -rf "$tmp/base"' EXIT
mkdir "$tmp/base"
git archive "$base_ref" | tar -x -C "$tmp/base"

# one SIDE DIR SEED: a measured run; its JSON line goes to the log, tagged.
one() {
	line=$(bash "$2/benchmark/run.sh" -workload "$workload" -seed "$3" -trace 0 2>"$tmp/stderr" | tail -n 1)
	case $line in
	'{'*) echo "$1 $3 $line" >>"$log" ;;
	*)
		echo "pairs: $1 run (seed $3) printed no result:" >&2
		cat "$tmp/stderr" >&2
		exit 1
		;;
	esac
}

i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		one base "$tmp/base" "$i"
		one change "$root" "$i"
	else
		one change "$root" "$i"
		one base "$tmp/base" "$i"
	fi
	echo "pair $i/$n done" >&2
	i=$((i + 1))
done

# The metric names and which direction is better come from BENCHMARK.json.
metrics=$(awk '
	/"end_to_end"/ { on = 1 }
	/"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name ":" $2 }
' BENCHMARK.json)

echo "$workload: $n pairs, base $base_ref ($(git rev-parse --short "$base_ref")) against the working tree"
printf '%-18s %-32s %-32s %8s %6s\n' metric "base median [q1, q3]" "change median [q1, q3]" change wins
for m in $metrics; do
	awk -v metric="${m%%:*}" -v better="${m##*:}" '
		function value(line,    s) {
			s = line
			sub(".*\"" metric "\":\\{\"value\":", "", s)
			sub(/[,}].*/, "", s)
			return s + 0
		}
		# quantile p of v[1..k] (sorted), linear interpolation
		function q(v, k, p,    h, lo) {
			h = (k - 1) * p + 1
			lo = int(h)
			if (lo >= k) return v[k]
			return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
		}
		function sort(v, k,    a, b, t) {
			for (a = 2; a <= k; a++)
				for (b = a; b > 1 && v[b - 1] > v[b]; b--) { t = v[b]; v[b] = v[b - 1]; v[b - 1] = t }
		}
		$1 == "base" { base[$2] = value($0) }
		$1 == "change" { change[$2] = value($0) }
		END {
			for (s in base) {
				if (!(s in change)) continue
				k++
				b[k] = base[s]; c[k] = change[s]
				if (base[s] != change[s] && ((change[s] < base[s]) == (better == "lower"))) wins++
			}
			sort(b, k); sort(c, k)
			mb = q(b, k, 0.5); mc = q(c, k, 0.5)
			printf "%-18s %-32s %-32s %+7.1f%% %3d/%d\n", metric,
				sprintf("%.4g [%.4g, %.4g]", mb, q(b, k, 0.25), q(b, k, 0.75)),
				sprintf("%.4g [%.4g, %.4g]", mc, q(c, k, 0.25), q(c, k, 0.75)),
				(mb ? 100 * (mc - mb) / mb : 0), wins, k
		}
	' "$log"
done
awk '
	{ s = $0; sub(/.*"failed":/, "", s); sub(/[,}].*/, "", s); failed[$1] += s }
	END { printf "failed operations: base %d, change %d\n", failed["base"], failed["change"] }
' "$log"
echo "every run: $log"
