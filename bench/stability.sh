#!/bin/sh
# stability.sh — measure the benchmark's run-to-run spread.
#
#   sh bench/stability.sh [runs] [workload ...]
#
# Runs each workload `runs` times (default 5) through bench/run.sh with
# the arguments BENCHMARK.json's command is given (--workload, --seed,
# --seconds set to run_seconds, --trace 0), alternating the workload
# order from one round to the next, and prints for every end-to-end
# metric its median, quartiles, and the interquartile spread as a share
# of the median (Python's statistics.quantiles, n=4). Round i uses
# --seed i; set SEED to use one seed for every round. Each run's output
# is kept in bench/.bench_build/stability/<workload>.<round>.txt.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
runs=${1:-5}
[ $# -gt 0 ] && shift
workloads=${*:-fleet_default fleet_churn chat_history operator_day}
reversed=
for w in $workloads; do reversed="$w $reversed"; done
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

out="$root/bench/.bench_build/stability"
mkdir -p "$out"
rm -f "$out"/*.txt

i=1
while [ "$i" -le "$runs" ]; do
	order=$workloads
	[ $((i % 2)) -eq 0 ] && order=$reversed
	for w in $order; do
		sh "$root/bench/run.sh" --workload "$w" --seed "${SEED:-$i}" --seconds "$seconds" --trace 0 >"$out/$w.$i.txt" ||
			echo "stability: $w round $i exited non-zero" >&2
	done
	i=$((i + 1))
done

python3 - "$out" "$runs" $workloads <<'EOF'
import json, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
print("%-14s %-16s %14s %14s %14s %8s" % ("workload", "metric", "median", "q1", "q3", "iqr%"))
for w in sys.argv[3:]:
    rows = [json.loads(open("%s/%s.%d.txt" % (out, w, i)).read().splitlines()[-1]) for i in range(1, runs + 1)]
    bad = [r for r in rows if not r["correct"]]
    for name in rows[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print("%-14s %-16s %14.6g %14.6g %14.6g %7.2f%%" % (w, name, med, q1, q3, 100 * (q3 - q1) / med))
    if bad:
        print("%-14s %d of %d runs incorrect" % (w, len(bad), len(rows)))
EOF
