#!/bin/sh
# bench_gate.sh — the benchmark regression gate. Compares the fresh
# `make bench` snapshot (BENCH_cloudsim.json in the working tree)
# against the committed budgets (`git show HEAD:BENCH_cloudsim.json`)
# and fails when any hot-path benchmark regresses more than the margin
# on ns/op, bytes/op, or allocs/op, or when the fleet control tower or
# fleet tracing costs more than the margin over the bare fleet. All
# three gates always run and every FAIL row is printed; the script
# exits non-zero at the end if any gate failed. CI runs this right
# after `make bench`, so a PR that slows the telemetry plane fails to
# merge.
#
# Usage:
#   bench_gate.sh                  gate the working-tree snapshot
#   bench_gate.sh -update-budgets  re-run the benchmarks and adopt the
#                                  results as the new budgets (commit
#                                  BENCH_cloudsim.json to make it stick)
#   bench_gate.sh -self-test       seed a synthetic 10x regression and
#                                  require the gate to catch it
#
# Intentional performance changes go through the escape hatch: run
# `sh scripts/bench_gate.sh -update-budgets`, review the diff, and
# commit BENCH_cloudsim.json alongside the change that moved it.
#
# BENCH_GATE_MARGIN overrides the regression margin percentage
# (default 15). Small absolute slacks (50 ns, 64 B, 1 alloc) keep the
# percentage from tripping on tiny denominators.
set -eu
cd "$(dirname "$0")/.."

SNAPSHOT=BENCH_cloudsim.json
MARGIN=${BENCH_GATE_MARGIN:-15}

# extract renders one "name ns bytes allocs" line per benchmark entry.
extract() {
	sed -n 's/.*"name": "\([^"]*\)", "iterations": [0-9]*, "ns_per_op": \([0-9.e+]*\), "bytes_per_op": \([0-9]*\), "allocs_per_op": \([0-9]*\).*/\1 \2 \3 \4/p' "$1"
}

# compare <budget-file> <current-file>: every budgeted benchmark must
# exist in the current snapshot and stay within margin on all three
# axes.
compare() {
	{
		extract "$1" | sed 's/^/B /'
		extract "$2" | sed 's/^/C /'
	} | awk -v margin="$MARGIN" '
	function check(name, key, b, c, grace,    lim) {
		lim = b * (1 + margin / 100)
		if (b + grace > lim) lim = b + grace
		if (c > lim) {
			printf "bench_gate: FAIL %-40s %-13s %10g  budget %g (margin %g%%)\n", name, key, c, b, margin
			return 1
		}
		printf "bench_gate: ok   %-40s %-13s %10g  budget %g\n", name, key, c, b
		return 0
	}
	$1 == "B" { bns[$2] = $3; bby[$2] = $4; bal[$2] = $5; next }
	$1 == "C" { cns[$2] = $3; cby[$2] = $4; cal[$2] = $5 }
	END {
		bad = 0
		for (n in bns) {
			if (!(n in cns)) {
				printf "bench_gate: FAIL %s missing from the current snapshot\n", n
				bad++
				continue
			}
			bad += check(n, "ns_per_op", bns[n], cns[n], 50)
			bad += check(n, "bytes_per_op", bby[n], cby[n], 64)
			bad += check(n, "allocs_per_op", bal[n], cal[n], 1)
		}
		if (bad > 0) {
			printf "bench_gate: %d regression(s) over budget; if intentional, run `sh scripts/bench_gate.sh -update-budgets` and commit %s\n", bad, "'"$SNAPSHOT"'"
			exit 1
		}
	}'
}

case "${1:-}" in
-update-budgets)
	# Escape hatch for intentional changes: re-measure and adopt.
	sh scripts/bench.sh
	echo "bench_gate: budgets refreshed; commit $SNAPSHOT to adopt them"
	exit 0
	;;
-self-test)
	# Prove the gate has teeth: seed a 10x ns/op regression into a copy
	# of the budgets and require the comparison to fail.
	BUDGET=$(mktemp) SEEDED=$(mktemp)
	trap 'rm -f "$BUDGET" "$SEEDED"' EXIT
	git show HEAD:$SNAPSHOT >"$BUDGET"
	awk '/"ns_per_op"/ && !done { sub(/"ns_per_op": /, "\"ns_per_op\": 9"); done = 1 } { print }' \
		"$BUDGET" >"$SEEDED"
	if compare "$BUDGET" "$SEEDED" >/dev/null 2>&1; then
		echo "bench_gate: self-test FAILED — a seeded 10x regression passed the gate" >&2
		exit 1
	fi
	echo "bench_gate: self-test ok — seeded regression caught"
	exit 0
	;;
"") ;;
*)
	echo "usage: bench_gate.sh [-update-budgets | -self-test]" >&2
	exit 2
	;;
esac

if ! [ -f "$SNAPSHOT" ]; then
	echo "bench_gate: $SNAPSHOT missing; run \`make bench\` first" >&2
	exit 2
fi
BUDGET=$(mktemp)
trap 'rm -f "$BUDGET"' EXIT
# Budgets come from the last commit, not the working tree: `make bench`
# has just overwritten the working-tree snapshot with fresh numbers.
git show HEAD:$SNAPSHOT >"$BUDGET"
FAILED=0
compare "$BUDGET" "$SNAPSHOT" || FAILED=$((FAILED + 1))

# Relative overhead gates: the fleet control tower and head-sampled
# fleet tracing must each cost under MARGIN% ns/request over the
# untelemetered fleet, measured within the same snapshot so machine
# speed cancels out. Extraction uses | as the sed delimiter — the
# benchmark names contain slashes.
ns_req() {
	sed -n 's|.*"name": "'"$1"'".*"ns_per_request": \([0-9.e+]*\).*|\1|p' "$SNAPSHOT"
}
BASE=$(ns_req "BenchmarkFleet/accounts=1000")

# overhead <gate> <benchmark> <label>: one relative gate; fails when the
# benchmark's ns/request exceeds BASE by more than MARGIN%.
overhead() {
	v=$(ns_req "$2/accounts=1000")
	if [ -z "$BASE" ] || [ -z "$v" ]; then
		echo "bench_gate: FAIL fleet $1 overhead unmeasurable (BenchmarkFleet=${BASE:-missing}, $2=${v:-missing} in $SNAPSHOT)" >&2
		return 1
	fi
	awk -v base="$BASE" -v v="$v" -v margin="$MARGIN" -v gate="$1" -v label="$3" '
	BEGIN {
		pct = 100 * (v - base) / base
		if (v > base * (1 + margin / 100)) {
			printf "bench_gate: FAIL fleet %s overhead %.1f%% ns/request (%g %s vs %g base; margin %g%%)\n", gate, pct, v, label, base, margin
			exit 1
		}
		printf "bench_gate: ok   fleet %s overhead %.1f%% ns/request (%g %s vs %g base)\n", gate, pct, v, label, base
	}'
}
overhead telemetry BenchmarkFleetTelemetry telemetry || FAILED=$((FAILED + 1))
# Sampled tracing has to stay cheap enough to leave on fleet-wide.
overhead tracing BenchmarkFleetTraced traced || FAILED=$((FAILED + 1))

if [ "$FAILED" -gt 0 ]; then
	echo "bench_gate: $FAILED of 3 gates failed (margin ${MARGIN}%)" >&2
	exit 1
fi
echo "bench_gate: all benchmarks within budget (margin ${MARGIN}%)"
