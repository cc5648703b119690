#!/bin/sh
# check.sh — the repo's full verification gate: formatting and static
# analysis plus the test suite under the race detector. CI and
# `make check` run this.
set -eu
cd "$(dirname "$0")/.."

echo ">> go vet ./..."
go vet ./...

echo ">> gofmt -l (every tracked Go file gofmt-clean)"
UNFORMATTED=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$UNFORMATTED" ]; then
	echo "check: files need gofmt:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo ">> diylint ./... (domain invariants: wallclock, globalrand, moneyfloat, spanhygiene, planeroute, metricname, loggroup, hotpath, droppederr, maporder, globalstate, shardsafe)"
go run ./cmd/diylint ./...

echo ">> ledger parity (Tables 1-3 + the reconciled Table 3 evidence bit-identical to committed goldens; observability/logging/tracing on == off)"
go test ./internal/experiments -run 'TestLedgerParity|TestObservabilityPreservesLedger|TestLogsPreserveLedger|TestTracePreservesLedger'

echo ">> alarm determinism (two identically-seeded runs, transition logs diffed)"
LOG1=$(mktemp) LOG2=$(mktemp)
trap 'rm -f "$LOG1" "$LOG2"' EXIT
go test ./internal/cloudsim/metrics -run TestAlarmTransitionsDeterministic -count=1 -v 2>&1 \
	| grep 'transition:' >"$LOG1"
go test ./internal/cloudsim/metrics -run TestAlarmTransitionsDeterministic -count=1 -v 2>&1 \
	| grep 'transition:' >"$LOG2"
if ! [ -s "$LOG1" ]; then
	echo "check: alarm determinism test produced no transitions" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> log-stream determinism (two identically-seeded runs, full event dumps diffed)"
go test ./internal/experiments -run TestLogStreamsDeterministic -count=1 -v 2>&1 \
	| grep 'logline:' >"$LOG1"
go test ./internal/experiments -run TestLogStreamsDeterministic -count=1 -v 2>&1 \
	| grep 'logline:' >"$LOG2"
if ! [ -s "$LOG1" ]; then
	echo "check: log-stream determinism test produced no log lines" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> fleet determinism (1,000-account golden at GOMAXPROCS=1 and NumCPU; control-tower telemetry on == off)"
GOMAXPROCS=1 go test ./internal/experiments -run TestLedgerParityFleet -count=1
go test ./internal/experiments -run TestLedgerParityFleet -count=1

echo ">> fleet double-run (report + control-tower dashboard diffed across worker counts)"
GOMAXPROCS=1 go run ./cmd/diyctl fleet -accounts 300 -span 15m >"$LOG1" 2>/dev/null
go run ./cmd/diyctl fleet -accounts 300 -span 15m >"$LOG2" 2>/dev/null
if ! [ -s "$LOG1" ]; then
	echo "check: fleet run produced no report" >&2
	exit 1
fi
if ! grep -q 'Fleet control tower' "$LOG1"; then
	echo "check: fleet run rendered no control-tower dashboard" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> traced-fleet double-run (sampled kept-sets, service map and critical path diffed across worker counts)"
GOMAXPROCS=1 go run ./cmd/diyctl trace -fleet -accounts 200 -span 10m >"$LOG1" 2>/dev/null
go run ./cmd/diyctl trace -fleet -accounts 200 -span 10m >"$LOG2" 2>/dev/null
if ! grep -q 'Fleet trace rollup' "$LOG1"; then
	echo "check: traced fleet run rendered no trace rollup" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> go test -race ./... (includes the fleet scheduler under the race detector)"
go test -race ./...

echo ">> bench smoke tests (diybench builds; 1- and 2-worker chunks agree at 1/50 size)"
(cd bench && go test ./...)

echo "check: all green"
