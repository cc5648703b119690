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

echo ">> diylint ./... (domain invariants: wallclock, globalrand, moneyfloat, spanhygiene, planeroute, metricname, loggroup, hotpath, droppederr, maporder, globalstate, shardsafe, testonly)"
go run ./cmd/diylint ./...

echo ">> testonly ratchet (.diylint-allow keeps at most 26 testonly entries; lower the cap as entries go, never raise it)"
TESTONLY_CAP=26
TESTONLY=$(grep -c '^testonly ' .diylint-allow || true)
if [ "$TESTONLY" -gt "$TESTONLY_CAP" ]; then
	echo "check: .diylint-allow has $TESTONLY testonly entries, cap is $TESTONLY_CAP" >&2
	exit 1
fi

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

echo ">> fleet double-run (report + control-tower dashboard diffed between -workers 1 and -workers 8)"
go run ./cmd/diyctl fleet -accounts 300 -span 15m -workers 1 >"$LOG1" 2>/dev/null
go run ./cmd/diyctl fleet -accounts 300 -span 15m -workers 8 >"$LOG2" 2>/dev/null
if ! [ -s "$LOG1" ]; then
	echo "check: fleet run produced no report" >&2
	exit 1
fi
if ! grep -q 'Fleet control tower' "$LOG1"; then
	echo "check: fleet run rendered no control-tower dashboard" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> fleet golden (the report and control-tower dashboard above, byte-identical to cmd/diyctl/testdata/fleet.golden)"
diff cmd/diyctl/testdata/fleet.golden "$LOG1"

echo ">> churn-shaped fleet double-run (20,000 two-minute accounts with telemetry off, where install dominates and every shard applies the same per-kind install plans; report diffed between -workers 1 and -workers 8)"
go run ./cmd/diyctl fleet -accounts 20000 -max-simulated 20000 -span 2m -telemetry=false -workers 1 >"$LOG1" 2>/dev/null
go run ./cmd/diyctl fleet -accounts 20000 -max-simulated 20000 -span 2m -telemetry=false -workers 8 >"$LOG2" 2>/dev/null
if ! grep -q 'Fleet: 20000 accounts' "$LOG1"; then
	echo "check: churn-shaped fleet run produced no report" >&2
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

echo ">> trace demo goldens (diyctl trace and the traced-fleet render above, byte-identical to cmd/diyctl/testdata)"
diff cmd/diyctl/testdata/trace_fleet.golden "$LOG1"
go run ./cmd/diyctl trace >"$LOG2"
diff cmd/diyctl/testdata/trace.golden "$LOG2"

echo ">> metrics demo double-run (the CloudWatch-sim dashboard diffed between two runs; no host time reaches a simulated store)"
go run ./cmd/diyctl metrics >"$LOG1" 2>/dev/null
go run ./cmd/diyctl metrics >"$LOG2" 2>/dev/null
if ! grep -q 'Prometheus-style exposition' "$LOG1"; then
	echo "check: metrics demo rendered no exposition" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> fuzz smoke (each hand-written codec against its stdlib oracle, encoding/json or encoding/xml, the room-doc and mailbox splices against decode-append-encode, envelope.Key's Open (OpenTo against append(dst, Open)) and SealInPlace, IAM's in-place Match against the strings.Split matcher, then the telemetry stores: log ingest against a plain-string model, Insights Query against the test-side row reference, before and after stats and over a fuzzed event message, and the X-Ray filter grammar; 10 s per fuzzer; -fuzzminimizetime 1x keeps minimization from eating the 10 s)"
go test -run '^$' -fuzz '^FuzzAppendString$' -fuzztime 10s -fuzzminimizetime 1x ./internal/canonjson
go test -run '^$' -fuzz '^FuzzRoomDocCodec$' -fuzztime 10s -fuzzminimizetime 1x ./internal/apps/chat
go test -run '^$' -fuzz '^FuzzRoomDocSplice$' -fuzztime 10s -fuzzminimizetime 1x ./internal/apps/chat
go test -run '^$' -fuzz '^FuzzMailboxCodec$' -fuzztime 10s -fuzzminimizetime 1x ./internal/apps/email
go test -run '^$' -fuzz '^FuzzMailboxSplice$' -fuzztime 10s -fuzzminimizetime 1x ./internal/apps/email
go test -run '^$' -fuzz '^FuzzManifestCodec$' -fuzztime 10s -fuzzminimizetime 1x ./internal/apps/filetransfer
go test -run '^$' -fuzz '^FuzzUploadRequestDecode$' -fuzztime 10s -fuzzminimizetime 1x ./internal/apps/filetransfer
go test -run '^$' -fuzz '^FuzzRegistryCodec$' -fuzztime 10s -fuzzminimizetime 1x ./internal/apps/iot
go test -run '^$' -fuzz '^FuzzReportDecode$' -fuzztime 10s -fuzzminimizetime 1x ./internal/apps/iot
go test -run '^$' -fuzz '^FuzzStanzaCodec$' -fuzztime 10s -fuzzminimizetime 1x ./internal/proto/xmpp
go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 10s -fuzzminimizetime 1x ./internal/crypto/envelope
go test -run '^$' -fuzz '^FuzzSealInPlace$' -fuzztime 10s -fuzzminimizetime 1x ./internal/crypto/envelope
go test -run '^$' -fuzz '^FuzzMatch$' -fuzztime 10s -fuzzminimizetime 1x ./internal/cloudsim/iam
go test -run '^$' -fuzz '^FuzzIngestRoundTrip$' -fuzztime 10s -fuzzminimizetime 1x ./internal/cloudsim/logs
go test -run '^$' -fuzz '^FuzzInsightsQuery$' -fuzztime 10s -fuzzminimizetime 1x ./internal/cloudsim/logs
go test -run '^$' -fuzz '^FuzzTraceQuery$' -fuzztime 10s -fuzzminimizetime 1x ./internal/cloudsim/trace

echo ">> examples smoke (each examples/* program, the README's entry points, runs to exit 0)"
for ex in examples/*/; do
	if ! go run "./$ex" >/dev/null; then
		echo "check: $ex exited non-zero" >&2
		exit 1
	fi
done

echo ">> go test -race ./... (includes the fleet scheduler under the race detector)"
go test -race ./...

echo ">> bench smoke tests (diybench builds; 1- and 2-worker chunks agree at 1/50 size)"
(cd bench && go test ./...)

echo "check: all green"
