# Developer entry points. `make check` is the pre-commit gate.

GO ?= go

.PHONY: build test check vet lint race bench bench-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs diylint, the repo's domain-invariant analyzer suite
# (wallclock, globalrand, moneyfloat, spanhygiene, planeroute,
# metricname, loggroup, hotpath, droppederr, maporder, globalstate,
# shardsafe, testonly), all thirteen driven off one shared call-graph substrate.
# Output stays human-readable here; CI re-renders the same run with
# -format=sarif for annotation. Deliberate findings live in
# .diylint-allow with a justification.
lint:
	$(GO) run ./cmd/diylint ./...

race:
	$(GO) test -race ./...

check:
	sh scripts/check.sh

# bench snapshots the cloudsim hot-path benchmarks (plane.Do under
# interceptor chains, metrics window lookup, log ingestion, Insights
# scans) into BENCH_cloudsim.json.
bench:
	sh scripts/bench.sh

# bench-gate fails if the fresh snapshot regressed more than 15% over
# the committed budgets on ns/op, bytes/op, or allocs/op. Intentional
# changes adopt new budgets via
# `sh scripts/bench_gate.sh -update-budgets` + commit.
bench-gate:
	sh scripts/bench_gate.sh
