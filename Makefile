# Local developer loop. CI runs the same commands (see .github/workflows/ci.yml).

REPOLINT := $(CURDIR)/bin/repolint

.PHONY: build test bench-check lint repolint reftest-unlinked fuzz-smoke fmt

build:
	go build ./...

test:
	go test ./...

# bench-check builds and tests the pipeline benchmark, a nested module that
# go build ./... and go test ./... do not reach: an API change that breaks
# it must fail here, not in the benchmark pipeline.
bench-check:
	cd bench && go vet ./... && go test ./...

# repolint builds the invariant checker; lint runs it over every package of
# both modules — including test files — via the go vet -vettool protocol.
repolint:
	@mkdir -p bin
	go build -o $(REPOLINT) ./cmd/repolint

lint: repolint
	go vet -vettool=$(REPOLINT) ./...
	cd bench && go vet -vettool=$(REPOLINT) ./...

# reftest-unlinked fails when a program of either module links
# internal/reftest or a package under it, the differential tests' reference
# and its OLAP adapter: they are test support.
reftest-unlinked:
	@deps=$$(go list -deps ./cmd/... ./examples/... && cd bench && go list -deps ./...) || exit 1; \
	if echo "$$deps" | grep -qE '^repro/internal/reftest(/|$$)'; then echo "a program links repro/internal/reftest"; exit 1; fi

# fuzz-smoke is the one list of fuzz targets, 30 s each; CI's fuzz step runs
# this target.
fuzz-smoke:
	go test ./internal/olap -run='^$$' -fuzz=FuzzMergePartials -fuzztime=30s
	go test ./internal/olap -run='^$$' -fuzz=FuzzDecodeSegment -fuzztime=30s
	go test ./internal/objstore -run='^$$' -fuzz=FuzzDecodeColumnar -fuzztime=30s
	go test ./internal/record -run='^$$' -fuzz=FuzzCodecDecode -fuzztime=30s
	go test ./internal/sqlparse -run='^$$' -fuzz=FuzzParse -fuzztime=30s
	go test ./internal/stream -run='^$$' -fuzz=FuzzSegmentRoundTrip -fuzztime=30s
	go test ./internal/sqlparse -run='^$$' -fuzz=FuzzPredicateValue -fuzztime=30s
	go test ./internal/record -run='^$$' -fuzz=FuzzCompare -fuzztime=30s
	go test ./internal/record -run='^$$' -fuzz=FuzzKeyIndex -fuzztime=30s
	go test ./internal/olap -run='^$$' -fuzz=FuzzTimeBounds -fuzztime=30s
	go test ./internal/olap -run='^$$' -fuzz=FuzzUnpack -fuzztime=30s
	go test ./internal/flow -run='^$$' -fuzz=FuzzRestoreOperators -fuzztime=30s

fmt:
	gofmt -w .
