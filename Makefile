# Local developer loop. CI runs the same commands (see .github/workflows/ci.yml).

REPOLINT := $(CURDIR)/bin/repolint

.PHONY: build test bench-check lint repolint fuzz-smoke fmt

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

fuzz-smoke:
	go test ./internal/olap -run='^$$' -fuzz=FuzzMergePartials -fuzztime=30s
	go test ./internal/objstore -run='^$$' -fuzz=FuzzDecodeColumnar -fuzztime=30s
	go test ./internal/record -run='^$$' -fuzz=FuzzCodecDecode -fuzztime=30s
	go test ./internal/stream -run='^$$' -fuzz=FuzzSegmentRoundTrip -fuzztime=30s

fmt:
	gofmt -w .
