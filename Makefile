# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all ci build vet test race bench chaos chaos-mem validate micro macro examples trace-demo clean

all: build vet test

# ci mirrors .github/workflows/ci.yml: full build/vet/test plus a short-mode
# race pass (the full race suite is the separate `race` target). benchmark/
# is its own module, so ./... does not reach its BENCHMARK.json name-sync
# test; it is run here explicitly. trace-demo is the one step that runs the
# rqbench and rqtrace binaries end to end.
ci: build vet test trace-demo
	$(GO) test -race -short ./... -count=1 -timeout 900s
	(cd benchmark && $(GO) vet . && $(GO) test . -count=1)

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./... -count=1 -timeout 900s

race:
	$(GO) test -race ./... -count=1 -timeout 1800s

# chaos builds with failpoints compiled in and runs the fault-injection
# suite: the chaos matrices plus the fault/epoch/provider robustness tests.
chaos:
	$(GO) build -tags failpoints ./...
	$(GO) test -race -tags failpoints -count=1 -timeout 1800s \
		-run 'Chaos|Fault|Stall|Watchdog|Deregister|TryRegister|Abort|Panic|Bundle' \
		./internal/fault/ ./internal/rwlock/ ./internal/epoch/ ./internal/rqprov/ \
		./internal/ds/skiplist/ ./internal/bundle/ ./internal/dstest/ .

# chaos-mem is the bounded-memory acceptance proof: one updater permanently
# stalled mid-update while the rest hammer the structure through the
# backpressure gate. Asserts limbo + quarantine never exceed the hard limit,
# the watchdog neutralizes the staller, and quarantined nodes are reclaimed
# only after resume + acknowledgment. Runs the full matrix under the race
# detector; the canonical lflist/lock-free combination gets the long window.
chaos-mem:
	$(GO) build -tags failpoints ./...
	$(GO) test -race -tags failpoints -count=1 -timeout 1800s \
		-run 'TestChaosMemBound' ./internal/dstest/

bench:
	$(GO) test -bench=. -benchmem ./... -timeout 1800s

validate:
	$(GO) run ./cmd/validate

micro:
	$(GO) run ./cmd/microbench -exp all -threads 8 -scale 10 -duration 400ms

macro:
	$(GO) run ./cmd/macrobench -w 2 -workers 4 -scale 20 -duration 1s

# trace-demo records a short traced benchmark run, then renders the flight
# recorder's per-phase report with the analyzer. Add `-chrome trace.json` to
# the rqtrace line for a Perfetto-loadable timeline.
trace-demo:
	$(GO) run ./cmd/rqbench -ds skiplist -tech lockfree -threads 4 \
		-trials 1 -duration 200ms -trace-dump /tmp/ebrrq_demo.trace
	$(GO) run ./cmd/rqtrace /tmp/ebrrq_demo.trace

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/inmemdb
	$(GO) run ./examples/analytics
	$(GO) run ./examples/validation

clean:
	$(GO) clean -testcache
