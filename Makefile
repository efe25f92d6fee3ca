# Tier-1 verification: build + full test suite, static analysis, gofmt
# cleanliness, the race detector over the concurrent packages (the
# harness worker pool, the tv pipeline it drives, and the certificate
# checker's per-function workers), the nested
# benchmark module, which the root `go build ./...` does not reach, and
# one run of every per-layer microbenchmark.
.PHONY: tier1 build test vet fmtcheck race perfbench microbench bench benchall

tier1: build test vet fmtcheck race perfbench microbench

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$out" >&2; exit 1; fi

# The harness portfolio/proof tests are CPU-bound and can exceed go
# test's default 10m package timeout under -race on small machines;
# the raised timeout does not mask races, which fail immediately.
race:
	go test -race -timeout 30m ./internal/harness ./internal/tv ./internal/telemetry ./internal/smt ./internal/store ./internal/tvd ./internal/proof

# perfbench vets and tests the benchmark-of-record module (perfbench/,
# its own go.mod), so an API change that breaks it fails tier 1.
perfbench:
	go -C perfbench vet ./... && go -C perfbench test ./...

# microbench runs each per-layer microbenchmark (SAT search, incremental
# SMT, one corpus function through the whole tv pipeline, RUP replay of
# a recorded trace, a certified directory through CheckDir) once, so a
# change that breaks one fails tier 1. For numbers, raise -benchtime and
# compare allocs/op and ns/op across commits.
microbench:
	go test -run '^$$' -bench . -benchtime 1x ./internal/sat ./internal/smt ./internal/tv ./internal/proof

# bench reproduces the Figure 6 comparisons — cache on/off, proof
# emission on/off, tracing on/off, inprocessing/portfolio ablations,
# cube-and-conquer tail legs with the adaptive portfolio, cold vs warm
# daemon runs against the persistent result store — and writes the
# machine-readable artifacts BENCH_PR2.json, BENCH_PR3.json,
# BENCH_PR5.json, BENCH_PR6.json, BENCH_PR8.json, and BENCH_PR9.json.
# BENCH_PR7.json (legacy vs streaming certificates) is frozen history:
# the legacy format it compared against no longer exists.
bench:
	go test -run '^$$' -bench 'BenchmarkFigure6' -benchtime 1x .
	WRITE_BENCH_JSON=1 go test -timeout 60m -run 'TestBenchPR2JSON|TestBenchPR3JSON|TestBenchPR5JSON|TestBenchPR6JSON|TestBenchPR8JSON|TestBenchPR9JSON' -v .

benchall:
	go test -bench=. -benchmem
