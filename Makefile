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

# bench runs the Figure 6 corpus with the VC cache off and on, with
# proof emission, and with tracing; every configuration must reproduce
# the serial baseline's class counts, and each reports its ns/op. The
# benchmark of record is perfbench (`bash perfbench/run.sh`), and CI's
# ladder-gate job runs the cube and ladder comparisons. BENCH_PR*.json
# are frozen history: the writers that produced them are gone.
bench:
	go test -run '^$$' -bench 'BenchmarkFigure6$$' -benchtime 1x .

benchall:
	go test -bench=. -benchmem
