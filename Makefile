# Convenience wrappers around dune. `make bench` prints the paper's
# tables and figures, the ablations and the extensions, then runs the
# tier-DP certificate. `make bench-dp` regenerates BENCH_dp.json: the
# certified ladder against the exact quadratic DP across demand specs
# and market sizes (the n=50k exact legs make it slow; `make
# bench-dp-smoke` is the CI variant, which still covers n=200k via the
# sampled-column check). Performance is measured with a spread by
# perfbench/ (`make perfbench-smoke`; BENCHMARK.json). `make
# golden-regen` re-renders every registry experiment and promotes the
# result into test/golden/ — run it (and commit the diff) after an
# intentional output change.

.PHONY: all build test test-segdp bench bench-dp bench-dp-smoke perfbench-smoke golden-regen smoke smoke-procs lint lint-typed lint-baseline effects-regen clean

all: build

build:
	dune build

test:
	dune runtest

# Just the tier-DP kernel suites (unit + hostile corpus + properties):
# the fast loop while working on lib/numerics/segdp.ml.
test-segdp:
	dune build test/test_main.exe
	./_build/default/test/test_main.exe test 'numerics.segdp'

bench:
	dune exec bench/main.exe

bench-dp:
	dune exec bench/main.exe -- dp

bench-dp-smoke:
	dune exec bench/main.exe -- dp --dp-sizes=1000,4000,200000 --dp-max-exact=4000

# One short run of two repository benchmark workloads
# (perfbench/README.md). `grid` builds perfbench/main.exe, renders the
# paper grid on all four legs (serial, 2-domain pool, exec:2 fleet,
# warm disk CAS) and checks every render against the goldens and the
# serial reference. `serve_ingest` replays a 7-day wire file through
# `Daemon.run` and re-solves every posted window with the same
# `Retier.t` (`Retier.solve_cold` is `retier`), so it only catches
# nondeterminism; the check against the exact quadratic DP is the
# `serve` test "daemon wire replay (= quadratic)" in `make test`. Each
# exits non-zero if any output is wrong.
perfbench-smoke:
	python3 perfbench/run.py --workload grid --seed 1 --seconds 1 --trace 0
	python3 perfbench/run.py --workload serve_ingest --seed 1 --seconds 1 --trace 0

# Rewrite test/golden/*.expected from the current code. The second
# pass re-checks the diffs so a failed promote cannot pass silently.
golden-regen:
	dune build @golden --auto-promote || true
	dune build @golden

# tiered-lint: the determinism/hygiene static-analysis pass (rule
# catalog: `dune exec bin/lint.exe -- --list-rules`; DESIGN.md §10).
# `make lint` runs BOTH engines — the textual AST rules and, because
# the tree is built first, the typed interprocedural pass (T001-T003)
# over the lib/ cmt artifacts — and fails on any finding that is
# neither inline-suppressed nor grandfathered in lint/baseline.json.
# It leaves the JSON report at lint-report.json and a SARIF 2.1.0
# twin at lint-report.sarif; `dune build @lint` is the dune-tracked
# equivalent (it also diffs the effects golden).  `make lint-typed`
# runs just the typed pass plus the effects-golden diff; `make
# effects-regen` re-derives lint/effects.golden.json after an
# intentional interface change (the second pass re-checks the diff).
# `make lint-baseline` regenerates the baseline from the current
# findings (target state: empty).
lint:
	dune build
	./_build/default/bin/lint.exe --root . --baseline lint/baseline.json \
	  --json lint-report.json --sarif lint-report.sarif lib bin bench test

lint-typed:
	dune build @lint-typed
	./_build/default/bin/lint.exe --root . --baseline lint/baseline.json \
	  --typed-only

effects-regen:
	dune build @lint-typed --auto-promote || true
	dune build @lint-typed

lint-baseline:
	dune build
	./_build/default/bin/lint.exe --root . --baseline lint/baseline.json \
	  --write-baseline lib bin bench test

smoke:
	dune exec bin/tiered_cli.exe -- run table1 --jobs 2 --metrics

# `--backend procs` is an alias for the loopback TCP fleet
# (`--backend remote`); this keeps the alias working.
smoke-procs:
	dune exec bin/tiered_cli.exe -- run table1 --backend procs --jobs 2 --metrics

clean:
	dune clean
	rm -rf _cache _cas
