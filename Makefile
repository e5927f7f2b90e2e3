# Convenience entry points.  `make verify` is the PR gate; `make check` is the
# quicker one (the test suite, `make verify-quick` and `make race-smoke`).

DUNE ?= dune

.PHONY: all build test bench examples check clean serve-smoke race-smoke verify \
        verify-quick

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

bench:
	$(DUNE) exec bench/main.exe

# Smoke-run every worked example (examples/*.ml are documentation that must
# keep compiling AND running); output is discarded, a non-zero exit fails.
examples:
	$(DUNE) build examples
	@for e in quickstart qaoa_maxcut xeb_calibration topology_explorer error_diagnosis; do \
	  echo "running examples/$$e"; \
	  ./_build/default/examples/$$e.exe > /dev/null || exit 1; \
	done

# Serve-daemon smoke test (DESIGN.md §12): a JSONL batch with an
# over-deadline request must come back fully answered (the budget-0 request
# as a structured greedy-tier response), byte-identically across FASTSC_JOBS
# 1 and 4; SIGTERM must drain and exit 0; an expired drain grace must exit 0
# without waiting on the backlog.
serve-smoke:
	$(DUNE) build bin/fastsc.exe
	sh scripts/serve_smoke.sh

# Concurrency smoke: three jobs-4 commands whose pool domains run library
# code for the first time concurrently, 25 runs each; any non-zero exit
# fails.  A module-level `lazy` forced for the first time from two domains at
# once raises CamlinternalLazy.Undefined, which killed each command a few
# times in thirty runs while the fault flags were lazy (DESIGN.md §11).
# The validate run fans a trajectory batch over the pool, whose trials all
# read the snapshots and no-hit fidelity the batch shares (DESIGN.md §9).
race-smoke:
	$(DUNE) build bench/main.exe bin/fastsc.exe
	@for i in $$(seq 1 25); do \
	  ./_build/default/bench/main.exe --jobs 4 fig6 > /dev/null 2>&1 \
	    || { echo "race-smoke: bench/main.exe --jobs 4 fig6 failed on run $$i"; exit 1; }; \
	  FASTSC_JOBS=4 ./_build/default/bin/fastsc.exe sweep --bench xeb --size 4 > /dev/null 2>&1 \
	    || { echo "race-smoke: FASTSC_JOBS=4 fastsc sweep failed on run $$i"; exit 1; }; \
	  FASTSC_JOBS=4 ./_build/default/bin/fastsc.exe validate --bench qaoa --size 9 --trials 64 \
	    > /dev/null 2>&1 \
	    || { echo "race-smoke: FASTSC_JOBS=4 fastsc validate failed on run $$i"; exit 1; }; \
	done; echo "race-smoke: 25 runs of each command exited 0"

# The quick gate: the whole test suite (perfbench's own tests included),
# then the pre-commit subset of `make verify` and the concurrency smoke.
check:
	$(DUNE) runtest --force
	$(MAKE) verify-quick
	$(MAKE) race-smoke

# The layered PR gate (DESIGN.md §11): tier R sweeps the property
# suites over seeds x jobs x case counts, tier D runs the directed suites
# plus the seeded-fault sweep (every FASTSC_FAULT in the catalog must be
# caught by at least one of its suites), tier W replays the paper workloads
# and a smoke-sized shootout for any-jobs determinism and runs perfbench's
# paper-compile and serve-replay workloads for one second each, which pass
# only when every output check of the benchmark holds.  Writes
# verify_report.json.
verify:
	$(DUNE) build @all
	$(DUNE) exec bin/verify.exe

# Pre-commit subset: reduced tier R matrix + directed tier D; under 2 minutes.
verify-quick:
	$(DUNE) build @all
	$(DUNE) exec bin/verify.exe -- --quick
	$(MAKE) serve-smoke

clean:
	$(DUNE) clean
