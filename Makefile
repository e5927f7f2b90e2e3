# Convenience entry points; `make verify` is the PR gate (`make check` is the
# directed subset it subsumes).

DUNE ?= dune

.PHONY: all build test bench bench-sim bench-shootout examples check clean \
        serve-smoke race-smoke verify verify-quick verify-baselines

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

bench:
	$(DUNE) exec bench/main.exe

# Simulation-kernel microbenchmark (flat vs boxed, trajectories, density).
# The env knobs shrink it to a smoke run for `make check`; unset them for
# real measurements (defaults: 16 qubits, 200 trials, 300 ms budget).  It
# runs inside _build/sim_smoke/, so the smoke-sized BENCH_sim.json it writes
# never replaces the one committed in the working tree.
bench-sim:
	$(DUNE) build bench/main.exe
	rm -rf _build/sim_smoke
	mkdir -p _build/sim_smoke
	cd _build/sim_smoke && \
	FASTSC_SIM_QUBITS=$${FASTSC_SIM_QUBITS:-6} \
	FASTSC_SIM_BIG_QUBITS=$${FASTSC_SIM_BIG_QUBITS:-8} \
	FASTSC_SIM_CYCLES=$${FASTSC_SIM_CYCLES:-2} \
	FASTSC_SIM_TRIALS=$${FASTSC_SIM_TRIALS:-20} \
	FASTSC_SIM_TRAJ_QUBITS=$${FASTSC_SIM_TRAJ_QUBITS:-4} \
	FASTSC_SIM_DENSITY_QUBITS=$${FASTSC_SIM_DENSITY_QUBITS:-4} \
	FASTSC_SIM_BUDGET_MS=$${FASTSC_SIM_BUDGET_MS:-20} \
	$(CURDIR)/_build/default/bench/main.exe sim > /dev/null

# Cross-compiler shootout smoke run: a shrunken scheduler-zoo x topology-zoo
# sweep under FASTSC_JOBS=1 and 4 with wall-clock fields scrubbed — both the
# stdout tables and BENCH_shootout.json must be byte-identical across job
# counts (ISSUE 9 acceptance).  Unset the env knobs for the full surface
# (defaults: sizes 4/9/16, five benchmarks, five topologies).
bench-shootout:
	$(DUNE) build bench/main.exe
	rm -rf _build/shootout_smoke
	mkdir -p _build/shootout_smoke/jobs1 _build/shootout_smoke/jobs4
	cd _build/shootout_smoke/jobs1 && \
	FASTSC_SHOOTOUT_SIZES=$${FASTSC_SHOOTOUT_SIZES:-4,9} \
	FASTSC_SHOOTOUT_BENCHES=$${FASTSC_SHOOTOUT_BENCHES:-bv,qaoa,xeb} \
	FASTSC_SHOOTOUT_TOPOLOGIES=$${FASTSC_SHOOTOUT_TOPOLOGIES:-mesh,ring,heavy-hex} \
	FASTSC_SHOOTOUT_SCRUB=1 FASTSC_JOBS=1 \
	$(CURDIR)/_build/default/bench/main.exe shootout > stdout.txt 2> /dev/null
	cd _build/shootout_smoke/jobs4 && \
	FASTSC_SHOOTOUT_SIZES=$${FASTSC_SHOOTOUT_SIZES:-4,9} \
	FASTSC_SHOOTOUT_BENCHES=$${FASTSC_SHOOTOUT_BENCHES:-bv,qaoa,xeb} \
	FASTSC_SHOOTOUT_TOPOLOGIES=$${FASTSC_SHOOTOUT_TOPOLOGIES:-mesh,ring,heavy-hex} \
	FASTSC_SHOOTOUT_SCRUB=1 FASTSC_JOBS=4 \
	$(CURDIR)/_build/default/bench/main.exe shootout > stdout.txt 2> /dev/null
	cmp _build/shootout_smoke/jobs1/stdout.txt _build/shootout_smoke/jobs4/stdout.txt
	cmp _build/shootout_smoke/jobs1/BENCH_shootout.json \
	    _build/shootout_smoke/jobs4/BENCH_shootout.json
	grep -q "headline: mesh" _build/shootout_smoke/jobs1/stdout.txt

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
# 1 and 4; SIGTERM must drain and snapshot; a corrupt snapshot must be
# quarantined on reboot, never a crash.
serve-smoke:
	$(DUNE) build bin/fastsc.exe
	sh scripts/serve_smoke.sh

# Concurrency smoke: two jobs-4 commands whose pool domains run library code
# for the first time concurrently, 25 runs each; any non-zero exit fails.  A
# module-level `lazy` forced for the first time from two domains at once
# raises CamlinternalLazy.Undefined, which killed each command a few times in
# thirty runs while the fault flags were lazy (docs/DESIGN.md §11).
race-smoke:
	$(DUNE) build bench/main.exe bin/fastsc.exe
	@for i in $$(seq 1 25); do \
	  ./_build/default/bench/main.exe --jobs 4 fig6 > /dev/null 2>&1 \
	    || { echo "race-smoke: bench/main.exe --jobs 4 fig6 failed on run $$i"; exit 1; }; \
	  FASTSC_JOBS=4 ./_build/default/bin/fastsc.exe sweep --bench xeb --size 4 > /dev/null 2>&1 \
	    || { echo "race-smoke: FASTSC_JOBS=4 fastsc sweep failed on run $$i"; exit 1; }; \
	done; echo "race-smoke: 25 runs of each command exited 0"

# The PR gate: full build (warnings are errors, see the root `dune` env
# stanza), then the whole test suite under both a serial and a parallel
# domain pool — the determinism contract says results must not depend on
# the job count, so both legs must pass — and the example programs.
check:
	$(DUNE) build @all
	FASTSC_JOBS=1 $(DUNE) runtest --force
	FASTSC_JOBS=4 $(DUNE) runtest --force
	$(MAKE) examples
	$(MAKE) bench-sim
	$(MAKE) bench-shootout
	$(MAKE) serve-smoke
	$(MAKE) race-smoke

# The layered PR gate (docs/DESIGN.md §11): tier R sweeps the property
# suites over seeds x jobs x case counts, tier D runs the directed suites
# plus the seeded-fault sweep (every FASTSC_FAULT in the catalog must be
# caught by at least one of its suites), tier W replays the paper workloads
# for any-jobs determinism and gates fresh benchmark runs against
# bench/baselines/*.json.  Writes verify_report.json.
verify:
	$(DUNE) build @all
	$(DUNE) exec bin/verify.exe

# Pre-commit subset: reduced tier R matrix + directed tier D; under 2 minutes.
verify-quick:
	$(DUNE) build @all
	$(DUNE) exec bin/verify.exe -- --quick
	$(MAKE) serve-smoke

# Re-record the perf-gate baselines (bench/baselines/*.json) from fresh
# pinned benchmark runs on this machine; commit the result.
verify-baselines:
	$(DUNE) build @all
	$(DUNE) exec bin/verify.exe -- --write-baselines

clean:
	$(DUNE) clean
