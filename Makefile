PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: help test-fast test-all lint analysis typecheck serve bench \
	paper-claims crash-test race-check cluster-demo cluster-test \
	traffic traffic-test

help:
	@echo "Targets:"
	@echo "  test-fast      tier-1 gate: pytest minus tests marked 'slow'"
	@echo "  test-all       full suite, soak tests included"
	@echo "  lint           static analysis: repro.analysis AST rules + strict mypy"
	@echo "  analysis       just the AST rules (python -m repro.analysis --check)"
	@echo "  typecheck      just mypy --strict over repro.core and repro.parallel"
	@echo "  serve          run the quantile service TCP server (port 7107)"
	@echo "  bench          the repo's one benchmark (benchmarks/e2e/run.py, BENCHMARK.json)"
	@echo "  paper-claims   the paper's figures/tables as shape assertions (smoke scale)"
	@echo "  crash-test     crash-consistency sweep + SIGKILL process smoke"
	@echo "  race-check     concurrency gate: LCK/RACE static rules + runtime sanitizer tests"
	@echo "  cluster-demo   3-node replicated cluster demo (ingest/failover/convergence)"
	@echo "  cluster-test   cluster fault suite: partitions, crashes, convergence"
	@echo "  traffic        scenario catalog + determinism gate (each scenario twice)"
	@echo "  traffic-test   workload suite: generators, continuous queries, scenarios"

# Tier-1 gate: everything except tests marked `slow` (pyproject's
# addopts already applies -m 'not slow'). The 15 slowest tests are
# listed at the end, so every run names what tier-1's time goes to.
test-fast:
	$(PYTEST) -x -q --durations=15

# Full suite, soak tests included (-m on the command line overrides
# the addopts filter).
test-all:
	$(PYTEST) -q -m "slow or not slow"

# The CI lint gate: custom AST rules, then the strict typing gate.
lint: analysis typecheck

analysis:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --check src/repro

# mypy is an optional dev dependency; environments without it (the
# hermetic test container) skip the typing half of the gate loudly
# instead of failing. Configuration lives in pyproject.toml.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --strict src/repro/core src/repro/parallel; \
	else \
		echo "mypy not installed - skipping strict typing gate"; \
	fi

# Foreground quantile service on the default port; override with e.g.
# `make serve SERVE_ARGS="--port 9000 --sketch ddsketch"`.
serve:
	PYTHONPATH=src $(PYTHON) -m repro.service serve $(SERVE_ARGS)

# The only code in the repo that times the system: four workloads, six
# gated end-to-end metrics and the per-layer budget declared in
# BENCHMARK.json (see benchmarks/e2e/README.md). Run the script
# directly for the CI-sized pass (--smoke --e2e-only) or one workload's
# per-layer numbers (--workload W --trace 1).
bench:
	$(PYTHON) benchmarks/e2e/run.py

# The paper's figure index: one plain pytest file per table/figure
# asserting the *shape* the paper reports over repro.experiments. No
# timing plugin: `-p no:benchmark` keeps one that happens to be
# installed out, and the empty addopts drops tier-1's `-m` filter.
paper-claims:
	REPRO_SCALE=smoke $(PYTEST) benchmarks/ --ignore=benchmarks/e2e \
		-p no:benchmark -o addopts=""

# The crash-consistency gate: the in-process fault sweep (a simulated
# crash at every WAL record boundary and mid-checkpoint) plus the
# SIGKILL-a-real-process smoke test.
crash-test:
	$(PYTEST) -q tests/durability -m "slow or not slow"

# The replicated cluster (DESIGN §14). `cluster-demo` runs the
# scripted 3-node ingest/failover/convergence walkthrough; add e.g.
# CLUSTER_ARGS="--nodes 5" to vary it. For a long-running foreground
# cluster use `python -m repro.cluster --serve` directly.
cluster-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cluster --demo $(CLUSTER_ARGS)

cluster-test:
	$(PYTEST) -q tests/cluster

# The scenario catalog with its determinism gate: every scenario runs
# twice on one seed and the SLO reports must match byte-for-byte.
# TRAFFIC_ARGS="--scenario flash_crowd" (etc.) narrows the run.
traffic:
	PYTHONPATH=src $(PYTHON) -m repro.workload --scenario all --fast \
		$(TRAFFIC_ARGS)

traffic-test:
	$(PYTEST) -q tests/workload tests/data/test_traffic.py \
		tests/service/test_continuous.py

# The concurrency gate (DESIGN §13): the LCK/RACE static family over
# the whole tree, then the runtime sanitizer suite — its own unit
# tests, the live corpus witnesses, the <10% overhead budget, and the
# sanitizer-wrapped server/store/durability/histogram concurrency tests.
race-check:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --check \
		--select LCK,RACE src/repro
	$(PYTEST) -q tests/sanitizer -m "slow or not slow"
	$(PYTEST) -q tests/service/test_concurrent_ingest.py \
		tests/service/test_concurrency.py \
		tests/durability/test_crash_sweep.py \
		tests/obs/test_buffered_histogram.py
