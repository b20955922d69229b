# Convenience targets for the reproduction repository.
#
# Every target that imports `repro` sets PYTHONPATH=src so all of them
# work from a clean checkout, with no `make install` required.

PYTHON ?= python

.PHONY: install test lint check verify bench bench-probe bench-obs \
        bench-store bench-sweep bench-serve bench-match bench-fabric \
        bench-ml bench-gate coverage serve sweep report figures \
        examples clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ --durations=20

# Lightweight lint: everything must byte-compile, and `print(` is banned
# in src/repro outside the CLI (library code reports via repro.obs) and
# in benchmarks/ helper modules (bench_*.py scripts may still print).
# The matching primitives in src/repro/match sit below the analyses, so
# no module there may import repro.core.
lint:
	$(PYTHON) -m compileall -q src/repro tests benchmarks examples tools
	@bad=$$(grep -rn --include='*.py' '^[[:space:]]*print(' src/repro \
	    | grep -v '^src/repro/cli\.py:' || true); \
	if [ -n "$$bad" ]; then \
	    echo "lint: bare print() outside src/repro/cli.py:"; \
	    echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn --include='*.py' '^[[:space:]]*print(' benchmarks \
	    | grep -v '^benchmarks/bench_' || true); \
	if [ -n "$$bad" ]; then \
	    echo "lint: bare print() in benchmarks/ helper modules:"; \
	    echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE --include='*.py' \
	    '^[[:space:]]*(from|import)[[:space:]]+repro\.core([^[:alnum:]_]|$$)|^[[:space:]]*from[[:space:]]+repro[[:space:]]+import.*[^[:alnum:]_]core([^[:alnum:]_]|$$)' \
	    src/repro/match || true); \
	if [ -n "$$bad" ]; then \
	    echo "lint: src/repro/match imports repro.core:"; \
	    echo "$$bad"; exit 1; \
	fi
	@echo "lint: ok"

check: test lint

# Differential conformance: re-run the pipeline and compare every node
# against the committed golden baseline (conformance/baseline.json).
verify:
	PYTHONPATH=src $(PYTHON) -m repro verify check

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-probe:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_probe_engine.py \
	    --jobs 4 -o BENCH_probe.json

bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_obs_overhead.py \
	    -o BENCH_obs.json

bench-store:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_store.py \
	    -o BENCH_store.json

bench-sweep:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sweep.py \
	    -o BENCH_sweep.json

bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py \
	    -o BENCH_serve.json

bench-match:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_match.py \
	    -o BENCH_match.json

bench-fabric:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fabric.py \
	    -o BENCH_fabric.json

bench-ml:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ml.py \
	    -o BENCH_ml.json

# Re-run the gated benchmarks and compare against committed BENCH_*.json
# (the CI bench-regression job).
bench-gate:
	$(PYTHON) tools/bench_gate.py --override store=0.5 \
	    --override match=0.4

# Line coverage over src/repro (CI's coverage job; needs pytest-cov).
coverage:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ --cov=src/repro \
	    --cov-report=term --cov-report=html --cov-fail-under=70

# Stream-ingest the capture and serve the query API (checkpoints into
# the local cache so a restarted server resumes).
serve:
	PYTHONPATH=src $(PYTHON) -m repro serve --cache-dir .repro-cache

# Multi-seed campaign: 4 seeds, 2 worker processes, shared cache.
sweep:
	PYTHONPATH=src $(PYTHON) -m repro sweep run --seeds 4 --workers 2 \
	    --out sweep_out --cache-dir .repro-cache

report:
	PYTHONPATH=src $(PYTHON) -m repro report -o study_report.md

figures:
	PYTHONPATH=src $(PYTHON) -m repro figures -o figure_data

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/fingerprint_audit.py Samsung
	PYTHONPATH=src $(PYTHON) examples/certificate_audit.py Roku
	PYTHONPATH=src $(PYTHON) examples/supply_chain_discovery.py
	PYTHONPATH=src $(PYTHON) examples/smart_tv_case_study.py
	PYTHONPATH=src $(PYTHON) examples/acme_migration.py Tuya

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis study_report.md \
	       figure_data capture.jsonl certificates.jsonl BENCH_probe.json \
	       BENCH_obs.json BENCH_store.json BENCH_sweep.json \
	       BENCH_serve.json BENCH_match.json BENCH_fabric.json \
	       BENCH_ml.json ml_model.json ml_eval.json htmlcov .coverage \
	       trace.jsonl *.manifest.json .repro-cache sweep_out \
	       fabric_out bench_fresh
