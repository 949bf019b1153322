PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint verify verify-docs bench bench-smoke recover-smoke \
	offline-smoke elastic-smoke adaptive-smoke slo-smoke examples \
	profile perf-selftest

test:
	$(PYTHON) -m pytest -x -q

# Prefer ruff when the environment has it; otherwise fall back to the
# stdlib AST linter (same rule family: F401/E722/E711/E712).  The
# DOC001 doc-reference sweep is not a ruff rule, so it runs in both
# branches (tools/lint.py runs it implicitly alongside the AST rules).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks && \
		$(PYTHON) tools/lint.py --docs; \
	else \
		echo "ruff not found; using tools/lint.py fallback"; \
		$(PYTHON) tools/lint.py src tests benchmarks; \
	fi

verify: lint test recover-smoke offline-smoke elastic-smoke \
	adaptive-smoke slo-smoke bench-smoke perf-selftest

# Extract and execute every fenced python block in README.md and
# docs/*.md — documentation code must actually run.
verify-docs:
	$(PYTHON) -m pytest -q -m docs tests/test_docs_snippets.py

bench:
	$(PYTHON) -m pytest benchmarks -q

# The benchmark's own correctness oracles: every perfbench workload at a
# tiny size, traced and untraced, must pass its gate with no failed
# operation and print exactly the metrics BENCHMARK.json declares.
perf-selftest:
	$(PYTHON) perfbench/selftest.py

# One quick benchmark as a smoke gate: catches a serving-path
# regression (or a broken benchmark harness) without the full sweep.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_fig_serving_throughput.py -q

# Offline parallel round trip: a tiny process-pool run (with spill)
# must stay byte-identical to serial.  Hermetic — falls back to the
# thread pool where multiprocessing is unavailable.
offline-smoke:
	$(PYTHON) -m pytest tests/test_offline_parallel.py -q -k smoke

# Crash/restart round trip: a tablet dies losing its memory, restarts
# from snapshot + binlog-tail replay, and must lose no acknowledged
# write.  Cheap enough to gate every verify run.
recover-smoke:
	$(PYTHON) -m pytest tests/test_crash_recovery.py -q -k smoke

# Elastic data plane round trip: split -> migrate -> rebalance under
# sustained closed-loop traffic, plus tenant shedding — zero
# acknowledged-write loss and byte-identical answers vs a twin.
elastic-smoke:
	$(PYTHON) -m pytest tests/test_elastic.py -q -k smoke

# Adaptive execution round trip: the cost router promotes hot keys and
# re-buckets preaggs mid-stream while answers stay byte-identical to a
# static twin.
adaptive-smoke:
	$(PYTHON) -m pytest tests/test_adaptive.py -q -k smoke

# Tiny target-QPS run over the ad CTR workload: the paced-load SLO
# search must find a sustained rate inside the latency budget.  Also
# runs the streaming skew smoke (byte-identical train/serve vectors
# for both new workloads).
slo-smoke:
	$(PYTHON) -m pytest tests/test_slo.py tests/test_streams.py -q \
		-k smoke

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

# Where a request's time goes: cProfile over a canned fig6-style
# workload.  `--path {incremental,fused,naive}` selects the tier.
profile:
	$(PYTHON) tools/profile.py
