"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload request-scan --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (the median
of several set-ups), median latency of the workload's operation, work
per second and peak memory.  The run record keeps p90 and p99 too, with
their sample counts; they are not end-to-end metrics because on the wire
path a few stalls of the shared machine decide them, so they do not
repeat from run to run.  ``--trace 1`` makes a separate run that
wraps each layer's public functions (see ``tracing.py``) and prints the
per-layer metrics, with ``trace.overhead`` from an untraced phase of
the same length.  Every run checks a sample of the program's answers
against an independent oracle; a wrong answer makes the exit code 1.

The last line of standard output is the result object; the full run
record (machine, Python, commit, seed, sample counts, ladder rungs) is
written to ``perfbench/out/``.  ``--scale tiny`` shrinks every input for
the self-test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}

#: Set-ups per run; ``setup_s`` is their median and the last one is
#: measured.
SETUP_REPEATS = 3

#: String hashing is salted per process by default, which moves dict
#: and set layouts and with them the speed of a whole run: the same
#: build and seed measured 20-30 % apart between processes.  Every run
#: therefore uses one fixed hash seed.
HASH_SEED = "0"


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full")
    return parser.parse_args()


def _stamp(args: argparse.Namespace) -> Dict[str, Any]:
    """Where and on what the run happened."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "source_sha256": digest.hexdigest()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_timed(workload: Any, inputs: Any) -> Any:
    gc.collect()
    started = time.perf_counter()
    system = workload.setup(inputs)
    return system, time.perf_counter() - started


def _end_to_end(workload: Any, inputs: Any, seconds: float,
                record: Dict[str, Any]) -> Dict[str, float]:
    from loadgen import summarize
    setup_times = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            workload.teardown(system)
        system, elapsed = _setup_timed(workload, inputs)
        setup_times.append(elapsed)
    try:
        measurement = workload.measure(system, inputs, seconds)
        # Before the gate: its oracle's tables are not the program's.
        peak_rss_mb = _peak_rss_mb()
        checked, mismatches = workload.gate(system, inputs, measurement)
    finally:
        workload.teardown(system)
    latency = summarize(measurement.loop.latencies_s)
    record.update(setup_times_s=setup_times, all_requests=latency,
                  gate_checked=checked, wrong=len(mismatches),
                  mismatches=mismatches[:10],
                  errors=measurement.loop.errors,
                  late_ms_p99=_late_p99(measurement),
                  drain_s=measurement.drain_s, **measurement.extra)
    record["attempted"] = measurement.attempted + checked
    record["failed"] = measurement.failed + len(mismatches)
    return {"setup_s": statistics.median(setup_times),
            "op_p50_ms": measurement.p50_ms,
            "ops_per_s": measurement.ops_per_s,
            "peak_rss_mb": peak_rss_mb}


def _late_p99(measurement: Any) -> float:
    from loadgen import percentile
    late = sorted(measurement.loop.late_s)
    return percentile(late, 99) * 1_000.0 if late else 0.0


def _per_layer(workload: Any, inputs: Any, seconds: float,
               record: Dict[str, Any], trace_path: pathlib.Path
               ) -> Dict[str, float]:
    """Half the run untraced, half traced, each on a fresh set-up."""
    import tracing
    from loadgen import summarize
    half = seconds / 2.0
    system, _elapsed = _setup_timed(workload, inputs)
    try:
        plain = workload.measure(system, inputs, half, ladder=False)
    finally:
        workload.teardown(system)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    system = None
    try:
        system, _elapsed = _setup_timed(workload, inputs)
        compile_s = tracer.total_s("sql.compile")
        tracer.reset()
        traced = workload.measure(system, inputs, half, ladder=False)
        uninstall()
        uninstall = None
        checked, mismatches = workload.gate(system, inputs, traced)
    finally:
        if uninstall is not None:
            uninstall()
        if system is not None:
            workload.teardown(system)
    plain_latency = summarize(plain.loop.latencies_s)
    traced_latency = summarize(traced.loop.latencies_s)
    metrics = tracing.layer_metrics(
        tracer, requests=traced.requests, compile_s=compile_s,
        drain_s=traced.drain_s, late_ms_p99=_late_p99(plain),
        untraced=plain_latency, overhead=traced.p50_ms / plain.p50_ms)
    tracer.write(str(trace_path))
    record.update(untraced_latency=plain_latency,
                  traced_latency=traced_latency, gate_checked=checked,
                  wrong=len(mismatches), mismatches=mismatches[:10],
                  spans=len(tracer.spans),
                  spans_dropped=tracer.dropped, trace_file=str(
                      trace_path.relative_to(ROOT)),
                  errors=plain.loop.errors + traced.loop.errors)
    record["attempted"] = plain.attempted + traced.attempted + checked
    record["failed"] = plain.failed + traced.failed + len(mismatches)
    return metrics


def main() -> int:
    args = _parse()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (no child is started) with the same
        # command under the fixed hash seed.
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(pathlib.Path(__file__).resolve()),
                   *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.scale == "tiny")
    if workload.one_cpu:
        # Before any thread exists, so every thread inherits the mask.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record: Dict[str, Any] = {"stamp": _stamp(args)}
    inputs = workload.inputs(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values = _per_layer(workload, inputs, args.seconds, record,
                            OUT / f"{stem}.spans.jsonl")
        units = tracing.LAYER_METRICS
    else:
        values = _end_to_end(workload, inputs, args.seconds, record)
        units = END_TO_END
    correct = record["gate_checked"] > 0 and record["wrong"] == 0
    record["metrics"] = values
    record_path = OUT / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{record['gate_checked']} outputs checked, "
          f"{record['wrong']} wrong; record "
          f"{record_path.relative_to(ROOT)}")
    if record.get("ladder_capped"):
        print(f"perfbench: the rate ladder ended still within the "
              f"objective, so ops_per_s ({values['ops_per_s']:.0f} req/s) "
              f"is a lower bound")
    for mismatch in record["mismatches"]:
        print(f"perfbench: mismatch {mismatch}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
