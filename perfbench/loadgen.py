"""Load generators and latency summaries.

Two load models:

* :func:`closed_loop` — one caller that sends its next request when the
  previous one returns (an application thread waiting on features).
* :func:`open_loop` — independent users arriving on a fixed schedule,
  spread over a few connections.  Each request is timed from the moment
  it was *due*, not from when a connection got round to sending it, so
  a stall is charged to every request it delayed (the correction for
  coordinated omission).  How late the generator sent is reported too.

A failed request counts as a miss of any latency limit: it enters the
latency list as ``math.inf``.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import threading
import time
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["LoopResult", "closed_loop", "open_loop", "percentile",
           "summarize", "window_medians"]

#: Width of the windows :func:`window_medians` cuts a phase into.
WINDOW_S = 1.0


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (nan when empty)."""
    if not sorted_values:
        return math.nan
    rank = max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[rank]


@dataclasses.dataclass
class LoopResult:
    """What one load phase did."""

    latencies_s: List[float]          # per attempted request; inf = failed
    failures: int
    elapsed_s: float
    #: When each request in ``latencies_s`` ended, in seconds from the
    #: start of the phase.
    done_s: List[float] = dataclasses.field(default_factory=list)
    late_s: List[float] = dataclasses.field(default_factory=list)
    errors: List[str] = dataclasses.field(default_factory=list)
    unsent: int = 0                   # open loop: cut off before sending

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def summarize(latencies_s: Sequence[float]) -> dict:
    """p50/p90/p99 in milliseconds with the sample count behind them."""
    ordered = sorted(latencies_s)
    return {"samples": len(ordered),
            "p50_ms": percentile(ordered, 50) * 1_000.0,
            "p90_ms": percentile(ordered, 90) * 1_000.0,
            "p99_ms": percentile(ordered, 99) * 1_000.0}


def window_medians(done_s: Sequence[float], latencies_s: Sequence[float],
                   span_s: float) -> dict:
    """Medians over whole windows of each window's p50 and rate.

    The machine the benchmark runs on shares its CPUs, and a neighbour
    can slow a few seconds of a run.  Cutting the phase into windows
    and taking the median across them keeps such a stretch from moving
    the figure as long as it covers less than half the windows.  A
    window with no completions counts as rate 0.  Phases shorter than
    two windows are summarised whole.
    """
    count = int(span_s // WINDOW_S)
    if count < 2:
        return {"windows": 1, "p50_ms": summarize(latencies_s)["p50_ms"],
                "per_s": len(latencies_s) / span_s if span_s else 0.0}
    buckets: List[List[float]] = [[] for _ in range(count)]
    for done, latency in zip(done_s, latencies_s):
        index = int(done // WINDOW_S)
        if 0 <= index < count:
            buckets[index].append(latency)
    filled = [sorted(bucket) for bucket in buckets if bucket]
    return {
        "windows": count,
        "p50_ms": statistics.median(
            percentile(bucket, 50) for bucket in filled) * 1_000.0,
        "per_s": statistics.median(len(bucket) for bucket in buckets)
        / WINDOW_S}


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def closed_loop(call: Callable[[Any], Any], requests: Sequence[Any],
                seconds: float,
                on_result: Optional[Callable[[int, Any, Any], None]] = None
                ) -> LoopResult:
    """Issue ``requests`` round-robin, one at a time, for ``seconds``."""
    perf = time.perf_counter
    latencies: List[float] = []
    done: List[float] = []
    errors: List[str] = []
    failures = 0
    count = len(requests)
    index = 0
    start = perf()
    deadline = start + seconds
    finished = start
    while finished < deadline:
        row = requests[index % count]
        began = perf()
        try:
            result = call(row)
        except Exception as exc:  # the loop outlives a failed request
            finished = perf()
            failures += 1
            latencies.append(math.inf)
            if len(errors) < 5:
                errors.append(_describe(exc))
        else:
            finished = perf()
            latencies.append(finished - began)
            if on_result is not None:
                on_result(index, row, result)
        done.append(finished - start)
        index += 1
    return LoopResult(latencies, failures, finished - start, done_s=done,
                      errors=errors)


def open_loop(connections: Sequence[Any],
              call: Callable[[Any, Any], Any], requests: Sequence[Any],
              rate: float, seconds: float, *,
              cutoff_s: float = 2.0,
              on_result: Optional[Callable[[int, Any, Any], None]] = None
              ) -> LoopResult:
    """Send ``rate`` requests/s in total over ``connections`` for ``seconds``.

    Connection ``c`` owns every ``len(connections)``-th slot of one global
    schedule, so the offered load is smooth.  A connection that falls
    behind sends its backlog back to back; requests still unsent
    ``cutoff_s`` after the schedule ends are abandoned and count as
    misses (``unsent``), which bounds the phase when the system cannot
    keep up.  ``call(connection, row)`` runs on one thread per
    connection.
    """
    width = len(connections)
    interval = 1.0 / rate
    total = max(int(round(rate * seconds)), width)
    lock = threading.Lock()
    latencies: List[float] = []
    done: List[float] = []
    late: List[float] = []
    errors: List[str] = []
    counts = {"failures": 0, "unsent": 0}
    barrier = threading.Barrier(width + 1)
    base_box: List[float] = []

    def drive(slot: int) -> None:
        connection = connections[slot]
        barrier.wait()
        base = base_box[0]
        stop_at = base + total * interval + cutoff_s
        perf = time.perf_counter
        own_latency: List[float] = []
        own_done: List[float] = []
        own_late: List[float] = []
        own_errors: List[str] = []
        failures = 0
        unsent = 0
        for index in range(slot, total, width):
            due = base + index * interval
            now = perf()
            if now < due:
                time.sleep(due - now)
                now = perf()
            if now > stop_at:
                unsent += 1
                own_latency.append(math.inf)
                own_done.append(now - base)
                continue
            row = requests[index % len(requests)]
            own_late.append(now - due)
            try:
                result = call(connection, row)
            except Exception as exc:  # a failed request is a miss
                failures += 1
                own_latency.append(math.inf)
                own_done.append(perf() - base)
                if len(own_errors) < 5:
                    own_errors.append(_describe(exc))
                continue
            finished = perf()
            own_latency.append(finished - due)
            own_done.append(finished - base)
            if on_result is not None:
                on_result(index, row, result)
        with lock:
            latencies.extend(own_latency)
            done.extend(own_done)
            late.extend(own_late)
            errors.extend(own_errors)
            counts["failures"] += failures
            counts["unsent"] += unsent

    threads = [threading.Thread(target=drive, args=(slot,),
                                name=f"loadgen-{slot}", daemon=True)
               for slot in range(width)]
    for thread in threads:
        thread.start()
    base_box.append(time.perf_counter() + 0.01)
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - base_box[0]
    return LoopResult(latencies, counts["failures"], elapsed, done_s=done,
                      late_s=late, errors=errors, unsent=counts["unsent"])
