"""Span tracing from outside the program, for the per-layer run.

:func:`install` replaces public methods of each layer's classes with
wrappers that record a span around every call.  Nothing in the program
changes: the wrappers live here, are installed only for the traced run
and are removed by the returned undo function.

A span records its name, start, end, parent span and request id.  The
parent is the span open on the same thread when the call began; the
request id is the root span's id, so every span one request causes on
that thread shares it.  Spans that run on another thread (the
serving frontend's workers, the binlog worker) start their own request
there; the per-layer figures for those layers are therefore computed
from per-request totals, as differences between layers.  A layer's
self time is its span minus the time its child spans cover.

Spans are kept in memory, up to ``MAX_SPANS`` (later ones only update
the totals), and :meth:`Tracer.write` puts them out as JSON lines when
the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "install", "layer_metrics", "LAYER_METRICS"]

#: Spans kept in memory per run; later spans only update the totals.
MAX_SPANS = 200_000


class _Frame:
    __slots__ = ("name", "start", "span_id", "parent_id", "request_id",
                 "child_s")

    def __init__(self, name: str, start: float, span_id: int,
                 parent_id: int, request_id: int) -> None:
        self.name = name
        self.start = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.child_s = 0.0


class Tracer:
    """In-memory span store with per-name totals and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget every span, total and counter recorded so far."""
        with self._lock:
            self.spans: List[Tuple[int, int, int, str, float, float]] = []
            self.dropped = 0
            # name -> [calls, total seconds, self seconds]
            self.totals: Dict[str, List[float]] = {}
            self.counters: Dict[str, float] = {}

    def begin(self, name: str) -> _Frame:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            frame = _Frame(name, 0.0, span_id, parent.span_id,
                           parent.request_id)
        else:
            frame = _Frame(name, 0.0, span_id, 0, span_id)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def end(self, frame: _Frame) -> None:
        ended = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        duration = ended - frame.start
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            total = self.totals.get(frame.name)
            if total is None:
                total = self.totals[frame.name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame.child_s
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame.span_id, frame.parent_id,
                                   frame.request_id, frame.name,
                                   frame.start, ended))
            else:
                self.dropped += 1

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def write(self, path: str) -> None:
        """Write every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent_id, request_id, name, start, end \
                    in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent_id,
                    "request": request_id, "name": name,
                    "start": start, "end": end}) + "\n")


def _wrap(tracer: Tracer, owner: type, attr: str, name: str,
          after: Optional[Callable[..., None]] = None,
          failed: Optional[Callable[[BaseException], None]] = None,
          result_iter: bool = False, materialize: bool = False
          ) -> Callable[[], None]:
    """Trace ``owner.attr``; returns the function that restores it."""
    own = attr in owner.__dict__
    original = getattr(owner, attr)

    def timed_blocks(iterator: Iterator[Any]) -> Iterator[Any]:
        # Lazy block scans do their work as the consumer pulls, so each
        # pull is its own span under whatever span is pulling.
        while True:
            frame = tracer.begin(name)
            try:
                block = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end(frame)
            tracer.count(name + ".rows", len(block))
            yield block

    scan = result_iter or materialize

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if scan:
            # Counted apart from the span: a lazy scan opens one span
            # per pulled block on top of the call's own.
            tracer.count(name + ".calls")
        frame = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
            if materialize:
                # Row-at-a-time scans: every consumer here drains the
                # iterator at once, so draining it inside the span
                # times the scan without a span per row.
                result = list(result)
                tracer.count(name + ".rows", len(result))
                result = iter(result)
        except BaseException as exc:
            if failed is not None:
                failed(exc)
            raise
        finally:
            tracer.end(frame)
        if after is not None:
            after(result, args)
        if result_iter:
            return timed_blocks(iter(result))
        return result

    setattr(owner, attr, traced)

    def restore() -> None:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    return restore


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's public functions; returns the undo function."""
    from repro.cluster.nameserver import NameServer
    from repro.cluster.tablet import TabletServer
    from repro.core.database import OpenMLDB
    from repro.errors import OverloadError
    from repro.netserve.client import NetClient
    from repro.offline.engine import OfflineEngine
    from repro.online.binlog import Replicator
    from repro.online.engine import OnlineEngine
    from repro.online.incremental import IncrementalWindowState
    from repro.online.preagg import PreAggregator
    from repro.serving.frontend import FrontendServer
    from repro.sql.compiler import (CompilationCache, CompiledQuery,
                                    CompiledWindow)
    from repro.storage.memtable import MemTable
    from repro.streams.cdc import StreamIngestor

    def serving_failed(exc: BaseException) -> None:
        if isinstance(exc, OverloadError):
            tracer.count("serving.shed")

    def batch_rows(_result: Any, args: Tuple[Any, ...]) -> None:
        tracer.count("cluster.batch.rows", len(args[2]))

    def incremental_hit(result: Any, _args: Tuple[Any, ...]) -> None:
        if result is not None:
            tracer.count("online.incremental.hits")

    def preagg_buckets(result: Any, _args: Tuple[Any, ...]) -> None:
        tracer.count("online.preagg.buckets",
                     sum(result.buckets_used.values()))

    def fold_rows(_result: Any, args: Tuple[Any, ...]) -> None:
        tracer.count("sql.fold.rows", sum(len(block) for block in args[1]))

    def ingest_dup(result: Any, _args: Tuple[Any, ...]) -> None:
        if result is False:
            tracer.count("streams.duplicates")

    def offline_stats(result: Any, _args: Tuple[Any, ...]) -> None:
        stats = result[1]
        tracer.count("offline.join_s", stats.join_seconds)
        tracer.count("offline.window_s", stats.serial_seconds)
        tracer.count("offline.project_s", stats.project_seconds)
        tracer.count("offline.tasks", stats.tasks)

    specs = [
        (NetClient, "execute", "netserve.execute", {}),
        (FrontendServer, "request", "serving.request",
         {"failed": serving_failed}),
        (NameServer, "request_batch", "cluster.request_batch",
         {"after": batch_rows}),
        (TabletServer, "window_scan", "cluster.rpc", {}),
        (TabletServer, "last_join_lookup", "cluster.rpc", {}),
        (OpenMLDB, "request_row", "core.request_row", {}),
        (OpenMLDB, "insert", "core.insert", {}),
        (OnlineEngine, "execute_request", "online.execute_request", {}),
        (IncrementalWindowState, "compute", "online.incremental.compute",
         {"after": incremental_hit}),
        (IncrementalWindowState, "absorb", "online.incremental.absorb",
         {}),
        (PreAggregator, "query", "online.preagg.query",
         {"after": preagg_buckets}),
        (PreAggregator, "absorb", "online.preagg.absorb", {}),
        (Replicator, "append_entry", "online.binlog.append_entry", {}),
        (MemTable, "window_scan_blocks", "storage.scan",
         {"result_iter": True}),
        (MemTable, "window_scan", "storage.scan", {"materialize": True}),
        (MemTable, "last_join_lookup", "storage.join", {}),
        (MemTable, "insert", "storage.insert", {}),
        (CompiledWindow, "compute_blocks", "sql.fold",
         {"after": fold_rows}),
        (CompiledQuery, "project", "sql.project", {}),
        (CompilationCache, "get_or_compile", "sql.compile", {}),
        (StreamIngestor, "ingest", "streams.ingest", {"after": ingest_dup}),
        (OfflineEngine, "execute", "offline.execute",
         {"after": offline_stats}),
    ]
    undo = []
    for owner, attr, name, options in specs:
        undo.append(_wrap(tracer, owner, attr, name, **options))

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()
    return uninstall


#: Every per-layer metric, with its unit (the traced run prints all of
#: them on every workload; a layer a workload does not reach reads 0).
LAYER_METRICS: Dict[str, str] = {
    "netserve.rtt_ms": "ms", "netserve.self_ms": "ms",
    "serving.request_ms": "ms", "serving.wait_ms": "ms",
    "serving.batch_rows": "rows", "serving.dedup_share": "ratio",
    "serving.shed": "count",
    "cluster.row_ms": "ms", "cluster.self_ms": "ms",
    "cluster.rpcs_per_req": "count", "cluster.rpc_ms": "ms",
    "core.request_ms": "ms", "core.insert_ms": "ms",
    "core.insert_self_ms": "ms",
    "online.execute_ms": "ms", "online.self_ms": "ms",
    "online.incremental.ms": "ms", "online.incremental.hit_share": "ratio",
    "online.preagg.ms": "ms", "online.preagg.buckets_per_req": "count",
    "online.binlog.drain_ms": "ms", "online.preagg.absorbs": "count",
    "online.incremental.absorbs": "count",
    "storage.scan_ms": "ms", "storage.scan_rows": "rows",
    "storage.scan_calls": "count", "storage.join_ms": "ms",
    "storage.insert_ms": "ms",
    "sql.fold_ms": "ms", "sql.fold_rows": "rows", "sql.project_ms": "ms",
    "sql.compile_ms": "ms",
    "streams.ingest_ms": "ms", "streams.self_ms": "ms",
    "streams.dup_share": "ratio",
    "offline.execute_s": "s", "offline.join_s": "s",
    "offline.window_s": "s", "offline.project_s": "s",
    "offline.tasks": "count", "offline.parallel_eff": "ratio",
    "loadgen.late_ms_p99": "ms", "loadgen.op_p90_ms": "ms",
    "loadgen.op_p99_ms": "ms", "trace.overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, requests: int, compile_s: float,
                  drain_s: float, late_ms_p99: float,
                  untraced: Dict[str, float],
                  overhead: float) -> Dict[str, float]:
    """Per-layer figures from one traced phase.

    ``requests`` is the number of feature requests the load loop issued
    in the phase; "per request" figures divide by it.  Per-call figures
    (inserts, deliveries, offline runs) divide by their own call count,
    and the ingest path's binlog wait and tier absorbs divide by the
    deliveries (``StreamIngestor.ingest`` calls), so that a faster
    ingest path, which delivers more in the same time, does not read
    as more work.  ``drain_s`` is the phase's total binlog wait.
    ``untraced`` summarises the untraced phase's latencies; its tail
    percentiles are reported here, where no bound applies.
    """
    t = tracer
    ms = 1_000.0

    def per_request_ms(name: str) -> float:
        return _ratio(t.total_s(name), requests) * ms

    def per_call_ms(name: str, which: Callable[[str], float]) -> float:
        return _ratio(which(name), t.calls(name)) * ms

    batch_rows = t.counter("cluster.batch.rows")
    serving_calls = t.calls("serving.request")
    rtt_ms = per_request_ms("netserve.execute")
    serving_ms = _ratio(t.total_s("serving.request"), serving_calls) * ms
    row_ms = _ratio(t.total_s("cluster.request_batch"), batch_rows) * ms
    offline_runs = t.calls("offline.execute")
    offline_wall = _ratio(t.total_s("offline.execute"), offline_runs)
    window_s = _ratio(t.counter("offline.window_s"), offline_runs)
    incremental_calls = t.calls("online.incremental.compute")
    ingests = t.calls("streams.ingest")
    return {
        "netserve.rtt_ms": rtt_ms,
        "netserve.self_ms": (_ratio(t.total_s("netserve.execute")
                                    - t.total_s("serving.request"),
                                    requests) * ms),
        "serving.request_ms": serving_ms,
        "serving.wait_ms": serving_ms - row_ms if serving_calls else 0.0,
        "serving.batch_rows": _ratio(batch_rows,
                                     t.calls("cluster.request_batch")),
        "serving.dedup_share": (1.0 - batch_rows / serving_calls
                                if serving_calls else 0.0),
        "serving.shed": t.counter("serving.shed"),
        "cluster.row_ms": row_ms,
        "cluster.self_ms": _ratio(t.self_s("cluster.request_batch"),
                                  batch_rows) * ms,
        "cluster.rpcs_per_req": _ratio(t.calls("cluster.rpc"), requests),
        "cluster.rpc_ms": per_request_ms("cluster.rpc"),
        "core.request_ms": per_call_ms("core.request_row", t.total_s),
        "core.insert_ms": per_call_ms("core.insert", t.total_s),
        "core.insert_self_ms": per_call_ms("core.insert", t.self_s),
        "online.execute_ms": per_call_ms("online.execute_request",
                                         t.total_s),
        "online.self_ms": per_call_ms("online.execute_request", t.self_s),
        "online.incremental.ms": per_request_ms(
            "online.incremental.compute"),
        "online.incremental.hit_share": _ratio(
            t.counter("online.incremental.hits"), incremental_calls),
        "online.preagg.ms": per_request_ms("online.preagg.query"),
        "online.preagg.buckets_per_req": _ratio(
            t.counter("online.preagg.buckets"), requests),
        "online.binlog.drain_ms": _ratio(drain_s, ingests) * ms,
        "online.preagg.absorbs": _ratio(t.calls("online.preagg.absorb"),
                                        ingests),
        "online.incremental.absorbs": _ratio(
            t.calls("online.incremental.absorb"), ingests),
        "storage.scan_ms": per_request_ms("storage.scan"),
        "storage.scan_rows": _ratio(t.counter("storage.scan.rows"),
                                    requests),
        "storage.scan_calls": _ratio(t.counter("storage.scan.calls"),
                                     requests),
        "storage.join_ms": per_request_ms("storage.join"),
        "storage.insert_ms": per_call_ms("storage.insert", t.total_s),
        "sql.fold_ms": per_request_ms("sql.fold"),
        "sql.fold_rows": _ratio(t.counter("sql.fold.rows"), requests),
        "sql.project_ms": per_request_ms("sql.project"),
        "sql.compile_ms": compile_s * ms,
        "streams.ingest_ms": per_call_ms("streams.ingest", t.total_s),
        "streams.self_ms": per_call_ms("streams.ingest", t.self_s),
        "streams.dup_share": _ratio(t.counter("streams.duplicates"),
                                    ingests),
        "offline.execute_s": offline_wall,
        "offline.join_s": _ratio(t.counter("offline.join_s"),
                                 offline_runs),
        "offline.window_s": window_s,
        "offline.project_s": _ratio(t.counter("offline.project_s"),
                                    offline_runs),
        "offline.tasks": _ratio(t.counter("offline.tasks"), offline_runs),
        "offline.parallel_eff": _ratio(window_s, offline_wall),
        "loadgen.late_ms_p99": late_ms_p99,
        "loadgen.op_p90_ms": untraced["p90_ms"],
        "loadgen.op_p99_ms": untraced["p99_ms"],
        "trace.overhead": overhead,
    }
