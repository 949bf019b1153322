"""Online real-time execution engine (paper Sections 3.2 and 5).

Implements **online request mode**: each incoming request tuple is
treated as virtually inserted into its table, the deployed (compiled)
feature script runs against it, and a single feature row comes back.

The fast path per request:

1. Resolve each ``LAST JOIN`` through the right table's stream index —
   the newest matching tuple is O(1) thanks to the two-level skiplist.
2. For every window, first consult **incremental window state** (per-key
   running aggregates maintained at ingest time); on a hit the window
   costs O(aggregates).  Otherwise fetch the window's rows as *blocks*
   via index scans bounded by the request timestamp (window unions merge
   several tables' scans newest-first) and fold them through the
   window's **fused kernel** — or, for deployed *long windows*, ask the
   pre-aggregation manager for merged bucket states and scan only the
   raw head/tail spans (Section 5.1's query refinement).
3. Windows left to the scan tier share one fetch per *scan group*
   (sibling windows over the same partition of the same sources): the
   group is fetched to its loosest scanning member's bound and each
   member folds its own newest-first prefix.
4. Project the output row.

The engine keeps no per-request state across calls; window/preagg state
lives in the storage layer and the ingest-time aggregators.  Statistics
are accumulated per request in a local counter bundle and applied to
:class:`EngineStats` under its lock in one step, so concurrent requests
from the serving frontend's worker pool never lose increments.
"""

from __future__ import annotations

import dataclasses
import threading
from bisect import bisect_right
from operator import itemgetter
from time import perf_counter
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..errors import ExecutionError
from ..obs import NULL_OBS, Observability
from ..schema import Row
from ..serving.deadline import current_deadline
from ..sql.compiler import CompiledJoin, CompiledQuery, CompiledWindow
from ..storage.memtable import normalize_ts
from .preagg import PreAggregator

__all__ = ["OnlineEngine", "EngineStats"]

_COUNTER_FIELDS = ("rows_scanned", "scan_blocks", "preagg_bucket_merges",
                   "preagg_raw_rows", "join_lookups", "shared_scan_hits",
                   "incremental_hits", "incremental_fallbacks")

#: One window's scan work: (name, window, router key, the window's
#: pre-aggregator or None — its slots are answered elsewhere).
_ScanWork = Tuple[str, CompiledWindow, Any, Optional[PreAggregator]]

_TS = itemgetter(0)
_ROW = itemgetter(1)


class _RequestCounters:
    """Per-request statistic deltas.

    Accumulated lock-free on the request's own stack, then folded into
    the shared :class:`EngineStats` in a single locked step — the fix
    for the racy ``stats.field += 1`` pattern under concurrent serving.
    """

    __slots__ = _COUNTER_FIELDS + ("incremental_windows",)

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.scan_blocks = 0
        self.preagg_bucket_merges = 0
        self.preagg_raw_rows = 0
        self.join_lookups = 0
        self.shared_scan_hits = 0
        self.incremental_hits = 0
        self.incremental_fallbacks = 0
        # (window name, hit?) events; lazily allocated — most requests
        # either use no incremental state or should not pay a list.
        self.incremental_windows: Optional[List[Tuple[str, bool]]] = None

    def note_window(self, name: str, hit: bool) -> None:
        if self.incremental_windows is None:
            self.incremental_windows = []
        self.incremental_windows.append((name, hit))


@dataclasses.dataclass
class EngineStats:
    """Counters for observability and the ablation benches.

    Updated only through :meth:`apply` (one lock acquisition per
    request), never via in-place ``+=`` from request threads.
    """

    requests: int = 0
    rows_scanned: int = 0
    scan_blocks: int = 0
    preagg_bucket_merges: int = 0
    preagg_raw_rows: int = 0
    join_lookups: int = 0
    shared_scan_hits: int = 0
    incremental_hits: int = 0
    incremental_fallbacks: int = 0
    #: window name → [hits, fallbacks] — which window is falling back,
    #: not just that one is.  Read via :meth:`incremental_window_stats`.
    incremental_by_window: Dict[str, List[int]] = dataclasses.field(
        default_factory=dict)
    _lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False, compare=False)

    def apply(self, counters: _RequestCounters) -> None:
        """Fold one request's deltas in atomically."""
        with self._lock:
            self.requests += 1
            self.rows_scanned += counters.rows_scanned
            self.scan_blocks += counters.scan_blocks
            self.preagg_bucket_merges += counters.preagg_bucket_merges
            self.preagg_raw_rows += counters.preagg_raw_rows
            self.join_lookups += counters.join_lookups
            self.shared_scan_hits += counters.shared_scan_hits
            self.incremental_hits += counters.incremental_hits
            self.incremental_fallbacks += counters.incremental_fallbacks
            if counters.incremental_windows:
                for name, hit in counters.incremental_windows:
                    entry = self.incremental_by_window.get(name)
                    if entry is None:
                        entry = self.incremental_by_window[name] = [0, 0]
                    entry[0 if hit else 1] += 1

    def incremental_window_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-window incremental attribution, as a stable copy."""
        with self._lock:
            return {name: {"hits": entry[0], "fallbacks": entry[1]}
                    for name, entry in self.incremental_by_window.items()}


class OnlineEngine:
    """Request-mode executor over a set of tables.

    Args:
        tables: table name → storage object (``MemTable`` or ``DiskTable``
            — both expose the same read API).
        obs: observability handle.  Disabled (the default) keeps the
            request path exactly as fast as the uninstrumented engine;
            enabled adds per-stage trace spans and metric series.
        fused_fold: fold windows through the compiler's fused kernels
            (:meth:`CompiledWindow.compute_blocks`).  ``False`` selects
            the pre-fusion per-row/per-state fold — the ablation
            baseline.
        block_scan: fetch window rows through the storage layer's
            chunked ``window_scan_blocks`` API.  ``False`` selects the
            per-row iterator scans (ablation baseline).
    """

    def __init__(self, tables: Mapping[str, Any],
                 obs: Optional[Observability] = None,
                 fused_fold: bool = True,
                 block_scan: bool = True) -> None:
        self._tables = tables
        self._fused_fold = fused_fold
        self._block_scan = block_scan
        self.stats = EngineStats()
        self._obs = obs or NULL_OBS
        registry = self._obs.registry
        self._m_requests = registry.counter("online.requests")
        self._m_rows_scanned = registry.counter("online.rows_scanned")
        self._m_scan_blocks = registry.counter("online.scan.blocks")
        self._m_join_lookups = registry.counter("online.join_lookups")
        self._m_preagg_merges = registry.counter(
            "online.preagg.bucket_merges")
        self._m_preagg_raw = registry.counter("online.preagg.raw_rows")
        self._m_shared_scans = registry.counter(
            "online.batch.shared_scans")
        self._m_incr_hits = registry.counter("online.incremental.hits")
        self._m_incr_fallbacks = registry.counter(
            "online.incremental.fallbacks")

    # ------------------------------------------------------------------

    def execute_request(
            self, compiled: CompiledQuery, request_row: Sequence[Any],
            preagg: Optional[Mapping[str, PreAggregator]] = None,
            shared_fetch: Optional[Dict[Any, List[List[Row]]]] = None,
            incremental: Optional[Mapping[str, Any]] = None,
            router: Optional[Any] = None
    ) -> Row:
        """Run one request tuple through a compiled deployment.

        Args:
            compiled: the compiled feature script.
            request_row: a tuple matching the primary table's schema.
            preagg: window name → the window's PreAggregator; the slots
                it holds are answered from pre-aggregation, the rest
                from raw window scans.
            shared_fetch: micro-batching hook — a dict shared across the
                requests of one batch; window scans that resolve to the
                same (window, partition key, anchor ts) are fetched once
                and reused (hot keys under herd traffic).
            incremental: window name → ingest-time incremental window
                state (see :mod:`repro.online.incremental`).  Windows
                present here try the O(aggregates) hit path first and
                fall back to a fused scan-fold when the state declines
                (cold key, stale replication, out-of-order anchor).
            router: optional
                :class:`~repro.adaptive.ExecutionRouter`.  When set, the
                router picks the execution tier per window (possibly
                discarding the preagg/incremental fast paths in favour
                of a scan) and every tier execution is timed to
                calibrate its cost model.  Each tier computes identical
                answers, so routing never changes results.

        Returns:
            The projected feature row.

        Raises:
            DeadlineExceededError: the ambient request deadline (see
                :mod:`repro.serving.deadline`) ran out mid-plan.
        """
        if self._obs.enabled:
            return self._execute_request_traced(compiled, request_row,
                                                preagg, shared_fetch,
                                                incremental, router)
        deadline = current_deadline()
        plan = compiled.plan
        validated = plan.table_schema.validate_row(request_row)
        counters = _RequestCounters()

        # Build the combined row: primary columns then each join's.
        combined: List[Any] = [None] * compiled.combined_width
        combined[:len(validated)] = validated
        for join in compiled.joins:
            matched = self._resolve_join(join, combined, counters)
            if matched is not None:
                combined[join.start_slot:
                         join.start_slot + join.right_width] = matched
        combined_tuple = tuple(combined)

        if compiled.where_fn is not None \
                and compiled.where_fn(combined_tuple) is not True:
            self.stats.apply(counters)
            raise ExecutionError(
                "request tuple filtered out by WHERE predicate")

        # Window aggregates.  Each window's tier is settled first; the
        # windows left to the scan tier then share one row fetch per
        # scan group (see :meth:`_scan_windows`).
        aggregate_values: List[Any] = [None] * compiled.aggregate_count
        scanning: List[_ScanWork] = []
        for name, window in compiled.windows.items():
            if not window.aggregates:
                continue
            if deadline is not None:
                deadline.check("request")
            aggregator = preagg.get(name) if preagg else None
            # Keyed by the window's own name: grouped siblings share a
            # fetch but carry distinct aggregate slots.
            state = incremental.get(name) \
                if incremental is not None else None
            router_key = None
            if router is not None:
                router_key = window.partition_key(validated)
                router.note_request(name, router_key)
                if aggregator is not None:
                    # The requested span informs bucket sizing whatever
                    # tier ends up serving this request.
                    router.observe_span(
                        name, window.plan.range_preceding_ms or 0)
                tier = router.decide(name, router_key,
                                     has_incremental=state is not None,
                                     has_preagg=aggregator is not None)
                if tier != "preagg":
                    aggregator = None
                if tier == "scan":
                    state = None
            if aggregator is None \
                    or len(aggregator.slots) < len(window.aggregates):
                results = None
                if state is not None and aggregator is None:
                    if router is not None:
                        started = perf_counter()
                        results = state.compute(validated)
                        router.observe_incremental(
                            name, (perf_counter() - started) * 1_000.0,
                            hit=results is not None)
                    else:
                        results = state.compute(validated)
                    if results is not None:
                        counters.incremental_hits += 1
                        counters.note_window(name, hit=True)
                    else:
                        counters.incremental_fallbacks += 1
                        counters.note_window(name, hit=False)
                if results is None:
                    scanning.append((name, window, router_key, aggregator))
                else:
                    for slot, value in results.items():
                        aggregate_values[slot] = value
            if aggregator is not None:
                preagg_started = perf_counter() \
                    if router is not None else 0.0
                self._preagg_values(compiled, window, aggregator, validated,
                                    aggregate_values, counters)
                if router is not None:
                    router.observe_preagg(
                        name,
                        (perf_counter() - preagg_started) * 1_000.0)
        if scanning:
            self._scan_windows(compiled, scanning, validated, counters,
                               shared_fetch, aggregate_values, router,
                               deadline)
        extended = combined_tuple + tuple(aggregate_values)
        projected = compiled.project(extended)
        self.stats.apply(counters)
        if router is not None:
            router.after_request()
        return projected

    # ------------------------------------------------------------------
    # traced request path (observability enabled)

    def _execute_request_traced(
            self, compiled: CompiledQuery, request_row: Sequence[Any],
            preagg: Optional[Mapping[str, PreAggregator]],
            shared_fetch: Optional[Dict[Any, List[List[Row]]]] = None,
            incremental: Optional[Mapping[str, Any]] = None,
            router: Optional[Any] = None
    ) -> Row:
        """:meth:`execute_request` with per-stage spans and metrics.

        Control flow mirrors the untraced body exactly; the untraced
        version stays separate so the default-off path adds nothing to
        the request latency the paper's Figure 6 measures.
        """
        tracer = self._obs.tracer
        deadline = current_deadline()
        plan = compiled.plan
        validated = plan.table_schema.validate_row(request_row)
        counters = _RequestCounters()
        self._m_requests.inc()

        combined: List[Any] = [None] * compiled.combined_width
        combined[:len(validated)] = validated
        for join in compiled.joins:
            with tracer.span("index.seek",
                             table=join.plan.right_table) as span:
                matched = self._resolve_join(join, combined, counters)
                span.set_tag(hit=matched is not None)
            if matched is not None:
                combined[join.start_slot:
                         join.start_slot + join.right_width] = matched
        combined_tuple = tuple(combined)

        if compiled.where_fn is not None \
                and compiled.where_fn(combined_tuple) is not True:
            self.stats.apply(counters)
            raise ExecutionError(
                "request tuple filtered out by WHERE predicate")

        aggregate_values: List[Any] = [None] * compiled.aggregate_count
        scanning: List[_ScanWork] = []
        for name, window in compiled.windows.items():
            if not window.aggregates:
                continue
            if deadline is not None:
                deadline.check("request")
            aggregator = preagg.get(name) if preagg else None
            state = incremental.get(name) \
                if incremental is not None else None
            router_key = None
            if router is not None:
                router_key = window.partition_key(validated)
                router.note_request(name, router_key)
                if aggregator is not None:
                    # The requested span informs bucket sizing whatever
                    # tier ends up serving this request.
                    router.observe_span(
                        name, window.plan.range_preceding_ms or 0)
                with tracer.span("router.decide", window=name) as span:
                    tier = router.decide(name, router_key,
                                         has_incremental=state is not None,
                                         has_preagg=aggregator is not None)
                    span.set_tag(tier=tier)
                if tier != "preagg":
                    aggregator = None
                if tier == "scan":
                    state = None
            if aggregator is None \
                    or len(aggregator.slots) < len(window.aggregates):
                results = None
                if state is not None and aggregator is None:
                    with tracer.span("incremental.lookup",
                                     window=name) as span:
                        if router is not None:
                            started = perf_counter()
                            results = state.compute(validated)
                            router.observe_incremental(
                                name,
                                (perf_counter() - started) * 1_000.0,
                                hit=results is not None)
                        else:
                            results = state.compute(validated)
                        span.set_tag(hit=results is not None)
                    if results is not None:
                        counters.incremental_hits += 1
                        counters.note_window(name, hit=True)
                        self._m_incr_hits.inc()
                    else:
                        counters.incremental_fallbacks += 1
                        counters.note_window(name, hit=False)
                        self._m_incr_fallbacks.inc()
                if results is None:
                    scanning.append((name, window, router_key, aggregator))
                else:
                    for slot, value in results.items():
                        aggregate_values[slot] = value
            if aggregator is not None:
                preagg_started = perf_counter() \
                    if router is not None else 0.0
                merges_before = counters.preagg_bucket_merges
                raw_before = counters.preagg_raw_rows
                with tracer.span("preagg.lookup", window=name) as span:
                    self._preagg_values(compiled, window, aggregator,
                                        validated, aggregate_values,
                                        counters)
                    span.set_tag(
                        bucket_merges=(counters.preagg_bucket_merges
                                       - merges_before),
                        raw_rows=counters.preagg_raw_rows - raw_before)
                self._m_preagg_merges.inc(
                    counters.preagg_bucket_merges - merges_before)
                self._m_preagg_raw.inc(counters.preagg_raw_rows - raw_before)
                if router is not None:
                    router.observe_preagg(
                        name,
                        (perf_counter() - preagg_started) * 1_000.0)
        if scanning:
            self._scan_windows(compiled, scanning, validated, counters,
                               shared_fetch, aggregate_values, router,
                               deadline, tracer)
        extended = combined_tuple + tuple(aggregate_values)
        with tracer.span("encode"):
            projected = compiled.project(extended)
        self._m_join_lookups.inc(len(compiled.joins))
        self.stats.apply(counters)
        if router is not None:
            router.after_request()
        return projected

    # ------------------------------------------------------------------
    # joins

    def _resolve_join(self, join: CompiledJoin, combined: List[Any],
                      counters: _RequestCounters) -> Optional[Row]:
        table = self._tables[join.plan.right_table]
        key_value = join.key_fn(tuple(combined))
        counters.join_lookups += 1
        if join.residual_fn is None:
            hit = table.last_join_lookup(join.key_columns, key_value)
            return hit[1] if hit is not None else None
        # Residual condition: walk candidates newest-first until one passes.
        index = table.find_index(join.key_columns)
        candidates = table.window_scan(join.key_columns, index.ts_column,
                                       key_value)
        for _ts, candidate in candidates:
            probe = list(combined)
            probe[join.start_slot:
                  join.start_slot + join.right_width] = candidate
            counters.rows_scanned += 1
            if join.residual_fn(tuple(probe)) is True:
                return candidate
        return None

    # ------------------------------------------------------------------
    # windows

    def _fold_window(self, window: CompiledWindow,
                     blocks: List[List[Row]]) -> Dict[int, Any]:
        if self._fused_fold:
            return window.compute_blocks(blocks)
        rows = [row for block in blocks for row in block]
        return window.compute_naive(rows)

    def _scan_windows(self, compiled: CompiledQuery,
                      scanning: List[_ScanWork], request_row: Row,
                      counters: _RequestCounters,
                      shared: Optional[Dict[Any, Any]],
                      values: List[Any], router: Optional[Any],
                      deadline: Optional[Any],
                      tracer: Optional[Any] = None) -> None:
        """Answer the request's scan-tier windows, one fetch per group.

        ``scanning`` holds the windows whose tier is already settled as
        a scan.  Each scan group is fetched once, to the loosest bound
        among *these* members — a sibling answered by incremental state
        or pre-aggregation never widens the fetch — and each member cuts
        its own prefix of the newest-first rows: by count for ROWS, by
        a bisect over the rows' timestamps for ROWS_RANGE.  MAXSIZE and
        EXCLUDE CURRENT_ROW then apply per window.  The naive
        ``block_scan=False`` path keeps one fetch per window, so it
        stays an independent oracle.  ``tracer`` (traced body only)
        adds the ``window.scan``/``agg.fold`` spans and scan metrics.
        """
        groups = compiled.scan_groups if self._block_scan else None
        bounds: Dict[str, Optional[int]] = {}
        for name, window, _key, _slots in scanning:
            group = groups[name] if groups is not None else name
            span = _frame_span(window.plan)
            loosest = bounds.get(group, -1)
            if loosest is not None and (span is None or span > loosest):
                bounds[group] = span
        fetched: Dict[str, Tuple[int, List[List[Row]],
                                 Optional[List[int]], float]] = {}
        for name, window, router_key, aggregator in scanning:
            plan = window.plan
            group = groups[name] if groups is not None else name
            bound = bounds[group]
            started = perf_counter() if router is not None else 0.0
            entry = fetched.get(group)
            reused = entry is not None
            if entry is None:
                if deadline is not None:
                    deadline.check("request")
                # A range group with siblings keeps the rows' timestamps
                # so a narrower member can bisect its cut.
                keep_ts = groups is not None and plan.is_range_frame \
                    and len(compiled.group_members[group]) > 1
                if tracer is None:
                    anchor_ts, stored, neg_ts = self._fetch_group(
                        compiled, window, request_row, counters, shared,
                        group, bound, keep_ts)
                else:
                    scanned_before = counters.rows_scanned
                    blocks_before = counters.scan_blocks
                    with tracer.span("window.scan",
                                     window=name) as scan_span:
                        anchor_ts, stored, neg_ts = self._fetch_group(
                            compiled, window, request_row, counters, shared,
                            group, bound, keep_ts)
                        scan_span.set_tag(rows=sum(len(block)
                                                   for block in stored))
                    self._m_rows_scanned.inc(
                        counters.rows_scanned - scanned_before)
                    self._m_scan_blocks.inc(
                        counters.scan_blocks - blocks_before)
                fetch_ms = (perf_counter() - started) * 1_000.0 \
                    if router is not None else 0.0
                entry = fetched[group] = (anchor_ts, stored, neg_ts, fetch_ms)
            anchor_ts, stored, neg_ts, fetch_ms = entry
            span = _frame_span(plan)
            if span != bound:  # a narrower member cuts its prefix
                if plan.is_range_frame:
                    # Rows with ts >= anchor - span, i.e. -ts <= span - anchor.
                    span = bisect_right(neg_ts, span - anchor_ts)
                stored = _cap_blocks(stored, span)
            blocks = stored if plan.exclude_current_row \
                else [[request_row]] + stored
            if plan.maxsize is not None:
                blocks = _cap_blocks(blocks, plan.maxsize)
            if tracer is None:
                results = self._fold_window(window, blocks)
            else:
                with tracer.span("agg.fold", window=name,
                                 rows=sum(len(block) for block in blocks)):
                    results = self._fold_window(window, blocks)
            if router is not None:
                # Charged as if the window scanned alone: a sibling that
                # reuses the group's fetch pays its fetch time and counts
                # the blocks it folded.
                elapsed = (perf_counter() - started) * 1_000.0
                router.observe_scan(
                    name, router_key,
                    elapsed + fetch_ms if reused else elapsed, len(stored))
            preagg_slots = aggregator.slots if aggregator is not None else ()
            for slot, value in results.items():
                if slot not in preagg_slots:
                    values[slot] = value

    def _fetch_group(self, compiled: CompiledQuery, window: CompiledWindow,
                     request_row: Row, counters: _RequestCounters,
                     shared: Optional[Dict[Any, Any]], group: str,
                     bound: Optional[int], keep_ts: bool
                     ) -> Tuple[int, List[List[Row]], Optional[List[int]]]:
        """Fetch one scan group's stored rows to ``bound``.

        ``bound`` is the loosest scanning member's frame span (see
        :func:`_frame_span`).  Returns the anchor timestamp, the
        newest-first stored row blocks (the request row is not among
        them) and, with ``keep_ts``, the rows' negated timestamps.

        With ``shared`` (one dict per micro-batch), a fetch is cached
        under ``(group, partition key, anchor ts, bound)`` and reused by
        later requests in the batch that resolve to the identical fetch
        — never by one that needs a wider bound.  The request row is
        added per request, so requests sharing a key/timestamp but
        carrying different payloads stay correct.
        """
        plan = window.plan
        key = window.partition_key(request_row)
        anchor_ts = normalize_ts(window.order_value(request_row))
        cache_key = (group, key, anchor_ts, bound) \
            if shared is not None else None
        fetch = shared.get(cache_key) if cache_key is not None else None
        if fetch is None:
            # INSTANCE_NOT_IN_WINDOW: stored instance-table rows never
            # enter the window — only union-table rows (the request row
            # itself still participates unless EXCLUDE CURRENT_ROW).
            sources = [] if plan.instance_not_in_window \
                else [self._tables[compiled.plan.table]]
            sources.extend(self._tables[union_table]
                           for union_table in plan.union_tables)
            end_ts, limit = (anchor_ts - bound, None) \
                if plan.is_range_frame else (None, bound)
            fetch = self._fetch_stored_blocks(
                sources, plan, key, anchor_ts, end_ts, limit, keep_ts)
            counters.rows_scanned += sum(len(block) for block in fetch[0])
            counters.scan_blocks += len(fetch[0])
            if cache_key is not None:
                shared[cache_key] = fetch
        else:
            counters.shared_scan_hits += 1
            self._m_shared_scans.inc()
        return anchor_ts, fetch[0], fetch[1]

    def _fetch_stored_blocks(self, sources: List[Any], plan: Any, key: Any,
                             anchor_ts: int, end_ts: Optional[int],
                             limit: Optional[int], keep_ts: bool
                             ) -> Tuple[List[List[Row]], Optional[List[int]]]:
        """Scan the window's sources into newest-first row blocks.

        Returns the blocks and, with ``keep_ts``, the rows' negated
        timestamps in the same order (ascending, ready to bisect).  No
        source is asked for more than ``limit`` rows, since none can
        contribute more.  Single-source windows stream the storage
        layer's blocks through unchanged; unions merge with one stable
        sort (:func:`_merge_blocks_newest_first`).  Storage objects
        without the chunked API degrade to the per-row iterator path.
        """
        if limit is not None and limit <= 0:
            # e.g. ROWS BETWEEN 0 PRECEDING: only the request row
            return [], [] if keep_ts else None
        if self._block_scan:
            block_scans = [getattr(source, "window_scan_blocks", None)
                           for source in sources]
            if all(scan is not None for scan in block_scans):
                scans = [scan(plan.partition_columns, plan.order_column,
                              key, start_ts=anchor_ts, end_ts=end_ts,
                              limit=limit)
                         for scan in block_scans]
                if len(scans) == 1:
                    return _split_pairs(list(scans[0]), keep_ts)
                merged = _merge_blocks_newest_first(scans, limit)
                return _split_pairs([merged] if merged else [], keep_ts)
        iterators = [
            source.window_scan(plan.partition_columns, plan.order_column,
                               key, start_ts=anchor_ts, end_ts=end_ts,
                               limit=limit)
            for source in sources
        ]
        merged = _merge_newest_first(iterators, limit=limit)
        return _split_pairs([merged] if merged else [], keep_ts)

    # ------------------------------------------------------------------
    # pre-aggregation path

    def _preagg_values(self, compiled: CompiledQuery,
                       window: CompiledWindow, aggregator: PreAggregator,
                       request_row: Row, values: List[Any],
                       counters: _RequestCounters) -> None:
        """Answer a long window's pre-aggregated slots into ``values``.

        One query refinement and one scan of each raw edge serve every
        aggregate of the window: the pieces are state vectors, so each
        aggregate still merges in the order head (oldest raw edge),
        buckets oldest→newest, tail (newest raw edge, includes the open
        bucket), then the request row.
        """
        plan = window.plan
        if not plan.is_range_frame:
            raise ExecutionError(
                "long-window pre-aggregation requires a ROWS_RANGE frame")
        key = window.partition_key(request_row)
        anchor_ts = normalize_ts(window.order_value(request_row))
        lo = anchor_ts - plan.range_preceding_ms
        refined = aggregator.query(key, lo, anchor_ts)
        counters.preagg_bucket_merges += sum(
            refined.buckets_used.values())

        partials = aggregator.partials
        merged = self._raw_span_states(compiled, window, aggregator, key,
                                       refined.head_span, counters)
        for piece in (refined.state,
                      self._raw_span_states(compiled, window, aggregator,
                                            key, refined.tail_span,
                                            counters)):
            if piece is not None:
                merged = piece if merged is None \
                    else partials.merge(merged, piece)
        # The request tuple itself is part of the window.
        if not plan.exclude_current_row:
            request_states = partials.init()
            partials.accumulate_row(request_states, request_row)
            merged = request_states if merged is None \
                else partials.merge(merged, request_states)
        if merged is None:
            merged = partials.init()
        for slot, value in zip(aggregator.slots, partials.finalize(merged)):
            values[slot] = value

    def _raw_span_states(self, compiled: CompiledQuery,
                         window: CompiledWindow, aggregator: PreAggregator,
                         key: Any, span: Optional[Tuple[int, int]],
                         counters: _RequestCounters) -> Optional[List[Any]]:
        """Fold one raw edge span, oldest → newest, into a state vector;
        None when the span is absent or holds no row."""
        if span is None:
            return None
        plan = window.plan
        table = self._tables[compiled.plan.table]
        scan_blocks = getattr(table, "window_scan_blocks", None) \
            if self._block_scan else None
        if scan_blocks is not None:
            blocks = list(scan_blocks(plan.partition_columns,
                                      plan.order_column, key,
                                      start_ts=span[1], end_ts=span[0]))
            pairs = [pair for block in reversed(blocks)
                     for pair in reversed(block)]
        else:
            pairs = list(table.window_scan(plan.partition_columns,
                                           plan.order_column, key,
                                           start_ts=span[1], end_ts=span[0]))
            pairs.reverse()
        counters.preagg_raw_rows += len(pairs)
        if not pairs:
            return None
        partials = aggregator.partials
        states = partials.init()
        for _ts, row in pairs:
            partials.accumulate_row(states, row)
        return states


def _cap_blocks(blocks: List[List[Row]], maxsize: int) -> List[List[Row]]:
    """Truncate a block list to at most ``maxsize`` total rows."""
    capped: List[List[Row]] = []
    remaining = maxsize
    for block in blocks:
        if remaining <= 0:
            break
        if len(block) <= remaining:
            capped.append(block)
            remaining -= len(block)
        else:
            capped.append(block[:remaining])
            remaining = 0
    return capped


def _merge_newest_first(iterators: List[Iterator[Tuple[int, Row]]],
                        limit: Optional[int]) -> List[Tuple[int, Row]]:
    """k-way merge of newest-first (ts, row) streams, optionally capped."""
    if limit is not None and limit <= 0:
        return []  # e.g. ROWS BETWEEN 0 PRECEDING: only the request row
    heads: List[Optional[Tuple[int, Row]]] = [
        next(iterator, None) for iterator in iterators]
    merged: List[Tuple[int, Row]] = []
    while True:
        best_slot = -1
        best_ts: Optional[int] = None
        for slot, head in enumerate(heads):
            if head is not None and (best_ts is None or head[0] > best_ts):
                best_ts = head[0]
                best_slot = slot
        if best_slot < 0:
            return merged
        merged.append(heads[best_slot])  # type: ignore[arg-type]
        if limit is not None and len(merged) >= limit:
            return merged
        heads[best_slot] = next(iterators[best_slot], None)


def _merge_blocks_newest_first(
        block_iterators: List[Iterator[List[Tuple[int, Row]]]],
        limit: Optional[int]) -> List[Tuple[int, Row]]:
    """Merge newest-first *block* streams into one ``(ts, row)`` list.

    The sources' pairs are concatenated in source order and sorted by
    timestamp with one stable C-level sort, so equal timestamps keep
    source order (the primary table leads) and each source's own order,
    matching :func:`_merge_newest_first`.
    """
    pairs: List[Tuple[int, Row]] = []
    for blocks in block_iterators:
        for block in blocks:
            pairs += block
    pairs.sort(key=_TS, reverse=True)
    if limit is not None:
        del pairs[limit:]
    return pairs


def _split_pairs(pair_blocks: List[List[Tuple[int, Row]]], keep_ts: bool
                 ) -> Tuple[List[List[Row]], Optional[List[int]]]:
    """Strip ``(ts, row)`` blocks to row blocks, optionally keeping the
    negated timestamps (ascending for newest-first rows)."""
    rows = [list(map(_ROW, block)) for block in pair_blocks]
    if not keep_ts:
        return rows, None
    return rows, [-pair[0] for block in pair_blocks for pair in block]


def _frame_span(plan: Any) -> Optional[int]:
    """A frame's fetch bound: stored rows for ROWS (the request row is
    not stored), lookback ms for ROWS_RANGE, ``None`` when unbounded."""
    if plan.is_range_frame:
        return plan.range_preceding_ms
    if plan.rows_preceding is not None:
        return plan.rows_preceding - 1
    return None
