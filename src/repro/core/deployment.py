"""Deployments: compiled feature scripts bound to online serving.

A deployment is the unit the paper's Figure 3 pushes from development to
production: a SELECT compiled once, plus serving options — most notably
``OPTIONS(long_windows="w1:1d")``, which turns on long-window
pre-aggregation (Section 5.1, Figure 11) for the named windows.

Deploying with long windows:

1. verifies the windows exist and use time-range frames;
2. creates one :class:`~repro.online.preagg.PreAggregator` per long
   window, whose buckets hold the vector of the window's *mergeable*
   aggregates' states and which knows the slots it answers
   (non-mergeable aggregates keep the raw-scan path — correctness never
   depends on pre-aggregation);
3. **backfills** each aggregator from existing table data (the paper's
   "slightly higher data loading overhead");
4. registers one ``update_aggr`` binlog closure per aggregator so
   subsequent inserts maintain it asynchronously, one absorb per row.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import DeploymentError
from ..schema import Row
from ..sql import ast
from ..sql.compiler import CompiledQuery
from ..storage.memtable import normalize_ts
from ..online.incremental import IncrementalWindowState
from ..online.preagg import (LongWindowOption, PreAggregator,
                             parse_long_windows)

__all__ = ["Deployment"]


@dataclasses.dataclass
class Deployment:
    """One deployed feature script.

    Attributes:
        name: deployment name (``DEPLOY name ...``).
        sql: original SQL text (for introspection/EXPLAIN).
        compiled: the compiled plan executed per request.
        long_windows: parsed long-window options, empty when disabled.
        preaggs: window name → its PreAggregator; the online engine
            answers the aggregator's slots from pre-aggregation.
        incrementals: canonical window name → ingest-time running window
            state (Section 5.2); the online engine answers whole windows
            from these on warm keys, falling back to scans otherwise.
        backfill_seconds: measured aggregator backfill cost at deploy time.
    """

    name: str
    sql: str
    compiled: CompiledQuery
    long_windows: Tuple[LongWindowOption, ...] = ()
    preaggs: Dict[str, PreAggregator] = dataclasses.field(
        default_factory=dict)
    incrementals: Dict[str, IncrementalWindowState] = dataclasses.field(
        default_factory=dict)
    backfill_seconds: float = 0.0
    #: Set by :meth:`initialize_adaptive`: the execution router picking
    #: tiers and managing incremental/preagg state at runtime.
    router: Optional[Any] = dataclasses.field(default=None, repr=False)
    _tables: Optional[Mapping[str, Any]] = dataclasses.field(
        default=None, repr=False, compare=False)
    _register_updater: Optional[Callable[[str, Callable], None]] = \
        dataclasses.field(default=None, repr=False, compare=False)
    _preagg_levels: int = dataclasses.field(
        default=2, repr=False, compare=False)
    _obs: Optional[Any] = dataclasses.field(
        default=None, repr=False, compare=False)

    @classmethod
    def from_statement(cls, statement: ast.DeployStatement, sql: str,
                       compiled: CompiledQuery) -> "Deployment":
        option = statement.option("long_windows")
        long_windows = parse_long_windows(option) if option else ()
        return cls(name=statement.name, sql=sql, compiled=compiled,
                   long_windows=long_windows)

    # ------------------------------------------------------------------

    def initialize_preagg(
            self, tables: Mapping[str, Any],
            register_updater: Callable[[str, Callable], None],
            levels: int = 2, obs: Optional[Any] = None) -> None:
        """Create, backfill, and wire the deployment's pre-aggregators.

        Args:
            tables: table name → storage object.
            register_updater: callback ``(table_name, update_closure)``
                hooking aggregator maintenance into the binlog pipeline.
            levels: aggregator hierarchy depth (Section 5.1).
            obs: optional observability handle; aggregators record
                absorbed-row / query / bucket-merge counters when set.
        """
        started = time.perf_counter()
        for option in self.long_windows:
            window = self.compiled.windows.get(option.window)
            if window is None:
                raise DeploymentError(
                    f"long_windows references unknown window "
                    f"{option.window!r}")
            plan = window.plan
            if not plan.is_range_frame:
                raise DeploymentError(
                    f"long_windows window {option.window!r} must use a "
                    "ROWS_RANGE frame")
            if plan.union_tables:
                raise DeploymentError(
                    "long-window pre-aggregation over WINDOW UNION is not "
                    "supported; drop the union or the long_windows option")
            if plan.instance_not_in_window:
                raise DeploymentError(
                    "long-window pre-aggregation aggregates instance-table "
                    "rows, which INSTANCE_NOT_IN_WINDOW excludes")
            aggregator = self._build_aggregator(
                option.window, window, option.bucket_ms, levels)
            if aggregator is None:
                continue  # nothing mergeable: the window scans
            if obs is not None and obs.enabled:
                aggregator.bind_obs(obs)
            table_name = self.compiled.plan.table
            aggregator.backfill(list(tables[table_name].rows()))
            register_updater(table_name, aggregator.make_update_closure())
            self.preaggs[option.window] = aggregator
        self.backfill_seconds = time.perf_counter() - started

    @staticmethod
    def _build_aggregator(name: str, window, bucket_ms: int,
                          levels: int) -> Optional[PreAggregator]:
        """One aggregator over the window's mergeable aggregates, or None
        when it has none."""
        from ..sql.functions import get_aggregate

        mergeable = [
            compiled_agg for compiled_agg in window.aggregates
            if get_aggregate(compiled_agg.binding.func_name,
                             *compiled_agg.binding.constants).mergeable]
        if not mergeable:
            return None
        order_position = window.order_position

        def ts_fn(row: Row, position: int = order_position) -> int:
            return normalize_ts(row[position])

        return PreAggregator(
            functions=[(agg.binding.func_name, agg.binding.constants)
                       for agg in mergeable],
            extractors=[agg.arg_fn for agg in mergeable],
            key_fn=window.partition_key, ts_fn=ts_fn, bucket_ms=bucket_ms,
            levels=levels, slots=[agg.slot for agg in mergeable],
            window=name)

    # ------------------------------------------------------------------

    def initialize_incremental(
            self, tables: Mapping[str, Any],
            register_updater: Callable[[str, Callable], None],
            selective: bool = False) -> None:
        """Create, backfill, and wire ingest-time window state.

        Every *eligible* window gets a per-key running aggregate state
        maintained from the binlog (Section 5.2 applied at ingest time):
        no WINDOW UNION, no INSTANCE_NOT_IN_WINDOW, all aggregates
        invertible and order-insensitive, and a primary table whose TTL
        eviction can be mirrored (memory tables).  Windows already
        served by long-window pre-aggregation keep that path.  Anything
        ineligible silently stays on the scan-fold path — incremental
        state is an accelerator, never a semantics change.

        With ``selective=True`` (adaptive deployments) the states start
        *empty* — no deploy-time backfill, no per-key aggregators — and
        the execution router provisions individual keys at runtime when
        their request rate justifies the ingest cost.
        """
        table_name = self.compiled.plan.table
        table = tables.get(table_name)
        if table is None or not hasattr(table, "subscribe_eviction"):
            return
        for name, window in self.compiled.windows.items():
            if not window.aggregates or name in self.preaggs:
                continue
            state = IncrementalWindowState.for_window(
                window, tables, table_name, selective=selective)
            if state is None:
                continue
            if not selective:
                state.backfill(table.rows())
            register_updater(table_name, state.make_update_closure())
            if selective:
                # Seed rows_seen after registration: a racing insert is
                # then covered by the updater or the count, never lost.
                state.mark_caught_up()
            table.subscribe_eviction(state.on_ttl_evict)
            self.incrementals[name] = state

    def initialize_adaptive(
            self, tables: Mapping[str, Any],
            register_updater: Callable[[str, Callable], None],
            governor: Optional[Any] = None, obs: Optional[Any] = None,
            config: Optional[Any] = None,
            preagg_levels: int = 2) -> Any:
        """Wire adaptive execution: selective state + a cost router.

        Call *instead of* :meth:`initialize_incremental`, after
        :meth:`initialize_preagg`.  Builds selective (router-managed)
        incremental states, constructs the
        :class:`~repro.adaptive.ExecutionRouter`, and hands it this
        deployment as its host plus the memory governor as its
        promotion budget.  Returns the router.
        """
        from ..adaptive import ExecutionRouter

        self._tables = tables
        self._register_updater = register_updater
        self._preagg_levels = preagg_levels
        self._obs = obs
        self.initialize_incremental(tables, register_updater,
                                    selective=True)
        router = ExecutionRouter(config=config, obs=obs)
        router.bind_host(self)
        router.bind_governor(governor)
        self.router = router
        return router

    # -- adaptive host hooks (called from ExecutionRouter.tick) --------

    def rebucket_preagg(self, window_name: str, bucket_ms: int) -> bool:
        """Swap a window's pre-aggregator for one with a new width.

        The swap is answer-invariant or refused.  Protocol (the same
        caught-up + double-read discipline as
        :meth:`IncrementalWindowState.provision_key`):

        1. read ``n0 = row_count``; require the current aggregator to
           have absorbed ``>= n0`` rows — which proves every counted
           row's insert (and its closure registration snapshot)
           completed *before* this point, so no pending closure can
           later feed the new aggregator a row the backfill already
           replayed;
        2. backfill a fresh aggregator from a single log snapshot of
           exactly ``n0`` rows;
        3. register the new closure, then re-read ``row_count`` — a row
           landing before registration would have bumped it, so on
           mismatch the new closure is retired and the swap aborts
           (the old aggregator never stopped, nothing was lost);
        4. retire the old closure and publish the new aggregator.

        Returns True when the swap happened; False means "retry a later
        tick" and leaves the old aggregator serving.
        """
        if self._tables is None or self._register_updater is None:
            return False
        old = self.preaggs.get(window_name)
        window = self.compiled.windows.get(window_name)
        if old is None or window is None:
            return False
        if bucket_ms <= 0 or old.bucket_ms == bucket_ms:
            return False
        table = self._tables[self.compiled.plan.table]
        before = table.row_count
        if old.rows_absorbed < before:
            return False  # maintenance lag: the log snapshot could race
        rows = list(table.rows())
        if len(rows) != before:
            return False
        new = self._build_aggregator(window_name, window, bucket_ms,
                                     self._preagg_levels)
        if new is None or new.slots != old.slots:
            return False
        if self._obs is not None and self._obs.enabled:
            new.bind_obs(self._obs)
        new.backfill(rows)
        self._register_updater(self.compiled.plan.table,
                               new.make_update_closure())
        if table.row_count != before:
            # An insert raced the registration: its closure snapshot may
            # predate the new consumer.  Retire it and retry later — the
            # old aggregator never stopped absorbing.
            new.retire()
            return False
        old.retire()
        self.preaggs[window_name] = new
        return True

    def router_snapshot(self) -> Optional[Dict[str, Any]]:
        """The router's calibrated state, for failover/migration."""
        return self.router.state_snapshot() \
            if self.router is not None else None

    def restore_router(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Warm-start this deployment's router from a snapshot."""
        if self.router is not None and snapshot:
            self.router.restore_state(snapshot)

    @property
    def adaptive(self) -> bool:
        return self.router is not None

    def adaptive_stats(self) -> Dict[str, Any]:
        """Router + state summary for operators and the benches."""
        stats: Dict[str, Any] = {}
        if self.router is not None:
            stats.update(self.router.stats())
        stats["tracked_keys"] = {
            name: state.key_count
            for name, state in self.incrementals.items()}
        stats["bucket_ms"] = {
            name: aggregator.bucket_ms
            for name, aggregator in self.preaggs.items()}
        return stats

    @property
    def uses_incremental(self) -> bool:
        return bool(self.incrementals)

    def incremental_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-window ingest-state footprint (keys and buffered rows)."""
        return {
            name: {"keys": state.key_count,
                   "buffered_rows": state.buffered_rows(),
                   "rows_seen": state.rows_seen}
            for name, state in self.incrementals.items()
        }

    @property
    def uses_preagg(self) -> bool:
        return bool(self.preaggs)

    def preagg_stats(self) -> Dict[str, Dict[int, int]]:
        """rows absorbed per (window, slot) — observability for Fig. 11.

        The slots of one window share one aggregator, so they report
        the same count."""
        return {
            window: {slot: aggregator.rows_absorbed
                     for slot in aggregator.slots}
            for window, aggregator in self.preaggs.items()
        }
