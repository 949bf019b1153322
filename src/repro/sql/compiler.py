"""Plan compilation: logical plan → executable closures (Section 4.2).

This is the reproduction of the paper's LLVM/JIT layer.  Three of its
compilation optimisations appear here explicitly:

* **Parsing optimisation** — identical aggregate calls were already merged
  by the planner; windows that read the same partition of the same
  sources form one *scan group* (``CompiledQuery.scan_groups``), whose
  rows the online engine fetches once per request.
* **Cycle binding** — aggregates over the same argument expressions share
  *intermediate state*: ``sum``/``count``/``avg`` over one column fold a
  single ``(total, count)`` accumulator; ``min``/``max``/``distinct_count``
  /``topn_frequency`` over one column share a single multiset.  The
  ``state_groups`` count is exposed so tests and the ablation bench can
  observe the sharing.
* **Compilation cache** — :class:`CompilationCache` keys on the structural
  identity of (statement, schemas); re-deploying the same feature script
  skips compilation entirely (cache hits are counted).

Compiled artefacts are engine-agnostic: the online engine feeds them rows
fetched from skiplist indexes, the offline engine feeds them sorted
partition slices — one compiled plan, two runtimes (the paper's
consistency guarantee).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import Counter
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..errors import CompileError, PlanError
from ..obs import NULL_OBS, Observability
from ..schema import Row, Schema
from . import ast
from .expressions import RowFn, Scope, compile_expr
from .functions import AggregateFunction, get_aggregate
from .planner import (AggregateBinding, JoinPlan, QueryPlan, WindowPlan,
                      build_plan)

__all__ = [
    "CompiledAggregate", "CompiledWindow", "CompiledJoin", "CompiledQuery",
    "CompilationCache", "compile_plan",
]


# ----------------------------------------------------------------------
# cycle binding: shared intermediate states

_SUMCOUNT_FAMILY = ("sum", "count", "avg")
_MULTISET_FAMILY = ("min", "max", "distinct_count", "topn_frequency")


def _sumcount_result(func_name: str, total: Any, count: int) -> Any:
    if func_name == "count":
        return count
    if func_name == "sum":
        return total if count else None
    return total / count if count else None  # avg


def _multiset_result(func_name: str, constants: Tuple[Any, ...],
                     counter: Counter) -> Any:
    if func_name == "min":
        return min(counter) if counter else None
    if func_name == "max":
        return max(counter) if counter else None
    if func_name == "distinct_count":
        return len(counter)
    # topn_frequency
    top_n = int(constants[0])
    ranked = sorted(((str(key), count) for key, count in counter.items()),
                    key=lambda item: (-item[1], item[0]))
    return ",".join(key for key, _count in ranked[:top_n])


class _SumCountState:
    """Shared (total, count) accumulator for the sum/count/avg family."""

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.count += 1

    def results(self, func_name: str, constants: Tuple[Any, ...]) -> Any:
        return _sumcount_result(func_name, self.total, self.count)


class _MultisetState:
    """Shared value-multiset for min/max/distinct_count/topn_frequency."""

    __slots__ = ("counter",)

    def __init__(self) -> None:
        self.counter: Counter = Counter()

    def add(self, value: Any) -> None:
        if value is not None:
            self.counter[value] += 1

    def results(self, func_name: str, constants: Tuple[Any, ...]) -> Any:
        return _multiset_result(func_name, constants, self.counter)


@dataclasses.dataclass
class CompiledAggregate:
    """One aggregate binding with its compiled argument extractor."""

    binding: AggregateBinding
    arg_fn: Callable[[Row], Tuple[Any, ...]]
    # Exactly one of the two execution paths is set:
    shared_group: Optional[int] = None            # cycle-bound family slot
    instance_factory: Optional[Callable[[], AggregateFunction]] = None

    @property
    def slot(self) -> int:
        return self.binding.slot


class CompiledWindow:
    """All aggregates of one window, ready to fold over its rows.

    ``compute`` takes the window rows **newest-first** (the storage
    layer's natural order) and returns ``{slot: value}``.  Internally it
    folds oldest→newest so order-sensitive aggregates see time order.

    Compilation emits one **fused fold kernel** per window: a single
    closure that advances every aggregate's state in one pass over the
    scan.  Order-insensitive families fold column-at-a-time with local
    accumulators (``map`` over each block drives the C-level column
    extractors), so the hot loop carries no per-row method dispatch and
    allocates nothing per row.  Order-sensitive aggregates fold in a
    second, oldest→newest pass within the same kernel.
    """

    def __init__(self, plan: WindowPlan, schema: Schema,
                 scope: Scope) -> None:
        self.plan = plan
        self.partition_positions = tuple(
            schema.position(name) for name in plan.partition_columns)
        self.order_position = schema.position(plan.order_column)
        self._aggregates: List[CompiledAggregate] = []
        self._group_factories: List[Callable[[], Any]] = []
        self._group_arg_fns: List[Callable[[Row], Tuple[Any, ...]]] = []
        self._group_scalar_fns: List[RowFn] = []
        self._group_families: List[str] = []
        self._group_keys: Dict[Tuple[Any, ...], int] = {}
        for binding in plan.aggregates:
            self._aggregates.append(self._compile_binding(binding, scope))
        self._fold = self._build_fold_kernel()

    # -- compilation --------------------------------------------------

    def _compile_binding(self, binding: AggregateBinding,
                         scope: Scope) -> CompiledAggregate:
        arg_fns = [compile_expr(arg, scope) for arg in binding.value_args]
        if len(arg_fns) == 1:
            only = arg_fns[0]
            arg_fn = lambda row: (only(row),)  # noqa: E731
        else:
            arg_fn = lambda row: tuple(fn(row) for fn in arg_fns)  # noqa: E731

        name = binding.func_name
        family: Optional[str] = None
        if len(arg_fns) == 1:
            if name in _SUMCOUNT_FAMILY:
                family = "sumcount"
                factory: Callable[[], Any] = _SumCountState
            elif name in _MULTISET_FAMILY:
                family = "multiset"
                factory = _MultisetState
        if family is not None:
            group_key = (family, binding.value_args)
            group = self._group_keys.get(group_key)
            if group is None:
                group = len(self._group_factories)
                self._group_factories.append(factory)
                self._group_arg_fns.append(arg_fn)
                self._group_scalar_fns.append(arg_fns[0])
                self._group_families.append(family)
                self._group_keys[group_key] = group
            return CompiledAggregate(binding=binding, arg_fn=arg_fn,
                                     shared_group=group)
        constants = binding.constants
        return CompiledAggregate(
            binding=binding, arg_fn=arg_fn,
            instance_factory=lambda: get_aggregate(name, *constants))

    def _build_fold_kernel(
            self) -> Callable[[Sequence[Sequence[Row]]], Dict[int, Any]]:
        """Specialise one fold closure for this window's aggregate mix.

        The classification happens *here*, at compile time; the returned
        kernel only runs tight loops.  Three order-insensitive programs:

        * ``sumcount`` — one (total, count) pair per distinct argument
          expression, shared by sum/count/avg (cycle binding);
        * ``multiset`` — a :class:`Counter` per argument expression, but
          only when distinct_count/topn_frequency need true multiplicity;
        * ``minmax`` — min/max-only groups skip the Counter entirely and
          reduce each block with C-level ``min``/``max``.

        Everything else (order-sensitive, multi-argument) folds through
        the generic :class:`AggregateFunction` protocol, oldest→newest.
        """
        sumcount_programs: List[Tuple[RowFn, Tuple[Tuple[str, int], ...]]] = []
        multiset_programs: List[
            Tuple[RowFn, Tuple[Tuple[str, Tuple[Any, ...], int], ...]]] = []
        minmax_programs: List[Tuple[RowFn, Tuple[Tuple[str, int], ...]]] = []
        for group, family in enumerate(self._group_families):
            members = tuple(compiled for compiled in self._aggregates
                            if compiled.shared_group == group)
            scalar_fn = self._group_scalar_fns[group]
            if family == "sumcount":
                sumcount_programs.append((scalar_fn, tuple(
                    (c.binding.func_name, c.slot) for c in members)))
            elif any(c.binding.func_name in ("distinct_count",
                                             "topn_frequency")
                     for c in members):
                multiset_programs.append((scalar_fn, tuple(
                    (c.binding.func_name, c.binding.constants, c.slot)
                    for c in members)))
            else:
                minmax_programs.append((scalar_fn, tuple(
                    (c.binding.func_name, c.slot) for c in members)))
        generic_programs = tuple(
            (compiled.arg_fn, compiled.instance_factory, compiled.slot)
            for compiled in self._aggregates
            if compiled.instance_factory is not None)
        sumcounts = tuple(sumcount_programs)
        multisets = tuple(multiset_programs)
        minmaxes = tuple(minmax_programs)

        def fold(blocks: Sequence[Sequence[Row]]) -> Dict[int, Any]:
            results: Dict[int, Any] = {}
            # Accumulation runs oldest → newest (blocks arrive newest-
            # first) so float sums and Counter insertion order are
            # bit-identical to the naive fold and the ingest-time
            # incremental state; ``reversed`` on a list block stays a
            # C-level iterator, so ``map`` still drives the loop.
            for scalar_fn, outs in sumcounts:
                total = 0
                count = 0
                for block_index in range(len(blocks) - 1, -1, -1):
                    for value in map(scalar_fn,
                                     reversed(blocks[block_index])):
                        if value is not None:
                            total += value
                            count += 1
                for func_name, slot in outs:
                    results[slot] = _sumcount_result(func_name, total, count)
            for scalar_fn, typed_outs in multisets:
                counter: Counter = Counter()
                update = counter.update
                for block_index in range(len(blocks) - 1, -1, -1):
                    update(value for value in
                           map(scalar_fn, reversed(blocks[block_index]))
                           if value is not None)
                for func_name, constants, slot in typed_outs:
                    results[slot] = _multiset_result(func_name, constants,
                                                     counter)
            for scalar_fn, outs in minmaxes:
                lowest = None
                highest = None
                for block in blocks:
                    values = [value for value in map(scalar_fn, block)
                              if value is not None]
                    if values:
                        block_min = min(values)
                        block_max = max(values)
                        if lowest is None or block_min < lowest:
                            lowest = block_min
                        if highest is None or block_max > highest:
                            highest = block_max
                for func_name, slot in outs:
                    results[slot] = (lowest if func_name == "min"
                                     else highest)
            if generic_programs:
                live = []
                for arg_fn, factory, slot in generic_programs:
                    function = factory()
                    live.append((function.add, function.create(), arg_fn,
                                 function, slot))
                for block_index in range(len(blocks) - 1, -1, -1):
                    block = blocks[block_index]
                    for row_index in range(len(block) - 1, -1, -1):
                        row = block[row_index]
                        for add, state, arg_fn, _function, _slot in live:
                            add(state, *arg_fn(row))
                for _add, state, _arg_fn, function, slot in live:
                    results[slot] = function.result(state)
            return results

        return fold

    @property
    def state_groups(self) -> int:
        """Number of shared accumulators (cycle-binding observability)."""
        return len(self._group_factories)

    @property
    def aggregates(self) -> Tuple[CompiledAggregate, ...]:
        return tuple(self._aggregates)

    # -- execution ----------------------------------------------------

    def partition_key(self, row: Row) -> Any:
        if len(self.partition_positions) == 1:
            return row[self.partition_positions[0]]
        return tuple(row[position] for position in self.partition_positions)

    def order_value(self, row: Row) -> Any:
        return row[self.order_position]

    def compute(self, rows_newest_first: Sequence[Row]) -> Dict[int, Any]:
        """Fold the window's rows and return ``{slot: result}``."""
        return self._fold((rows_newest_first,))

    def compute_blocks(self,
                       blocks_newest_first: Sequence[Sequence[Row]]
                       ) -> Dict[int, Any]:
        """Fold newest-first row *blocks* through the fused kernel.

        This is the hot entry point: the storage layer's block scans feed
        straight in, so the only per-row work left anywhere on the path
        is the kernel's own accumulation loops.
        """
        return self._fold(blocks_newest_first)

    def compute_naive(self, rows_newest_first: Sequence[Row]
                      ) -> Dict[int, Any]:
        """The pre-fusion fold: per-row, per-state method dispatch.

        Kept as the ablation baseline (``benchmarks/
        test_ablation_fused_fold.py``) and as an independent oracle for
        the differential tests — it shares the state classes but not the
        fused kernel's loop structure.
        """
        group_states = [factory() for factory in self._group_factories]
        instances: List[Tuple[CompiledAggregate, AggregateFunction, Any]] = []
        for compiled in self._aggregates:
            if compiled.instance_factory is not None:
                function = compiled.instance_factory()
                instances.append((compiled, function, function.create()))
        group_pairs = list(zip(group_states, self._group_arg_fns))
        for row in reversed(rows_newest_first):  # oldest → newest
            for state, arg_fn in group_pairs:
                state.add(arg_fn(row)[0])
            for compiled, function, state in instances:
                function.add(state, *compiled.arg_fn(row))
        results: Dict[int, Any] = {}
        for compiled in self._aggregates:
            if compiled.shared_group is not None:
                state = group_states[compiled.shared_group]
                results[compiled.slot] = state.results(
                    compiled.binding.func_name, compiled.binding.constants)
        for compiled, function, state in instances:
            results[compiled.slot] = function.result(state)
        return results


@dataclasses.dataclass
class CompiledJoin:
    """A LAST JOIN ready for index lookups.

    ``key_fn`` maps the left row (combined tuple so far) to the right
    table's index key; ``residual_fn`` (if any) filters candidate right
    rows newest-first; ``right_width`` pads with NULLs on a miss.
    """

    plan: JoinPlan
    key_columns: Tuple[str, ...]
    key_fn: Callable[[Row], Any]
    residual_fn: Optional[RowFn]
    order_by: Optional[str]
    right_width: int
    start_slot: int = 0  # first slot of the right table in the combined row


class CompiledQuery:
    """The full compiled artefact shared by both engines."""

    def __init__(self, plan: QueryPlan,
                 catalog: Mapping[str, Schema]) -> None:
        self.plan = plan
        self.catalog = dict(catalog)

        # Window-source scope: the primary table only (window rows carry
        # the FROM table's schema; union tables are positionally mapped).
        window_scope = Scope()
        window_scope.add_namespace(plan.table_alias,
                                   plan.table_schema.column_names)
        if plan.table_alias != plan.table:
            # Allow both alias- and name-qualified references.
            window_scope.add_alias(plan.table, plan.table_alias)

        self.windows: Dict[str, CompiledWindow] = {}
        group_leaders: Dict[Tuple[Any, ...], str] = {}
        #: window name → its scan group (the group's first window).
        self.scan_groups: Dict[str, str] = {}
        #: scan group → member window names, in definition order.
        self.group_members: Dict[str, Tuple[str, ...]] = {}
        for name, window_plan in plan.windows.items():
            # Cycle binding one layer down: windows that read the same
            # partition of the same sources in the same order, bounded by
            # the same kind of frame, form one scan group.  An engine
            # fetches a group's rows once, to the loosest member's
            # bound, and each member cuts its own newest-first prefix.
            signature = (window_plan.partition_columns,
                         window_plan.order_column, window_plan.union_tables,
                         window_plan.instance_not_in_window,
                         window_plan.is_range_frame)
            group = group_leaders.setdefault(signature, name)
            self.scan_groups[name] = group
            self.group_members[group] = \
                self.group_members.get(group, ()) + (name,)
            self.windows[name] = CompiledWindow(
                window_plan, plan.table_schema, window_scope)

        # Combined-row scope: primary columns then each join's columns.
        combined = Scope()
        combined.add_namespace(plan.table_alias,
                               plan.table_schema.column_names)
        if plan.table_alias != plan.table:
            combined.add_alias(plan.table, plan.table_alias)
        self.joins: List[CompiledJoin] = []
        for join_plan in plan.joins:
            right_schema = catalog[join_plan.right_table]
            key_fns = [compile_expr(expr, combined)
                       for expr, _column in join_plan.eq_keys]
            key_columns = tuple(column for _expr, column
                                in join_plan.eq_keys)
            if len(key_fns) == 1:
                only = key_fns[0]
                key_fn: Callable[[Row], Any] = only
            else:
                key_fn = lambda row, fns=tuple(key_fns): tuple(  # noqa: E731
                    fn(row) for fn in fns)
            start_slot = combined.size
            combined.add_namespace(join_plan.right_alias,
                                   right_schema.column_names)
            if join_plan.right_alias != join_plan.right_table:
                combined.add_alias(join_plan.right_table,
                                   join_plan.right_alias)
            residual_fn = (compile_expr(join_plan.residual, combined)
                           if join_plan.residual is not None else None)
            self.joins.append(CompiledJoin(
                plan=join_plan, key_columns=key_columns, key_fn=key_fn,
                residual_fn=residual_fn, order_by=join_plan.order_by,
                right_width=len(right_schema), start_slot=start_slot))
        self.combined_width = combined.size

        # Final projection over the extended row: combined row followed by
        # one slot per aggregate binding.
        aggregate_slots: Dict[ast.FuncCall, int] = {}
        for window in self.windows.values():
            for compiled in window.aggregates:
                aggregate_slots[compiled.binding.call] = (
                    self.combined_width + compiled.slot)
        self.aggregate_count = len(aggregate_slots)
        self.where_fn: Optional[RowFn] = (
            compile_expr(plan.statement.where, combined)
            if plan.statement.where is not None else None)

        self.projections: List[RowFn] = []
        for item in plan.statement.items:
            if isinstance(item.expr, ast.Star):
                self.projections.extend(
                    self._star_slots(item.expr, combined))
            else:
                self.projections.append(
                    compile_expr(item.expr, combined, aggregate_slots))
        self.output_names = plan.output_names
        if len(self.output_names) != len(self.projections):
            raise CompileError("projection/output name arity mismatch")

    def _star_slots(self, star: ast.Star, combined: Scope) -> List[RowFn]:
        if star.table is None:
            qualifiers = [self.plan.table_alias] + [
                join.plan.right_alias for join in self.joins]
        else:
            qualifiers = [self._resolve_star_qualifier(star.table)]
        fns: List[RowFn] = []
        for qualifier in qualifiers:
            for _name, slot in combined.namespace_slots(qualifier):
                fns.append(lambda row, position=slot: row[position])
        return fns

    def _resolve_star_qualifier(self, qualifier: str) -> str:
        if qualifier in (self.plan.table_alias, self.plan.table):
            return self.plan.table_alias
        for join in self.joins:
            if qualifier in (join.plan.right_alias, join.plan.right_table):
                return join.plan.right_alias
        raise PlanError(f"{qualifier}.* references unknown table")

    def project(self, extended_row: Row) -> Row:
        """Apply the final projection to combined row + aggregate slots."""
        return tuple(fn(extended_row) for fn in self.projections)


class CompilationCache:
    """Statement-level compiled-plan cache (the paper's compilation cache).

    Keys are the structural identity of (statement AST, referenced
    schemas); frozen dataclasses make the AST hashable, so re-deploying a
    feature script — the common production event — is a dictionary hit
    instead of a full parse/plan/compile pass.
    """

    def __init__(self, capacity: int = 256,
                 obs: Optional[Observability] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[Any, CompiledQuery] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._obs = obs or NULL_OBS
        self._m_hits = self._obs.registry.counter("sql.compile.cache_hits")
        self._m_misses = self._obs.registry.counter(
            "sql.compile.cache_misses")

    @staticmethod
    def _key(statement: ast.SelectStatement,
             catalog: Mapping[str, Schema]) -> Any:
        referenced = {statement.table}
        referenced.update(join.table for join in statement.joins)
        for window in statement.windows:
            referenced.update(window.union_tables)
        # Unknown tables key as None so the compile step (not the cache)
        # raises the proper PlanError.
        schema_part = tuple(sorted(
            (name, catalog.get(name)) for name in referenced))
        return statement, schema_part

    def get_or_compile(self, statement: ast.SelectStatement,
                       catalog: Mapping[str, Schema]) -> CompiledQuery:
        key = self._key(statement, catalog)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._m_hits.inc()
                return cached
        if self._obs.enabled:
            started = time.perf_counter()
            compiled = compile_plan(build_plan(statement, catalog), catalog)
            self._obs.registry.histogram("sql.compile.ms").observe(
                (time.perf_counter() - started) * 1_000)
        else:
            compiled = compile_plan(build_plan(statement, catalog), catalog)
        with self._lock:
            self.misses += 1
            self._m_misses.inc()
            if len(self._entries) >= self.capacity:
                # FIFO eviction keeps the implementation simple and the
                # common redeploy-immediately pattern hot.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = compiled
        return compiled


def compile_plan(plan: QueryPlan,
                 catalog: Mapping[str, Schema]) -> CompiledQuery:
    """Compile a logical plan against ``catalog``."""
    return CompiledQuery(plan, catalog)
