"""Mergeable partial-aggregate state machines (paper Section 6).

The offline engine splits a window computation into ``(key, PART_ID)``
tasks that may run in other *processes*.  For that to be more than
task-level pipelining, aggregates must be expressible as an explicit
map-reduce: each task folds its own rows into a **partial state**, and
partials combine with an associative ``merge`` — larsql's
parallel-safety analysis (SNIPPETS Snippet 1) calls this the post-merge
that makes naive query splitting correct again.

Every registered aggregate is therefore viewed through one of two
adapters, both exposing the same four-step machine:

``init() → accumulate(state, *values) → merge(older, newer) →
finalize(state)``

* :class:`FunctionPartial` delegates to an
  :class:`~repro.sql.functions.AggregateFunction` that is already
  ``mergeable`` (sum / count / avg / min / max / distinct / top-k /
  variance / drawdown families — the invertible state classes the
  online incremental layer maintains).
* Wrapper partials cover the order-sensitive stragglers that have no
  ``merge`` on the function itself: :class:`EwAvgPartial` widens the
  state with a row count so a segment can be decayed under a later one,
  and :class:`LagPartial` keeps only the reachable tail so segments
  concatenate.  The lint rule AGG001 (``tools/lint.py``) enforces that
  every registered aggregate has one of the two routes.

``exact_merge`` declares whether ``merge`` is *op-for-op* identical to
continuing a serial fold — the property the engine needs before it may
substitute carried partials for replayed rows and still produce
byte-identical output.  ``ew_avg`` merges via ``decay ** n``, which is
mathematically equal but associates float rounding differently, so it
reports ``exact_merge = False`` and the engine falls back to expanded
rows for windows containing it.

:class:`WindowKernel` at the bottom is the shared fold: the same code
object runs inside the engine (serial/thread modes) and inside pool
worker processes, which is what makes the three modes byte-identical.
"""

from __future__ import annotations

import pickle
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..errors import ExecutionError
from ..sql.functions import (AggregateFunction, get_aggregate,
                             is_aggregate)

__all__ = ["PartialAggregate", "FunctionPartial", "EwAvgPartial",
           "LagPartial", "make_partial", "has_partial",
           "WindowPartialState", "WindowKernel", "TaskEvent"]


# One task event: (ts, row, anchor_index or None).  anchor_index is the
# primary-row position for instance rows, None for context-only rows
# (WINDOW UNION contributions and skew-expanded copies carry emit=False
# separately, in the parallel emit_flags sequence).
TaskEvent = Tuple[int, Tuple[Any, ...], Optional[int]]


class PartialAggregate:
    """(init, accumulate, merge, finalize) view of one aggregate."""

    #: ``merge`` reproduces the exact operation sequence of a serial
    #: fold (on exact inputs) — required for carried partials to keep
    #: byte-identity with the serial engine.
    exact_merge: bool = True

    name: str = ""

    def init(self) -> Any:
        raise NotImplementedError

    def accumulate(self, state: Any, *values: Any) -> None:
        raise NotImplementedError

    def merge(self, older: Any, newer: Any) -> Any:
        """Combine two partials; ``older``'s rows precede ``newer``'s."""
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        """Extract the aggregate value; must not mutate ``state``."""
        raise NotImplementedError


class FunctionPartial(PartialAggregate):
    """Delegate to a ``mergeable`` :class:`AggregateFunction`."""

    def __init__(self, function: AggregateFunction) -> None:
        if not function.mergeable:
            raise ExecutionError(
                f"{function.name} has no merge; use a wrapper partial")
        self._function = function
        self.name = function.name
        # drawdown's merge, for one, is algebraically sound for
        # pre-aggregation but not an exact fold continuation.
        self.exact_merge = bool(getattr(function, "merge_exact", True))
        # The four steps are the function's own bound methods: the
        # online pre-aggregation path runs them per bucket merge and
        # per raw row, where a delegating frame would show.
        self.init = function.create
        self.accumulate = function.add
        self.merge = function.merge
        self.finalize = function.result


class EwAvgPartial(PartialAggregate):
    """``ew_avg`` partial: ``[weighted_sum, weight_sum, rows]``.

    ``accumulate`` mirrors :class:`~repro.sql.functions.EwAvgAgg.add`
    exactly (same decay-then-add float ops), widened with a row count
    so a *segment* knows how much an earlier segment must be decayed:
    ``merge`` scales the older partial by ``decay ** newer.rows``.  The
    power associates rounding differently from n successive multiplies,
    so this partial is mathematically exact but not bit-exact —
    ``exact_merge = False`` keeps it off the carry path.
    """

    exact_merge = False
    name = "ew_avg"

    def __init__(self, function: AggregateFunction) -> None:
        self._decay = function._decay  # validated by EwAvgAgg.__init__

    def init(self) -> Any:
        return [0.0, 0.0, 0]

    def accumulate(self, state: Any, value: Any) -> None:
        if value is None:
            return
        state[0] = state[0] * self._decay + value
        state[1] = state[1] * self._decay + 1.0
        state[2] += 1

    def merge(self, older: Any, newer: Any) -> Any:
        scale = self._decay ** newer[2]
        return [older[0] * scale + newer[0],
                older[1] * scale + newer[1],
                older[2] + newer[2]]

    def finalize(self, state: Any) -> Any:
        if state[1] == 0.0:
            return None
        return state[0] / state[1]


class LagPartial(PartialAggregate):
    """``lag(col, n)`` partial: the last ``n + 1`` values seen.

    Only the newest ``offset + 1`` values can ever be the answer, so a
    segment is its own reachable tail and ``merge`` is concatenation
    re-capped — exact by construction.
    """

    name = "lag"

    def __init__(self, function: AggregateFunction) -> None:
        self._offset = int(function.constants[0])
        self._cap = max(self._offset + 1, 1)

    def init(self) -> Any:
        return []

    def accumulate(self, state: Any, value: Any) -> None:
        state.append(value)
        if len(state) > self._cap * 2:
            del state[:-self._cap]

    def merge(self, older: Any, newer: Any) -> Any:
        return (list(older) + list(newer))[-self._cap:]

    def finalize(self, state: Any) -> Any:
        if self._offset < 0 or self._offset >= len(state):
            return None
        return state[len(state) - 1 - self._offset]


#: Aggregates whose merge route is a wrapper partial rather than the
#: function's own ``merge``.  tools/lint.py (rule AGG001) reads these
#: names to know which merge-less aggregate classes are covered.
_PARTIAL_WRAPPERS: Dict[str, type] = {
    "ew_avg": EwAvgPartial,
    "lag": LagPartial,
}


def make_partial(name: str, *constants: Any) -> PartialAggregate:
    """Build the partial-state machine for one registered aggregate."""
    function = get_aggregate(name, *constants)
    wrapper = _PARTIAL_WRAPPERS.get(name)
    if wrapper is not None:
        return wrapper(function)
    return FunctionPartial(function)


def has_partial(name: str) -> bool:
    """True when ``name`` resolves to *some* partial machine."""
    if not is_aggregate(name):
        return False
    if name in _PARTIAL_WRAPPERS:
        return True
    # Probe mergeability off the class, not an instance (constants vary).
    from ..sql.functions import _AGGREGATE_CLASSES
    return bool(getattr(_AGGREGATE_CLASSES[name], "mergeable", False))


class WindowPartialState:
    """Vector of partials — one per aggregate of a window.

    The engine's carry path threads these through ``(key, PART_ID)``
    tasks: each task folds its own rows into a segment, segments
    prefix-merge into the *carry* seeding the next partition, replacing
    the skew resolver's expanded-row replay for unbounded frames.
    """

    def __init__(self, functions: Sequence[Tuple[str, Tuple[Any, ...]]],
                 extractors: Sequence[Callable[[Any], Tuple[Any, ...]]]
                 ) -> None:
        self._partials = [make_partial(name, *constants)
                          for name, constants in functions]
        self._extractors = list(extractors)
        # Bound once: the online pre-aggregation path accumulates per
        # raw row and merges per bucket.
        self._accumulates = [partial.accumulate
                             for partial in self._partials]
        self._steps = list(zip(self._accumulates, self._extractors))
        self._merges = [partial.merge for partial in self._partials]

    @property
    def exact(self) -> bool:
        """All merges are bit-exact continuations of a serial fold."""
        return all(partial.exact_merge for partial in self._partials)

    def init(self) -> List[Any]:
        return [partial.init() for partial in self._partials]

    def accumulate_row(self, states: List[Any], row: Any) -> None:
        for state, (accumulate, extract) in zip(states, self._steps):
            accumulate(state, *extract(row))

    def extract(self, row: Any) -> List[Tuple[Any, ...]]:
        """Every aggregate's argument tuple for one row."""
        return [extract(row) for extract in self._extractors]

    def accumulate_args(self, states: List[Any],
                        args: List[Tuple[Any, ...]]) -> None:
        """:meth:`accumulate_row` on arguments :meth:`extract` already
        pulled — one extraction can feed several state vectors."""
        for state, accumulate, values in zip(states, self._accumulates,
                                             args):
            accumulate(state, *values)

    def merge(self, older: List[Any], newer: List[Any]) -> List[Any]:
        return [merge(old, new)
                for merge, old, new in zip(self._merges, older, newer)]

    def finalize(self, states: List[Any]) -> List[Any]:
        return [partial.finalize(state)
                for partial, state in zip(self._partials, states)]

    @staticmethod
    def copy_states(states: List[Any]) -> List[Any]:
        """Deep-copy a state vector (seeding must not alias the carry)."""
        return pickle.loads(pickle.dumps(states))


class WindowKernel:
    """The per-window fold shared by every execution mode.

    Wraps a :class:`~repro.sql.compiler.CompiledWindow` with the frame
    arithmetic the engine previously kept inline, exposing three entry
    points:

    * :meth:`fold` — replay events through a
      :class:`~repro.online.incremental.SlidingWindowAggregator`
      (the serial/thread path and the worker "fold" task);
    * :meth:`segment_states` — map phase of the carry path: fold a
      partition's rows into mergeable partials;
    * :meth:`seeded_fold` — reduce phase: continue the fold from a
      carried state vector, emitting per-anchor values.

    Pool workers rebuild the kernel from a pickled
    :class:`~repro.sql.planner.WindowPlan` and run *this same code*,
    which is what makes process output byte-identical to serial.
    """

    def __init__(self, window: Any) -> None:
        plan = window.plan
        self.window = window
        self.functions = [(agg.binding.func_name, agg.binding.constants)
                          for agg in window.aggregates]
        self.extractors = [agg.arg_fn for agg in window.aggregates]
        self.slots = [agg.slot for agg in window.aggregates]
        self.include_current = not (plan.exclude_current_row
                                    or plan.instance_not_in_window)
        max_rows = plan.rows_preceding
        if max_rows is not None and not self.include_current:
            max_rows = max(max_rows - 1, 0)
        if plan.maxsize is not None:
            max_rows = (plan.maxsize if max_rows is None
                        else min(max_rows, plan.maxsize))
        self.max_rows = max_rows
        self.range_ms = plan.range_preceding_ms
        self.exclude_current_row = plan.exclude_current_row
        self.instance_not_in_window = plan.instance_not_in_window
        #: Frame never evicts → a partition's final fold state equals
        #: the serial prefix state, the precondition for carrying
        #: partials instead of replaying expanded rows.
        self.unbounded = (self.range_ms is None and self.max_rows is None
                          and not plan.instance_not_in_window)
        self._partials: Optional[WindowPartialState] = None
        self._partials_built = False

    # -- carry-path support -------------------------------------------

    @property
    def partials(self) -> Optional[WindowPartialState]:
        """The window's partial machines, or None if any are missing."""
        if not self._partials_built:
            self._partials_built = True
            if all(has_partial(name) for name, _c in self.functions):
                self._partials = WindowPartialState(self.functions,
                                                    self.extractors)
        return self._partials

    @property
    def carry_eligible(self) -> bool:
        """May carried partials replace expanded-row replay?"""
        partials = self.partials
        return (self.unbounded and partials is not None
                and partials.exact)

    # -- entry points --------------------------------------------------

    def fold(self, events: Sequence[TaskEvent],
             emit_flags: Sequence[bool]
             ) -> List[Tuple[int, List[Any]]]:
        """Slide one (key[, PART_ID]) group through the window frame."""
        from ..online.incremental import SlidingWindowAggregator

        aggregator = SlidingWindowAggregator(
            self.functions, self.extractors,
            range_ms=self.range_ms, max_rows=self.max_rows,
            stream_ordered=not self.instance_not_in_window)
        emits: List[Tuple[int, List[Any]]] = []
        include_current = self.include_current
        for (ts, row, anchor_index), emit in zip(events, emit_flags):
            if anchor_index is None:
                aggregator.insert(ts, row)
                continue
            if include_current:
                aggregator.insert(ts, row)
                if emit:
                    emits.append((anchor_index, aggregator.results()))
            elif self.instance_not_in_window:
                # Instance rows never enter the window; the anchor
                # participates transiently unless also excluded.
                aggregator.evict_to(ts)
                if emit:
                    values = (aggregator.results()
                              if self.exclude_current_row
                              else aggregator.results_with(row))
                    emits.append((anchor_index, values))
            else:
                # EXCLUDE CURRENT_ROW: evaluate the frame anchored at
                # ts before adding the row (it joins later windows).
                aggregator.evict_to(ts)
                if emit:
                    emits.append((anchor_index, aggregator.results()))
                aggregator.insert(ts, row)
        return emits

    def segment_states(self, events: Sequence[TaskEvent]) -> List[Any]:
        """Map phase: fold a partition's rows into a partial vector."""
        partials = self.partials
        if partials is None:
            raise ExecutionError("window has non-mergeable aggregates")
        states = partials.init()
        for _ts, row, _anchor in events:
            partials.accumulate_row(states, row)
        return states

    def seeded_fold(self, events: Sequence[TaskEvent],
                    emit_flags: Sequence[bool], seed: List[Any]
                    ) -> Tuple[List[Tuple[int, List[Any]]], List[Any]]:
        """Reduce phase: continue the fold from carried partials.

        Only valid for unbounded frames (``carry_eligible``); the seed
        stands in for every preceding partition's rows, so accumulate /
        finalize here replays the exact serial operation sequence.
        Returns ``(emits, end_states)`` — the end states *are* the
        carry for the next partition when folding in-process.
        """
        partials = self.partials
        if partials is None:
            raise ExecutionError("window has non-mergeable aggregates")
        states = WindowPartialState.copy_states(seed)
        emits: List[Tuple[int, List[Any]]] = []
        include_current = self.include_current
        for (ts, row, anchor_index), emit in zip(events, emit_flags):
            if anchor_index is None:
                partials.accumulate_row(states, row)
                continue
            if include_current:
                partials.accumulate_row(states, row)
                if emit:
                    emits.append((anchor_index,
                                  partials.finalize(states)))
            else:  # EXCLUDE CURRENT_ROW (instance_not_in_window is
                # never carry-eligible)
                if emit:
                    emits.append((anchor_index,
                                  partials.finalize(states)))
                partials.accumulate_row(states, row)
        return emits, states
