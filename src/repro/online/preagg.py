"""Long-window pre-aggregation (paper Section 5.1).

Window functions over very long intervals (months–years of data, or
hotspot keys) cannot scan raw tuples per request.  OpenMLDB instead keeps
**multi-level aggregators**: per partition key, time is cut into buckets
(e.g. hours), each holding a partial aggregate state; coarser levels
(days, months) merge finer buckets.  A request then:

1. covers the middle of its window with the coarsest buckets that fit
   (query refinement, Figure 4),
2. descends to finer levels at the bucket-misaligned edges,
3. scans only the raw head/tail spans no bucket covers,
4. merges everything in time order.

Aggregator maintenance is **asynchronous**: table inserts append to the
binlog replicator with an ``update_aggr`` closure (Section 5.1), so the
insert fast path never waits on aggregation.  Failure recovery replays
the binlog suffix.

There is one aggregator per long window, not per aggregate: a bucket
holds the window's vector of mergeable partial states, so each row is
absorbed once and each request runs one refinement and one head/tail
scan.  Only *mergeable* aggregates (associative states) join the
vector; the deployment layer leaves the rest on the raw-scan path.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import DeploymentError
from ..obs import NULL_COUNTER, Observability
from ..schema import Row
from ..offline.partial import WindowPartialState
from ..sql.functions import get_aggregate
from .binlog import IngestConsumer
from .segment_tree import SegmentTree

__all__ = ["LongWindowOption", "PreAggregator", "PreAggQueryResult",
           "parse_long_windows"]

_UNIT_MS = {"s": 1_000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}
_DEFAULT_LEVEL_FACTOR = 30


@dataclasses.dataclass(frozen=True)
class LongWindowOption:
    """One entry of ``OPTIONS(long_windows="w1:1d,w2:1h")``."""

    window: str
    bucket_ms: int


def parse_long_windows(option: str) -> Tuple[LongWindowOption, ...]:
    """Parse the ``long_windows`` deployment option string.

    ``"w1:1d,w2:1h"`` → two options with day/hour base buckets.
    """
    parsed: List[LongWindowOption] = []
    for piece in option.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            window, bucket = piece.split(":")
            if not window.strip():
                raise ValueError("empty window name")
            unit = bucket[-1]
            count = int(bucket[:-1])
            unit_ms = _UNIT_MS[unit]
        except (ValueError, KeyError, IndexError):
            raise DeploymentError(
                f"malformed long_windows entry {piece!r}; expected "
                "'<window>:<n><s|m|h|d>'") from None
        if count < 1:
            # A non-positive count would make bucket_ms <= 0, and every
            # downstream floor-division/modulo by bucket size would
            # divide by zero (or walk buckets backwards).
            raise DeploymentError(
                f"long_windows entry {piece!r}: bucket count must be "
                ">= 1")
        parsed.append(LongWindowOption(window=window.strip(),
                                       bucket_ms=count * unit_ms))
    if not parsed:
        raise DeploymentError("long_windows option is empty")
    return tuple(parsed)


@dataclasses.dataclass
class PreAggQueryResult:
    """Outcome of query refinement for one request window.

    ``state`` merges every bucket used — a state vector with one entry
    per pre-aggregated aggregate, or None when no bucket applied;
    ``head_span``/``tail_span`` are the raw ``(lo, hi)`` inclusive spans —
    oldest edge and newest edge respectively — the engine must still scan;
    ``buckets_used`` counts bucket merges per level (observability for the
    ablation benches).
    """

    state: Optional[List[Any]]
    head_span: Optional[Tuple[int, int]]
    tail_span: Optional[Tuple[int, int]]
    buckets_used: Dict[int, int]


class _KeyLevelBuckets:
    """Bucket states for one (key, level): a segment tree over time slots.

    Leaf ``i`` holds the state vector of bucket ``base + i * size``; gaps
    are identity leaves so bucket index arithmetic stays O(1).
    """

    def __init__(self, size_ms: int,
                 merge: Callable[[Any, Any], Any]) -> None:
        self.size_ms = size_ms
        self.base: Optional[int] = None
        self.tree = SegmentTree(merge, identity=None)

    def leaf_for(self, ts: int) -> int:
        """The leaf of the bucket holding ``ts``, growing the tree."""
        bucket_start = (ts // self.size_ms) * self.size_ms
        if self.base is None:
            self.base = bucket_start
        if bucket_start < self.base:
            # A tuple older than everything seen: rebase by rebuilding.
            shift = (self.base - bucket_start) // self.size_ms
            old_states = [self.tree.get(i) for i in range(len(self.tree))]
            self.tree = SegmentTree(self.tree.merge_fn, identity=None)
            for _ in range(shift + len(old_states)):
                self.tree.append(None)
            for index, state in enumerate(old_states):
                self.tree.update(shift + index, state)
            self.base = bucket_start
        leaf = (bucket_start - self.base) // self.size_ms
        while leaf >= len(self.tree):
            self.tree.append(None)
        return leaf

    def query(self, aligned_lo: int, aligned_hi: int) -> Tuple[Any, int]:
        """Merge buckets covering ``[aligned_lo, aligned_hi)``.

        Returns ``(state, bucket_count)``; state is None when the span
        holds no data or lies outside the populated range.
        """
        if self.base is None:
            return None, 0
        lo_leaf = max(0, (aligned_lo - self.base) // self.size_ms)
        hi_leaf = min(len(self.tree),
                      (aligned_hi - self.base) // self.size_ms)
        if lo_leaf >= hi_leaf:
            return None, 0
        return self.tree.query(lo_leaf, hi_leaf), hi_leaf - lo_leaf


class PreAggregator(IngestConsumer):
    """Multi-level pre-aggregation for one long window.

    Every bucket holds the window's vector of mergeable partial states
    (a :class:`~repro.offline.partial.WindowPartialState` vector, one
    entry per pre-aggregated aggregate), so a row is absorbed once and a
    request runs one refinement whatever the number of aggregates.

    Args:
        functions: ``(name, constants)`` per aggregate; all must be
            mergeable.
        extractors: row → argument tuple, one per aggregate.
        key_fn: row → partition key.
        ts_fn: row → timestamp (ms).
        bucket_ms: base-level bucket width.
        levels: number of levels; level *i* buckets are
            ``bucket_ms * factor**i`` wide.
        factor: level widening factor (paper example: hour→day→month).
        slots: the window's aggregate slots the vector answers, in
            order (default ``0 .. len(functions) - 1``).
        window: the window's name (labels the metric series).
    """

    def __init__(self, functions: Sequence[Tuple[str, Tuple[Any, ...]]],
                 extractors: Sequence[Callable[[Row], Tuple[Any, ...]]],
                 key_fn: Callable[[Row], Any],
                 ts_fn: Callable[[Row], int],
                 bucket_ms: int,
                 levels: int = 2,
                 factor: int = _DEFAULT_LEVEL_FACTOR,
                 slots: Optional[Sequence[int]] = None,
                 window: str = "") -> None:
        if not functions or len(functions) != len(extractors):
            raise DeploymentError(
                "a pre-aggregator needs at least one aggregate and one "
                "extractor per aggregate")
        for func_name, constants in functions:
            if not get_aggregate(func_name, *constants).mergeable:
                raise DeploymentError(
                    f"aggregate {func_name!r} is not mergeable and cannot "
                    "use long-window pre-aggregation")
        self.slots: Tuple[int, ...] = tuple(
            range(len(functions)) if slots is None else slots)
        if len(self.slots) != len(functions):
            raise DeploymentError("one slot per pre-aggregated aggregate")
        self.window = window
        self.partials = WindowPartialState(functions, extractors)
        self._key_fn = key_fn
        self._ts_fn = ts_fn
        if bucket_ms <= 0:
            raise DeploymentError("bucket width must be positive")
        self.level_sizes: List[int] = [
            bucket_ms * (factor ** level) for level in range(max(levels, 1))]
        self._buckets: Dict[Tuple[Any, int], _KeyLevelBuckets] = {}
        self._lock = threading.Lock()
        self.rows_absorbed = 0
        self.queries = 0
        self._level_hits: Dict[int, int] = {
            level: 0 for level in range(len(self.level_sizes))}
        self._m_absorbed = NULL_COUNTER
        self._m_queries = NULL_COUNTER
        self._m_bucket_merges = NULL_COUNTER

    def bind_obs(self, obs: Observability) -> None:
        """Attach metric series (called when a deployment owns obs)."""
        metrics = obs.registry.labels(window=self.window)
        self._m_absorbed = metrics.counter("preagg.rows_absorbed")
        self._m_queries = metrics.counter("preagg.queries")
        self._m_bucket_merges = metrics.counter("preagg.bucket_merges")

    @property
    def bucket_ms(self) -> int:
        """Base-level bucket width (the knob the adaptive layer tunes)."""
        return self.level_sizes[0]

    # ------------------------------------------------------------------
    # maintenance (runs on the replicator worker thread)

    def absorb(self, row: Row) -> None:
        """Fold one row into every level's bucket for its key."""
        key = self._key_fn(row)
        ts = self._ts_fn(row)
        partials = self.partials
        args = partials.extract(row)
        with self._lock:
            for level, size in enumerate(self.level_sizes):
                buckets = self._buckets.get((key, level))
                if buckets is None:
                    buckets = _KeyLevelBuckets(size, partials.merge)
                    self._buckets[(key, level)] = buckets
                leaf = buckets.leaf_for(ts)
                tree = buckets.tree
                state = tree.get(leaf)
                if state is None:
                    state = partials.init()
                partials.accumulate_args(state, args)
                tree.update(leaf, state)
            self.rows_absorbed += 1
        self._m_absorbed.inc()

    # ``make_update_closure`` / ``backfill`` come from IngestConsumer; the
    # deploy-time backfill is the "slightly higher data loading overhead"
    # of Figure 11.

    # ------------------------------------------------------------------
    # query refinement

    def query(self, key: Any, lo: int, hi: int) -> PreAggQueryResult:
        """Cover ``[lo, hi]`` (inclusive ts span) with bucket states.

        Implements Figure 4's refinement: coarsest-fitting buckets in the
        middle, finer buckets toward the edges, raw spans at the extremes.
        """
        self.queries += 1
        self._m_queries.inc()
        buckets_used: Dict[int, int] = {}
        with self._lock:
            states, head, tail = self._query_level(
                key, len(self.level_sizes) - 1, lo, hi, buckets_used)
        if buckets_used:
            self._m_bucket_merges.inc(sum(buckets_used.values()))
        merge = self.partials.merge
        state: Optional[List[Any]] = None
        for piece in states:
            if piece is None:
                continue
            state = piece if state is None else merge(state, piece)
        return PreAggQueryResult(state=state, head_span=head,
                                 tail_span=tail, buckets_used=buckets_used)

    def _query_level(self, key: Any, level: int, lo: int, hi: int,
                     buckets_used: Dict[int, int]
                     ) -> Tuple[List[Any], Optional[Tuple[int, int]],
                                Optional[Tuple[int, int]]]:
        """Recursive refinement; returns (states oldest→newest, head, tail)."""
        if lo > hi:
            return [], None, None
        size = self.level_sizes[level]
        aligned_lo = ((lo + size - 1) // size) * size
        aligned_hi = ((hi + 1) // size) * size
        if aligned_lo >= aligned_hi:
            # No full bucket at this level fits; refine or go raw.
            if level == 0:
                return [], (lo, hi), None
            return self._query_level(key, level - 1, lo, hi, buckets_used)
        buckets = self._buckets.get((key, level))
        if buckets is None:
            mid_state, used = None, 0
        else:
            mid_state, used = buckets.query(aligned_lo, aligned_hi)
        if used:
            buckets_used[level] = buckets_used.get(level, 0) + used
            self._level_hits[level] += used
        left_states: List[Any] = []
        head: Optional[Tuple[int, int]] = None
        if lo < aligned_lo:
            if level == 0:
                head = (lo, aligned_lo - 1)
            else:
                left_states, head, left_tail = self._query_level(
                    key, level - 1, lo, aligned_lo - 1, buckets_used)
                if left_tail is not None:
                    # With nested level sizes the left edge ends exactly
                    # on a finer bucket boundary, so a tail can never
                    # appear here; anything else is an internal error.
                    raise AssertionError("non-contiguous refinement")
        right_states: List[Any] = []
        tail: Optional[Tuple[int, int]] = None
        if aligned_hi <= hi:
            if level == 0:
                tail = (aligned_hi, hi)
            else:
                right_states, right_head, tail = self._query_level(
                    key, level - 1, aligned_hi, hi, buckets_used)
                if right_head is not None:
                    # The right edge starts on a bucket boundary at every
                    # finer level, so a "head" from the recursion can only
                    # mean the whole edge was narrower than one fine
                    # bucket — i.e. it is raw tail.
                    if any(state is not None for state in right_states):
                        raise AssertionError("non-contiguous refinement")
                    tail = (right_head[0], (tail or right_head)[1])
                    right_states = []
        states = left_states + [mid_state] + right_states
        return states, head, tail

    # ------------------------------------------------------------------
    # adaptive hierarchy (Section 5.1, "adaptively adjust the hierarchy")

    def level_usage(self) -> Dict[int, int]:
        return dict(self._level_hits)

    def add_coarser_level(self, factor: int = _DEFAULT_LEVEL_FACTOR) -> int:
        """Append a coarser level, backfilled from the finest level.

        Returns the new level index.  Called when query statistics show
        wide windows repeatedly merging many top-level buckets.
        """
        new_size = self.level_sizes[-1] * factor
        new_level = len(self.level_sizes)
        merge = self.partials.merge
        with self._lock:
            self.level_sizes.append(new_size)
            self._level_hits[new_level] = 0
            # Rebuild from level-0 buckets (exact: merge preserves order).
            for (key, level), buckets in list(self._buckets.items()):
                if level != 0 or buckets.base is None:
                    continue
                target = _KeyLevelBuckets(new_size, merge)
                self._buckets[(key, new_level)] = target
                for leaf in range(len(buckets.tree)):
                    piece = buckets.tree.get(leaf)
                    if piece is None:
                        continue
                    target_leaf = target.leaf_for(
                        buckets.base + leaf * buckets.size_ms)
                    existing = target.tree.get(target_leaf)
                    # A lone piece is copied: absorb mutates leaves in
                    # place, and a shared one would count rows twice.
                    target.tree.update(
                        target_leaf,
                        WindowPartialState.copy_states(piece)
                        if existing is None else merge(existing, piece))
        return new_level

    def maybe_adapt(self, min_queries: int = 100,
                    bucket_threshold: int = 64) -> Optional[int]:
        """Add a coarser level when top-level merges stay too wide."""
        top = len(self.level_sizes) - 1
        if self.queries < min_queries:
            return None
        if self._level_hits.get(top, 0) / max(self.queries, 1) \
                > bucket_threshold:
            return self.add_coarser_level()
        return None
