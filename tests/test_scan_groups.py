"""Differential test — sibling windows that share one scan-group fetch.

Two windows over the same partition of the same sources form one scan
group: the online engine fetches the group's rows once, to the loosest
bound among the members that scan, and each member cuts its own
newest-first prefix (by count for ROWS, by timestamp for ROWS_RANGE)
before MAXSIZE and EXCLUDE CURRENT_ROW apply.

Hypothesis draws each window's frame, MAXSIZE and EXCLUDE CURRENT_ROW
independently, and the pair's sources (none, one or two UNION tables,
with or without INSTANCE_NOT_IN_WINDOW).  Timestamps come from a narrow
range, so equal timestamps across sources are the norm and the
cross-source tie order decides which rows a cut keeps.  ``w0`` holds
only invertible aggregates, so without a union it is served from
ingest-time incremental state while ``w1`` (which adds the
order-sensitive ``lag``) scans alone; its fetch must not be widened to
``w0``'s bound.

Every request is compared byte-identically across:

1. the default path (``request_row``: incremental state where eligible,
   scan groups elsewhere);
2. the fused engine without incremental state;
3. the naive engine (``fused_fold=False, block_scan=False``), which
   keeps one fetch per window;
4. an independent union-aware reference, itself checked against
   ``tests/test_fused_fold.py``'s reference when there is no union.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OpenMLDB
from repro.online.engine import OnlineEngine
from repro.schema import IndexDef, Schema

from .test_fused_fold import _agg
from .test_fused_fold import _reference_features as _fused_fold_features

KEYS = ("u1", "u2")
TABLES = ("t", "s1", "s2")
AGGREGATES = ("sum(a) OVER {w} AS {w}_s, count(b) OVER {w} AS {w}_c, "
              "avg(a) OVER {w} AS {w}_v, min(a) OVER {w} AS {w}_mn, "
              "max(b) OVER {w} AS {w}_mx, "
              "distinct_count(b) OVER {w} AS {w}_dc")


def _window_clause(name, window, unions, instance_not_in_window):
    kind, bound, maxsize, exclude = window
    frame = (f"ROWS_RANGE BETWEEN {bound} PRECEDING AND CURRENT ROW"
             if kind == "range"
             else f"ROWS BETWEEN {bound} PRECEDING AND CURRENT ROW")
    union = f"UNION {','.join(unions)} " if unions else ""
    return (f"{name} AS ({union}PARTITION BY k ORDER BY ts {frame}"
            + ("" if maxsize is None else f" MAXSIZE {maxsize}")
            + (" EXCLUDE CURRENT_ROW" if exclude else "")
            + (" INSTANCE_NOT_IN_WINDOW" if instance_not_in_window else "")
            + ")")


def _feature_sql(windows, unions, instance_not_in_window):
    items = ", ".join([AGGREGATES.format(w="w0"), AGGREGATES.format(w="w1"),
                       "lag(a, 1) OVER w1 AS w1_lag"])
    clauses = ", ".join(
        _window_clause(f"w{index}", window, unions, instance_not_in_window)
        for index, window in enumerate(windows))
    return f"SELECT k, {items} FROM t WINDOW {clauses}"


# ----------------------------------------------------------------------
# independent union-aware reference


def _source_rows(events, table):
    """key → newest-first [(ts, seq, a, b)] of one table, with the
    storage tie order (for equal ts the later arrival comes first)."""
    store = {}
    for seq, (source, key, ts, a, b) in enumerate(events):
        if source == table:
            store.setdefault(key, []).append((ts, seq, a, b))
    for rows in store.values():
        rows.sort(key=lambda r: (-r[0], -r[1]))
    return store


def _reference_window(events, request, window, unions,
                      instance_not_in_window):
    """The window's rows newest-first: sources concatenated in source
    order (primary first) and stably sorted, so equal timestamps keep
    source order, then the frame, the request row and MAXSIZE."""
    kind, bound, maxsize, exclude = window
    key, anchor, req_a, req_b = request
    sources = ([] if instance_not_in_window else ["t"]) + list(unions)
    stored = []
    for table in sources:
        stored.extend(_source_rows(events, table).get(key, ()))
    stored.sort(key=lambda r: -r[0])
    stored = [r for r in stored if r[0] <= anchor]
    if kind == "range":
        stored = [r for r in stored if r[0] >= anchor - bound]
    else:
        stored = stored[:bound]
    rows = ([] if exclude else [(anchor, None, req_a, req_b)]) + stored
    return rows if maxsize is None else rows[:maxsize]


def _reference_features(events, request, windows, unions,
                        instance_not_in_window):
    features = [request[0]]
    for index, window in enumerate(windows):
        rows = _reference_window(events, request, window, unions,
                                 instance_not_in_window)
        a_stats = _agg([r[2] for r in rows])
        b_stats = _agg([r[3] for r in rows])
        features += [a_stats["sum"], b_stats["count"], a_stats["avg"],
                     a_stats["min"], b_stats["max"],
                     b_stats["distinct_count"]]
        if index == 1:
            features.append(rows[1][2] if len(rows) > 1 else None)
    return tuple(features)


def _fused_fold_reference(events, request, window):
    """``tests/test_fused_fold.py``'s single-table reference for one
    window, in this suite's feature order (sum, count, avg, min, max,
    distinct_count)."""
    kind, bound, maxsize, exclude = window
    features = _fused_fold_features(_source_rows(events, "t"), request,
                                    (kind, bound), maxsize, exclude)
    return features[2:]


# ----------------------------------------------------------------------
# scenario strategies

_windows = st.tuples(
    st.sampled_from(("rows", "range")),
    st.integers(0, 60),
    st.one_of(st.none(), st.integers(1, 6)),
    st.booleans())

_shapes = st.one_of(
    st.tuples(st.just(()), st.just(False)),
    st.tuples(st.sampled_from((("s1",), ("s1", "s2"))), st.booleans()))

_events = st.lists(
    st.tuples(st.sampled_from(TABLES), st.sampled_from(KEYS),
              st.integers(0, 8), st.integers(-9, 9),
              st.one_of(st.none(), st.integers(-9, 9))),
    min_size=1, max_size=40)


def _build_db(events, sql):
    db = OpenMLDB()
    schema = Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                                ("a", "int"), ("b", "int")])
    for table in TABLES:
        db.create_table(table, schema, indexes=[IndexDef(("k",), "ts")])
    for source, key, ts, a, b in events:
        db.insert(source, (key, ts, a, b))
    db.deploy("d", sql)
    db.replicator.wait_idle(timeout=5.0)
    return db


def _requests(events):
    stamps = sorted({ts for _s, _k, ts, _a, _b in events})
    anchors = {stamps[-1] + 3, stamps[-1], stamps[len(stamps) // 2]}
    return [(key, anchor, 4, None if anchor % 2 else 7)
            for key in KEYS + ("cold",) for anchor in sorted(anchors)]


def _check_requests(db, naive, fused, events, requests, windows, unions,
                    instance_not_in_window):
    compiled = db.deployments["d"].compiled
    for request in requests:
        expected = _reference_features(events, request, windows, unions,
                                       instance_not_in_window)
        if not unions:
            for index, window in enumerate(windows):
                start = 1 + 6 * index
                assert expected[start:start + 6] == \
                    _fused_fold_reference(events, request, window)
        assert tuple(db.request_row("d", request)) == expected
        assert tuple(fused.execute_request(compiled, request)) == expected
        assert tuple(naive.execute_request(compiled, request)) == expected


@settings(max_examples=100, deadline=None)
@given(events=_events, w0=_windows, w1=_windows, shape=_shapes)
def test_sibling_windows_match_naive_and_reference(events, w0, w1, shape):
    unions, instance_not_in_window = shape
    windows = (w0, w1)
    db = _build_db(events, _feature_sql(windows, unions,
                                        instance_not_in_window))
    try:
        compiled = db.deployments["d"].compiled
        naive = OnlineEngine(db.tables, fused_fold=False, block_scan=False)
        fused = OnlineEngine(db.tables)
        _check_requests(db, naive, fused, events, _requests(events), windows,
                        unions, instance_not_in_window)
        # Each fetch here fits one block.  A grouped pair fetches once
        # per request; the naive path keeps one fetch per window.
        grouped = compiled.scan_groups["w1"] == "w0"
        assert grouped == (w0[0] == w1[0])
        requests = len(_requests(events))
        assert fused.stats.scan_blocks <= requests * (1 if grouped else 2)
        assert fused.stats.rows_scanned <= naive.stats.rows_scanned
    finally:
        db.close()


def test_equal_timestamps_across_sources_keep_source_order():
    # One row per source at ts 5: a ROWS cut of one or two stored rows
    # must keep the primary table's row first, then s1's, then s2's.
    events = [("s2", "u1", 5, 10_000, 1), ("s1", "u1", 5, 100, 1),
              ("t", "u1", 5, 1, 1)]
    windows = (("rows", 1, None, False), ("rows", 2, None, False))
    unions = ("s1", "s2")
    db = _build_db(events, _feature_sql(windows, unions, False))
    try:
        naive = OnlineEngine(db.tables, fused_fold=False, block_scan=False)
        fused = OnlineEngine(db.tables)
        request = ("u1", 6, 4, 7)
        features = tuple(fused.execute_request(
            db.deployments["d"].compiled, request))
        assert features[1] == 4 + 1            # w0: request + t
        assert features[7] == 4 + 1 + 100      # w1: request + t + s1
        assert features[-1] == 1               # lag(a, 1) over w1: t
        _check_requests(db, naive, fused, events, [request], windows,
                        unions, False)
    finally:
        db.close()
