"""Differential test — one pre-aggregator serves a whole long window.

A long window keeps a single bucket store whose state is the vector of
its mergeable aggregates' partial states; a request runs one query
refinement and scans the raw head and tail spans once each, whatever
the number of aggregates.  This suite pins that sharing the vector
changes no answer:

* every slot of a window carrying many mergeable aggregates (sum,
  count, avg, min, max, distinct_count, topn_frequency, drawdown) plus
  one non-mergeable aggregate (ew_avg, which keeps the scan tier) is
  byte-identical (``repr``) to a deployment of that aggregate alone on
  the same window.  drawdown's merge is inexact against a raw fold, so
  the oracle is the one-aggregate deployment, not a raw scan;
* on integer columns, count, sum, min and max also equal the
  deployment without ``long_windows``;
* drawdown over a positive series whose rows arrive in timestamp order
  equals the raw fold too.  It is order-sensitive and its segment merge
  is exact there, so this pins the merge order: head, buckets
  oldest→newest, tail, request row.

Rows arrive out of order over a few keys, half before the deployments
(deploy-time backfill) and half after (binlog absorbs).  Spy tables pin
the work: at most two raw-span scans per request and one absorb per
inserted row, for one aggregate and for five.  A stress case serves
requests while the binlog worker absorbs, then checks the settled
answers.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OpenMLDB
from repro.online.engine import OnlineEngine
from repro.schema import IndexDef, Schema

KEYS = ("u1", "u2", "u3")
SCHEMA = Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                            ("a", "int"), ("b", "int"), ("x", "double"),
                            ("p", "double")])

#: (name, expression); every one but ew_avg is mergeable.
AGGREGATES = (
    ("s", "sum(a)"), ("n", "count(b)"), ("v", "avg(x)"),
    ("mn", "min(a)"), ("mx", "max(b)"), ("dc", "distinct_count(b)"),
    ("top", "topn_frequency(b, 2)"), ("dd", "drawdown(x)"),
    ("ew", "ew_avg(x, 0.5)"),
)
#: Exact on integer columns, so also equal to the raw-scan deployment.
EXACT_ON_INTEGERS = ("s", "n", "mn", "mx")


def _window(range_s, exclude):
    return (f"w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN "
            f"{range_s}s PRECEDING AND CURRENT ROW"
            + (" EXCLUDE CURRENT_ROW" if exclude else "") + ")")


def _sql(aggregates, range_s, exclude):
    items = ", ".join(f"{expr} OVER w AS {name}"
                      for name, expr in aggregates)
    return f"SELECT k, {items} FROM t WINDOW {_window(range_s, exclude)}"


def _deploy_all(events, range_s, bucket_s, exclude):
    """The many-aggregate deployment ``multi``, one ``one_<name>`` per
    aggregate and the scan-only ``raw``; half the rows land before the
    deployments, half after."""
    db = OpenMLDB()
    db.create_table("t", SCHEMA, indexes=[IndexDef(("k",), "ts")])
    half = len(events) // 2
    for row in events[:half]:
        db.insert("t", row)
    option = f"w:{bucket_s}s"
    db.deploy("multi", _sql(AGGREGATES, range_s, exclude),
              long_windows=option)
    for name, expr in AGGREGATES:
        db.deploy(f"one_{name}", _sql([(name, expr)], range_s, exclude),
                  long_windows=option)
    db.deploy("raw", _sql(AGGREGATES, range_s, exclude))
    for row in events[half:]:
        db.insert("t", row)
    db.flush_preagg()
    return db


def _requests(events):
    stamps = sorted({row[1] for row in events})
    anchors = sorted({stamps[-1] + 1_700, stamps[-1],
                      stamps[len(stamps) // 2], stamps[0] + 250})
    return [(key, anchor, 3, None if anchor % 2 else 4, 1.5, 2.5)
            for key in KEYS for anchor in anchors]


def _check(events, range_s, bucket_s, exclude):
    db = _deploy_all(events, range_s, bucket_s, exclude)
    try:
        multi = db.deployments["multi"]
        # ew_avg is not mergeable: it is the one slot left to the scan.
        assert multi.preaggs["w"].slots == tuple(range(8))
        assert multi.preaggs["w"].rows_absorbed == len(events)
        names = [name for name, _expr in AGGREGATES]
        for request in _requests(events):
            features = dict(zip(["k"] + names,
                                db.request_row("multi", request)))
            raw = dict(zip(["k"] + names, db.request_row("raw", request)))
            for name in names:
                alone = db.request_row(f"one_{name}", request)[1]
                assert repr(features[name]) == repr(alone), (name, request)
            for name in EXACT_ON_INTEGERS:
                assert repr(features[name]) == repr(raw[name]), \
                    (name, request)
    finally:
        db.close()


_events = st.lists(
    st.tuples(st.sampled_from(KEYS),
              st.integers(0, 400).map(lambda step: step * 500),
              st.one_of(st.none(), st.integers(-9, 9)),
              st.one_of(st.none(), st.integers(-3, 3)),
              st.one_of(st.none(),
                        st.integers(-8, 40).map(lambda v: v / 4)),
              st.just(None)),  # p: only the in-order drawdown case
    min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(events=_events, range_s=st.sampled_from((3, 20, 90, 300)),
       bucket_s=st.sampled_from((1, 2)), exclude=st.booleans())
def test_every_slot_matches_its_one_aggregate_deployment(
        events, range_s, bucket_s, exclude):
    _check(events, range_s, bucket_s, exclude)


def _smoke_events():
    """Deterministic out-of-order rows: 90 per key over ~200 s, with
    NULLs, so windows cover level-1 buckets and both raw edges."""
    events = []
    for index in range(270):
        key = KEYS[index % 3]
        ts = ((index * 7919) % 400) * 500
        a = None if index % 11 == 0 else (index * 5) % 17 - 8
        b = None if index % 13 == 0 else index % 5 - 2
        x = None if index % 17 == 0 else ((index * 3) % 23) / 4 - 1.0
        p = None if index % 19 == 0 else ((index * 7) % 29 + 1) / 4
        events.append((key, ts, a, b, x, p))
    return events


def test_smoke_many_aggregates_match_one_aggregate_deployments():
    for exclude in (False, True):
        _check(_smoke_events(), 90, 1, exclude)


def test_in_order_positive_drawdown_matches_raw_fold():
    # Buckets absorb rows in arrival order, so only rows arriving in
    # timestamp order make the bucketed fold comparable to the raw one.
    events = sorted(_smoke_events(), key=lambda row: row[1])
    aggregates = [("ddp", "drawdown(p)"), ("s", "sum(a)")]
    db = OpenMLDB()
    db.create_table("t", SCHEMA, indexes=[IndexDef(("k",), "ts")])
    try:
        for row in events[:135]:
            db.insert("t", row)
        for exclude in (False, True):
            sql = _sql(aggregates, 20, exclude)
            db.deploy(f"pre{exclude:d}", sql, long_windows="w:1s")
            db.deploy(f"raw{exclude:d}", sql)
        for row in events[135:]:
            db.insert("t", row)
        db.flush_preagg()
        for exclude in (0, 1):
            for request in _requests(events):
                assert repr(db.request_row(f"pre{exclude}", request)) \
                    == repr(db.request_row(f"raw{exclude}", request))
    finally:
        db.close()


# ----------------------------------------------------------------------
# work pins


class SpyTable:
    """Delegates to a table, counting block scans."""

    def __init__(self, table):
        self._table = table
        self.scans = 0

    def window_scan_blocks(self, *args, **kwargs):
        self.scans += 1
        return self._table.window_scan_blocks(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._table, name)


def _pin_work(aggregates):
    events = _smoke_events()
    db = OpenMLDB()
    db.create_table("t", SCHEMA, indexes=[IndexDef(("k",), "ts")])
    try:
        for row in events[:100]:
            db.insert("t", row)
        deployment = db.deploy("d", _sql(aggregates, 90, False),
                               long_windows="w:1s")
        for row in events[100:]:
            db.insert("t", row)
        db.flush_preagg()
        aggregator = deployment.preaggs["w"]
        assert len(aggregator.slots) == len(aggregates)
        assert aggregator.rows_absorbed == len(events)

        spy = SpyTable(db.tables["t"])
        engine = OnlineEngine({"t": spy})
        per_request = []
        for request in _requests(events):
            before = spy.scans
            features = engine.execute_request(
                deployment.compiled, request, preagg=deployment.preaggs)
            per_request.append(spy.scans - before)
            assert features == db.request_row("d", request)
        assert max(per_request) <= 2
        # Anchors off the bucket grid leave both raw edges to scan.
        assert 2 in per_request
    finally:
        db.close()


def test_one_aggregate_scans_each_raw_edge_once():
    _pin_work(AGGREGATES[:1])


def test_five_aggregates_scan_each_raw_edge_once():
    _pin_work(AGGREGATES[:5])


def test_requests_during_absorbs_settle_to_one_aggregate_answers():
    """Reader threads query the shared bucket store while the binlog
    worker absorbs; afterwards every row is absorbed once and the
    answers equal the one-aggregate deployments'."""
    events = _smoke_events()
    db = _deploy_all(events[:2], 90, 1, False)
    errors = []
    done = threading.Event()
    requests = _requests(events)

    def reader():
        try:
            while not done.is_set():
                for request in requests:
                    db.request_row("multi", request)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(3)]
    try:
        for thread in readers:
            thread.start()
        for row in events[2:]:
            db.insert("t", row)
        db.flush_preagg()
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        assert db.deployments["multi"].preaggs["w"].rows_absorbed \
            == len(events)
        for request in requests:
            features = db.request_row("multi", request)
            for index, (name, _expr) in enumerate(AGGREGATES, start=1):
                assert repr(features[index]) \
                    == repr(db.request_row(f"one_{name}", request)[1])
    finally:
        db.close()
