"""The benchmark's workloads.

Each workload makes its inputs from a seed, builds the system under
test (``setup``), drives one load phase (``measure``; ``ladder=False``
skips serve-wire's rate ladder, as the traced run does) and checks a
sample of what the system answered against an independent oracle
(``gate``).  Input generation is not part of ``setup``; warm-up is.

Why these four (each layer does most of its work in one of them and
little in another, so a gain in one layer, or its cost elsewhere, shows):

* ``request-scan`` — single-node requests over two UNION windows and a
  LAST JOIN.  Union windows never get incremental state, so every
  request pays the storage scan, the union merge, the SQL fold and the
  join lookup.
* ``serve-wire`` — the same kind of request, but over the PostgreSQL
  wire into the serving frontend and a two-tablet cluster, at fixed
  open-loop rates.  Heavy-hitter keys repeat, so single-flight and
  batch-shared scans engage.
* ``ingest-tiers`` — a CDC stream with duplicates and disorder written
  through the insert path, pre-aggregation and incremental state, with
  requests in between that the tiers answer.
* ``offline-skew`` — batch feature extraction over Zipf-skewed click
  keys in the offline engine's default mode.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from loadgen import (LoopResult, closed_loop, open_loop, percentile,
                     window_medians)

__all__ = ["WORKLOADS", "Measurement"]

#: Gate sample bound: outputs kept from one load phase for checking.
GATE_SAMPLES = 300

# ``one_cpu``: run the whole process on one CPU.  Set where every
# thread of the workload runs Python in one interpreter, so a second
# CPU cannot run them in parallel anyway; on a shared two-CPU machine
# the pin removes the wake-ups across CPUs that made thread hand-offs,
# and with them the wire path's latency, vary twofold from run to run.
# ``offline-skew`` stays unpinned: its engine may use worker processes.


@dataclasses.dataclass
class Measurement:
    """One load phase: its figures, and the raw requests behind them."""

    p50_ms: float                 # latency of the workload's operation
    ops_per_s: float              # work done per second (see README)
    loop: LoopResult              # the phase whose latencies are reported
    requests: int                 # feature requests issued in the phase
    samples: List[Tuple[Any, Any]]
    attempted: int                # every operation, requests or not
    failed: int
    drain_s: float = 0.0          # time spent waiting for the binlog
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)


def _sampler(samples: List[Tuple[Any, Any]], every: int):
    def keep(index: int, row: Any, result: Any) -> None:
        if index % every == 0 and len(samples) < GATE_SAMPLES:
            samples.append((row, result))
    return keep


def _same_value(left: Any, right: Any) -> bool:
    """Equal, with floats to 1e-9: the baseline interprets each aggregate
    on its own, so a valid answer may round differently in the last
    bits."""
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)
    return left == right


def _identical(left: Sequence[Any], right: Sequence[Any]) -> bool:
    """Equal values and equal representations (``1`` is not ``1.0``)."""
    return tuple(left) == tuple(right) \
        and repr(tuple(left)) == repr(tuple(right))


# ----------------------------------------------------------------------
# request-scan


class RequestScan:
    """Single-node ``request_row`` over MicroBench, one closed-loop client.

    One client only: a second in-process client would measure the
    interpreter's thread switch interval rather than the program.
    """

    name = "request-scan"
    deployment = "bench"
    one_cpu = True

    def __init__(self, tiny: bool) -> None:
        self.keys = 40 if tiny else 500
        self.requests = 256 if tiny else 4_096

    def inputs(self, seed: int) -> Any:
        from repro.workloads.microbench import (MicroBenchConfig,
                                                build_feature_sql, generate)
        config = MicroBenchConfig(keys=self.keys, rows_per_key=120,
                                  value_columns=3, windows=2,
                                  window_rows=50, joins=1, union_tables=2,
                                  seed=seed)
        return generate(config, request_count=self.requests), \
            build_feature_sql(config)

    def setup(self, inputs: Any) -> Any:
        from repro import OpenMLDB
        data, sql = inputs
        db = OpenMLDB()
        for name, schema in data.schemas.items():
            db.create_table(name, schema, indexes=data.indexes[name])
        for name, rows in data.rows.items():
            db.insert_many(name, rows)
        db.deploy(self.deployment, sql)
        for row in data.requests[:200]:
            db.request_row(self.deployment, row)
        return db

    def teardown(self, db: Any) -> None:
        db.close()

    def measure(self, db: Any, inputs: Any, seconds: float,
                ladder: bool = True) -> Measurement:
        data, _sql = inputs
        samples: List[Tuple[Any, Any]] = []
        loop = closed_loop(
            lambda row: db.request_row(self.deployment, row),
            data.requests, seconds, on_result=_sampler(samples, 97))
        figures = window_medians(loop.done_s, loop.latencies_s,
                                 loop.elapsed_s)
        return Measurement(p50_ms=figures["p50_ms"],
                           ops_per_s=figures["per_s"], loop=loop,
                           requests=loop.attempted, samples=samples,
                           attempted=loop.attempted, failed=loop.failures)

    def gate(self, db: Any, inputs: Any,
             measurement: Measurement) -> Tuple[int, List[str]]:
        """Compare sampled answers with the MySQL-style baseline engine."""
        from repro.baselines import MySQLMemoryEngine
        data, sql = inputs
        oracle = MySQLMemoryEngine(sql, dict(data.schemas))
        for name, rows in data.rows.items():
            oracle.load(name, rows)
        mismatches = []
        for row, got in measurement.samples:
            want = oracle.request(row)
            if len(got) != len(want) or not all(
                    _same_value(a, b) for a, b in zip(got, want)):
                mismatches.append(f"{row!r}: {got!r} != {want!r}")
        return len(measurement.samples), mismatches


# ----------------------------------------------------------------------
# serve-wire

#: Open-loop rate (requests/s) whose latency is reported: well below
#: the two-connection capacity, so the figure is service time plus
#: ordinary queueing rather than the edge of overload.
SERVE_RATE = 100.0
#: Latency limit on p99 for the rate ladder, and the share of failed
#: requests a rung may have.
SLO_P99_MS = 50.0
SLO_FAIL_SHARE = 0.01
#: Rate ladder (requests/s): climbed until a rung misses the objective
#: twice in a row (one retry rules out a transient stall of the
#: machine), after which the time left bisects the rates between the
#: last rung that met it and the one that missed.  A rung takes 1.5-2 s,
#: so the 12 s the ladder gets in a 20 s run climb six or seven rungs:
#: to 916-1144 req/s, or 733-916 when one rung is retried, against about
#: 420 req/s for the tuned build.  Above that ``slo_qps`` is capped; the
#: record's ``ladder_capped`` says so.
LADDER = tuple(300.0 * 1.25 ** step for step in range(10))
LADDER_RUNG_S = 1.5
#: Share of the run given to the fixed-rate phase when the ladder runs.
FIXED_SHARE = 0.4

class ServeWire:
    """Ad CTR served over the PostgreSQL wire by a two-tablet cluster."""

    name = "serve-wire"
    deployment = "ctr"
    connections = 2
    one_cpu = True

    def __init__(self, tiny: bool) -> None:
        self.events = 2_000 if tiny else 20_000
        self.campaigns = 60 if tiny else 400

    def inputs(self, seed: int) -> Any:
        from repro.workloads import adctr
        # 400 ms between events spreads the history over two hours, so
        # the one-hour window holds about half of a heavy hitter's rows.
        config = adctr.AdCTRConfig(campaigns=self.campaigns,
                                   heavy_hitters=6, hot_fraction=0.7,
                                   events=self.events, seed=seed,
                                   mean_gap_ms=400)
        events = list(adctr.generate_impressions(config))
        requests = list(adctr.generate_requests(config, requests=4_096,
                                                seed=seed + 1))
        return events, requests

    def setup(self, inputs: Any) -> Any:
        from repro.cluster import NameServer, TabletServer
        from repro.netserve import NetClient, NetServer
        from repro.serving import FrontendServer
        from repro.workloads import adctr
        events, requests = inputs
        cluster = NameServer([TabletServer(f"tablet-{i}")
                              for i in range(2)])
        cluster.create_table(adctr.TABLE, adctr.SCHEMA, [adctr.INDEX],
                             partitions=2, replicas=2)
        for row in events:
            cluster.put(adctr.TABLE, row)
        cluster.deploy(self.deployment, adctr.feature_sql())
        frontend = FrontendServer(cluster, workers=2, max_batch=8,
                                  max_wait_ms=1.0)
        server = NetServer(frontend, executor_workers=self.connections,
                           max_connections=self.connections + 2)
        stack = {"cluster": cluster, "frontend": frontend,
                 "server": server, "clients": []}
        try:
            host, port = server.start()
            for _ in range(self.connections):
                client = NetClient(host, port)
                stack["clients"].append(client)
                client.prepare("s0", f"EXECUTE {self.deployment} "
                               "($1, $2, $3, $4, $5, $6)")
            for index, row in enumerate(requests[:200]):
                stack["clients"][index % self.connections].execute(
                    "s0", row)
        except BaseException:
            self.teardown(stack)
            raise
        return stack

    def teardown(self, stack: Any) -> None:
        for client in stack["clients"]:
            client.close()
        stack["server"].close()
        stack["frontend"].close()
        stack["cluster"].close()

    def _phase(self, stack: Any, requests: Sequence[Any], rate: float,
               seconds: float, samples: Optional[List] = None,
               cutoff_s: float = 2.0) -> LoopResult:
        on_result = _sampler(samples, 13) if samples is not None else None
        return open_loop(stack["clients"],
                         lambda client, row: client.execute("s0", row),
                         requests, rate, seconds, cutoff_s=cutoff_s,
                         on_result=on_result)

    def measure(self, stack: Any, inputs: Any, seconds: float,
                ladder: bool = True) -> Measurement:
        """Fixed-rate phase, then (with ``ladder``) the rate ladder.

        The fixed-rate phase takes ``FIXED_SHARE`` of the run when the
        ladder follows and all of it otherwise.
        """
        _events, requests = inputs
        samples: List[Tuple[Any, Any]] = []
        fixed_s = seconds * FIXED_SHARE if ladder else seconds
        loop = self._phase(stack, requests, SERVE_RATE, fixed_s, samples)
        figures = window_medians(loop.done_s, loop.latencies_s, fixed_s)
        rungs: List[Dict[str, Any]] = []
        ops_per_s = figures["per_s"]
        high = None
        if ladder:
            rungs, low, high = self._ladder(stack, requests,
                                            seconds - fixed_s)
            ops_per_s = math.sqrt(low * high) if high else low
        return Measurement(
            p50_ms=figures["p50_ms"], ops_per_s=ops_per_s, loop=loop,
            requests=loop.attempted, samples=samples,
            attempted=loop.attempted + sum(
                rung["samples"] - rung["unsent"] for rung in rungs),
            failed=loop.failures + sum(rung["failures"] for rung in rungs),
            extra={"fixed_rate": _rung(SERVE_RATE, loop), "ladder": rungs,
                   "ladder_capped": ladder and high is None})

    def _ladder(self, stack: Any, requests: Sequence[Any],
                seconds: float) -> Tuple[List[Dict[str, Any]], float,
                                         Optional[float]]:
        """Climb ``LADDER``, then bisect, for ``seconds``.

        Returns the rungs run, the highest rate that met the objective
        and the lowest that missed it (None if none did).  The
        fixed-rate phase's rate stands in for a rate that met it, so one
        stall in that phase neither ends the climb nor zeroes the
        figure.  ``slo_qps`` is the geometric middle of the two rates.
        """
        end = time.perf_counter() + seconds
        rungs: List[Dict[str, Any]] = []

        def room() -> bool:
            return time.perf_counter() + LADDER_RUNG_S <= end

        def meets(rate: float) -> bool:
            # A rung past capacity is cut off soon after its schedule
            # ends; what it left unsent counts as missed.
            rungs.append(_rung(rate, self._phase(
                stack, requests, rate, LADDER_RUNG_S, cutoff_s=0.5)))
            return rungs[-1]["verdict"] == "ok"

        low, high = SERVE_RATE, None
        for rate in LADDER:
            if not room():
                break
            if meets(rate) or (room() and meets(rate)):
                low = rate
            else:
                high = rate
                break
        while high is not None and room():
            middle = math.sqrt(low * high)
            if meets(middle):
                low = middle
            else:
                high = middle
        return rungs, low, high

    def gate(self, stack: Any, inputs: Any,
             measurement: Measurement) -> Tuple[int, List[str]]:
        """Decoded wire rows must match the in-process cluster answer.

        Each text field is parsed back and compared with the value the
        cluster computed, rather than re-encoded, so a fault in the wire
        encoding itself is caught too.
        """
        cluster = stack["cluster"]
        mismatches = []
        for row, result in measurement.samples:
            want = tuple(cluster.request(self.deployment, row).values())
            got = result.rows[0] if len(result.rows) == 1 else None
            if got is None or len(got) != len(want) or not all(
                    _wire_equal(text, value)
                    for text, value in zip(got, want)):
                mismatches.append(f"{row!r}: {got!r} != {want!r}")
        return len(measurement.samples), mismatches


def _wire_equal(text: Optional[str], value: Any) -> bool:
    """Does one text-format wire field carry exactly ``value``?"""
    if value is None or text is None:
        return value is None and text is None
    if isinstance(value, bool):
        return text == ("t" if value else "f")
    if isinstance(value, float):
        parsed = float(text)
        return parsed == value or (math.isnan(parsed) and math.isnan(value))
    if isinstance(value, int):
        return int(text) == value
    return text == str(value)


def _rung(rate: float, phase: LoopResult) -> Dict[str, Any]:
    """One ladder rung: what was offered, achieved, and the verdict."""
    served = phase.attempted - phase.failures - phase.unsent
    late = sorted(phase.late_s)
    return {"rate": rate, "verdict": _verdict(phase),
            "achieved": served / phase.elapsed_s,
            "samples": phase.attempted, "failures": phase.failures,
            "unsent": phase.unsent,
            "p99_ms": percentile(sorted(phase.latencies_s), 99) * 1_000.0,
            "late_ms_p99": percentile(late, 99) * 1_000.0 if late else 0.0}


def _verdict(phase: LoopResult) -> str:
    """"ok", or why a phase missed the service-level objective."""
    if phase.failures > SLO_FAIL_SHARE * phase.attempted:
        return "failures"
    if percentile(sorted(phase.latencies_s), 99) * 1_000.0 > SLO_P99_MS:
        return "p99"
    # Backlog growth: the generator falling further behind schedule.
    quarter = max(len(phase.late_s) // 4, 1)
    head = sorted(phase.late_s[:quarter])
    tail = sorted(phase.late_s[-quarter:])
    if percentile(tail, 50) - percentile(head, 50) > 0.010:
        return "backlog"
    return "ok"


# ----------------------------------------------------------------------
# ingest-tiers


class IngestTiers:
    """IoT CDC stream into single-node OpenMLDB with both tiers live."""

    name = "ingest-tiers"
    deployment = "iot"
    one_cpu = True
    #: Deliveries per consumer batch.  After each batch the consumer
    #: waits until the binlog worker has applied it, as a CDC consumer
    #: that commits its offsets only for applied rows does, and then
    #: sends one feature request per ``requests_every`` deliveries,
    #: which read the fresh state.  Without the barrier the writer and
    #: the binlog worker compete for the interpreter lock, and a run
    #: settles at random into a lagging or a keeping-up worker, with
    #: request latency twofold apart between the two.  Batches of 64
    #: keep the thread hand-offs at the barrier few.
    batch = 64
    requests_every = 4
    gate_devices = 48

    def __init__(self, tiny: bool) -> None:
        self.devices = 300 if tiny else 3_000
        self.readings = 4_000 if tiny else 38_000
        self.history = 1_000 if tiny else 8_000

    def inputs(self, seed: int) -> Any:
        from repro.streams import CDCConfig, CDCStream
        from repro.workloads import iot
        config = iot.IoTConfig(devices=self.devices,
                               readings=self.readings, seed=seed)
        rows = list(iot.generate_readings(config))
        history, live = rows[:self.history], rows[self.history:]
        stream = CDCStream.from_table(
            iot.TABLE, live, ts_position=iot.TS_POSITION,
            config=CDCConfig(seed=seed, sources=6, max_delay_ms=60_000,
                             duplicate_fraction=0.03))
        devices = [row[0] for row in iot.generate_requests(
            config, requests=4_096, seed=seed + 1)]
        return history, stream, list(stream.events()), devices

    def setup(self, inputs: Any) -> Any:
        from repro import OpenMLDB
        from repro.streams import StreamIngestor
        from repro.workloads import iot
        history, stream, _events, devices = inputs
        db = OpenMLDB()
        db.create_table(iot.TABLE, iot.SCHEMA, indexes=[iot.INDEX])
        db.insert_many(iot.TABLE, history)
        db.deploy(self.deployment, iot.feature_sql(),
                  long_windows=iot.LONG_WINDOWS)
        db.flush_preagg(timeout=60.0)
        anchor = history[-1][1] + 1
        for device in devices[:200]:
            db.request_row(self.deployment, _iot_probe(device, anchor))
        return db, StreamIngestor(db, sources=stream.config.sources)

    def teardown(self, system: Any) -> None:
        system[0].close()

    def measure(self, system: Any, inputs: Any, seconds: float,
                ladder: bool = True) -> Measurement:
        """Deliver batches until the stream ends or the clock runs out;
        the clock stops when the binlog worker has applied every
        delivered row."""
        db, ingestor = system
        history, _stream, events, devices = inputs
        perf = time.perf_counter
        request_row = db.request_row
        ingest = ingestor.ingest
        flush = db.flush_preagg
        batch = self.batch
        latencies: List[float] = []
        done: List[float] = []
        applied: List[float] = []     # when each batch was applied
        waited = 0.0                  # time spent waiting at barriers
        errors: List[str] = []
        failures = 0
        newest = history[-1][1]
        start = perf()
        deadline = start + seconds
        delivered = 0
        for event in events:
            ingest(event)
            delivered += 1
            if event.event_ts > newest:
                newest = event.event_ts
            if delivered % batch:
                continue
            began = perf()
            flush(timeout=120.0)
            now = perf()
            waited += now - began
            applied.append(now - start)
            for _ in range(batch // self.requests_every):
                row = _iot_probe(devices[len(latencies) % len(devices)],
                                 newest)
                began = perf()
                try:
                    request_row(self.deployment, row)
                except Exception as exc:  # counted, the stream goes on
                    failures += 1
                    latencies.append(math.inf)
                    if len(errors) < 5:
                        errors.append(f"{type(exc).__name__}: {exc}")
                else:
                    latencies.append(perf() - began)
                done.append(perf() - start)
            if perf() >= deadline:
                break
        drain_started = perf()
        flush(timeout=120.0)
        finished = perf()
        loop = LoopResult(latencies, failures, drain_started - start,
                          done_s=done, errors=errors)
        figures = window_medians(done, latencies, loop.elapsed_s)
        # Deliveries per second, windowed like the latencies: a batch's
        # rows count when the binlog worker has applied them.
        rate = window_medians(applied, [0.0] * len(applied),
                              loop.elapsed_s)["per_s"] * batch
        return Measurement(p50_ms=figures["p50_ms"], ops_per_s=rate,
                           loop=loop, requests=len(latencies), samples=[],
                           attempted=delivered + len(latencies),
                           failed=failures,
                           drain_s=waited + finished - drain_started,
                           extra={"delivered": delivered,
                                  "stream": len(events)})

    def gate(self, system: Any, inputs: Any,
             measurement: Measurement) -> Tuple[int, List[str]]:
        """Probe vectors must equal the offline engine's answer over the
        deduplicated history that was delivered."""
        from repro import OpenMLDB
        from repro.workloads import iot
        db, _ingestor = system
        history, _stream, events, _devices = inputs
        delivered = events[:measurement.extra["delivered"]]
        seen = set()
        logical = list(history)
        for event in delivered:
            if (event.source, event.seq) not in seen:
                seen.add((event.source, event.seq))
                logical.append(event.row)
        anchor = max(row[1] for row in logical) + 1
        present = sorted({row[0] for row in logical})
        chosen = set(random.Random(anchor).sample(
            present, min(self.gate_devices, len(present))))
        probes = [_iot_probe(device, anchor) for device in sorted(chosen)]
        online = {probe[0]: tuple(db.request_row(self.deployment, probe))
                  for probe in probes}
        offline_db = OpenMLDB()
        try:
            offline_db.create_table(iot.TABLE, iot.SCHEMA,
                                    indexes=[iot.INDEX])
            offline_db.insert_many(iot.TABLE, [
                row for row in logical if row[0] in chosen])
            offline_db.insert_many(iot.TABLE, probes)
            rows, _stats = offline_db.offline_query(iot.feature_sql())
        finally:
            offline_db.close()
        offline = {tuple(row[:2]): tuple(row) for row in rows}
        mismatches = []
        for probe in probes:
            want = offline.get((probe[0], anchor))
            got = online[probe[0]]
            if want is None or not _identical(got, want):
                mismatches.append(f"{probe!r}: {got!r} != {want!r}")
        return len(probes), mismatches


def _iot_probe(device: str, ts: int) -> Tuple[Any, ...]:
    return (device, ts, f"site{int(device[3:]) % 12:02d}", 0, 0, 0)


# ----------------------------------------------------------------------
# offline-skew

OFFLINE_TABLE = "td_clicks"
OFFLINE_SQL = (
    f"SELECT ip, click_time, "
    "  count(app) OVER w100 AS clicks_100, "
    "  sum(channel) OVER w100 AS channel_sum_100, "
    "  count(app) OVER w1h AS clicks_1h, "
    "  max(app) OVER w1h AS max_app_1h, "
    "  avg(os) OVER w1d AS avg_os_1d, "
    "  min(device) OVER w1d AS min_device_1d "
    f"FROM {OFFLINE_TABLE} WINDOW "
    "  w100 AS (PARTITION BY ip ORDER BY click_time "
    "    ROWS BETWEEN 100 PRECEDING AND CURRENT ROW), "
    "  w1h AS (PARTITION BY ip ORDER BY click_time "
    "    ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW), "
    "  w1d AS (PARTITION BY ip ORDER BY click_time "
    "    ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)")


class OfflineSkew:
    """Three-window batch query over Zipf-skewed TalkingData clicks."""

    name = "offline-skew"
    gate_ips = 16
    one_cpu = False

    def __init__(self, tiny: bool) -> None:
        self.rows = 3_000 if tiny else 10_000

    def inputs(self, seed: int) -> List[Tuple[Any, ...]]:
        """TalkingData-shaped clicks (the schema and distributions of
        ``repro.workloads.talkingdata``), drawn with cumulative weights
        so that making them takes well under a second."""
        from repro.workloads.talkingdata import TalkingDataConfig
        config = TalkingDataConfig(rows=self.rows, distinct_ips=5_000,
                                   zipf_s=1.2, seed=seed)
        rng = random.Random(seed)
        weights = [1.0 / rank ** config.zipf_s
                   for rank in range(1, config.distinct_ips + 1)]
        ips = rng.choices(
            [f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}"
             for i in range(config.distinct_ips)],
            cum_weights=list(itertools.accumulate(weights)),
            k=config.rows)
        step = max(config.span_ms // config.rows, 1)
        rows = []
        ts = config.start_ts
        for ip in ips:
            rows.append((ip, rng.randrange(1, 400), rng.randrange(1, 100),
                         rng.randrange(1, 30), rng.randrange(1, 500), ts,
                         rng.random() < 0.002))
            ts += rng.randrange(0, 2 * step)
        return rows

    def _load(self, rows: Sequence[Tuple[Any, ...]]) -> Any:
        from repro import OpenMLDB
        from repro.sql.parser import parse
        from repro.workloads.talkingdata import INDEX, SCHEMA
        db = OpenMLDB()
        db.create_table(OFFLINE_TABLE, SCHEMA, indexes=[INDEX])
        db.insert_many(OFFLINE_TABLE, rows)
        db.compile_cache.get_or_compile(parse(OFFLINE_SQL), db.catalog())
        return db

    def setup(self, inputs: Any) -> Any:
        return self._load(inputs)

    def teardown(self, db: Any) -> None:
        db.close()

    def measure(self, db: Any, inputs: Any, seconds: float,
                ladder: bool = True) -> Measurement:
        """Run the query back to back until the clock runs out."""
        perf = time.perf_counter
        latencies: List[float] = []
        output: List[Any] = []
        start = perf()
        finished = start
        while finished - start < seconds:
            began = perf()
            rows, _stats = db.offline_query(OFFLINE_SQL)
            finished = perf()
            latencies.append(finished - began)
            output = rows
        loop = LoopResult(latencies, 0, finished - start)
        # Rows per second of the median query: a stretch of the run on a
        # slowed machine moves it only if it spans half the queries.
        median_s = statistics.median(latencies)
        return Measurement(p50_ms=median_s * 1_000.0,
                           ops_per_s=len(inputs) / median_s, loop=loop,
                           requests=0, samples=[(None, output)],
                           attempted=len(latencies), failed=0)

    def gate(self, db: Any, inputs: Any,
             measurement: Measurement) -> Tuple[int, List[str]]:
        """The default mode's rows for sampled keys (the hottest ones
        included) must equal serial mode's on those keys alone."""
        counts: Dict[str, int] = {}
        for row in inputs:
            counts[row[0]] = counts.get(row[0], 0) + 1
        ranked = sorted(counts, key=lambda ip: (-counts[ip], ip))
        rng = random.Random(len(inputs))
        chosen = set(ranked[:3])
        chosen.update(rng.sample(ranked[3:],
                                 min(self.gate_ips - 3, len(ranked) - 3)))
        _row, output = measurement.samples[-1]
        got = [row for row in output if row[0] in chosen]
        reference = self._load([row for row in inputs if row[0] in chosen])
        try:
            want, _stats = reference.offline_query(OFFLINE_SQL,
                                                   mode="serial")
        finally:
            reference.close()
        mismatches = []
        if len(got) != len(want):
            mismatches.append(f"{len(got)} rows != serial {len(want)}")
        for left, right in zip(got, want):
            if not _identical(left, right):
                mismatches.append(f"{left!r} != serial {right!r}")
        return len(want), mismatches


WORKLOADS = {workload.name: workload for workload in
             (RequestScan, ServeWire, IngestTiers, OfflineSkew)}
