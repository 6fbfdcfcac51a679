"""The three seeded workloads: their stacks, traces and answer bookkeeping.

Every workload serves the same four kinds of user-visible operation, in
different mixes and over different stacks:

* ``load``   – the initial load of a dashboard by a new viewer;
* ``select`` – one interaction (a filter action or a quick filter);
* ``refresh`` – an extract refresh (or, for a live source, the cache
  purge a refresh causes);
* ``fresh``  – the first dashboard load after a refresh, on cold caches.

A run is whole *rounds*. A round is one refresh, a fresh load of every
dashboard, then the workload's seeded event list; every round replays the
same events with new viewer names, so each round does the same work and
the share of cold operations is fixed by the trace, not by how long the
run lasts.

The event lists are :class:`~repro.workloads.TrafficGenerator` traffic.
Its interaction rate is 0.2 (the generator's default, loads far above
selects, as the paper describes Tableau Public traffic) on the two
loads-dominated workloads and 0.7 on extract-explore, whose analyst
clicks more than they load. Each workload's visits per round are sized so
that a round lasts 2.5-4 s on a 2-vCPU host, and a 24 s run holds six or
more refreshes for the refresh and fresh-load medians.
"""

from __future__ import annotations

import bisect
import datetime as dt
import random
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.connectors import SimDbDataSource, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.cache.distributed import KeyValueStore
from repro.core.cache.replicated import ReplicatedStore
from repro.core.pipeline import PipelineOptions
from repro.dashboard.model import Dashboard, Zone
from repro.expr.ast import AggExpr, ColumnRef
from repro.faults.clock import VirtualTimeClock
from repro.queries.spec import CategoricalFilter, RangeFilter
from repro.server import DataServer, VizServer
from repro.tde.optimizer.parallel import PlannerOptions
from repro.workloads import (
    CARRIERS,
    MARKETS,
    STATES,
    fig1_dashboard,
    TrafficGenerator,
    fig2_dashboard,
    flights_model,
    generate_flights,
)

from .reference import CheckFailure, values_close, check_record_count, check_top5, table_rows

#: Deployment settings for a two-core host: at most two client threads
#: and a pipeline worker pool of two. The TDE plans serially: with
#: ``max_dop=2`` the cold loads' median moved 2-3x between consecutive
#: runs on a shared 2-vCPU host while single-threaded warm loads moved
#: under 10%, because a parallel plan needs the second vCPU's time.
WORKERS = 2
PIPELINE = PipelineOptions(max_workers=WORKERS, max_connections=WORKERS)
PLANNER = PlannerOptions(max_dop=1)

DATASOURCE = "faa"
FACT = "Extract.flights"
START = dt.date(2014, 1, 1)
DAYS = 365


def month_dashboard(month: int) -> Dashboard:
    """A month report: three zones over one month of flights plus a
    carrier quick filter. The ``date_`` range filter is what sends these
    queries down the TDE's RLE-index scan path."""
    low = dt.date(2014, month, 1)
    high = dt.date(2014 + month // 12, month % 12 + 1, 1)
    in_month = RangeFilter("date_", low, high)
    dash = Dashboard(f"month-{month:02d}", DATASOURCE)
    dash.add_zone(Zone("by_carrier", kind="bar", dimensions=("carrier_name",),
                       measures=(("flights", AggExpr("count")),), filters=(in_month,),
                       order_by=(("flights", False),)))
    dash.add_zone(Zone("by_market", kind="bar", dimensions=("market",),
                       measures=(("avg_arr_delay", AggExpr("avg", ColumnRef("arr_delay"))),),
                       filters=(in_month,)))
    dash.add_zone(Zone("by_state", kind="map", dimensions=("origin_state_id",),
                       measures=(("flights", AggExpr("count")),), filters=(in_month,)))
    dash.add_quick_filter("carrier_filter", "code")
    return dash


def _state_ids(which: int) -> list[int]:
    index = {s: i for i, s in enumerate(STATES)}
    return sorted({index[m[which]] for m in MARKETS})


CODES = [c[0] for c in CARRIERS]
#: Marks a viewer may select, per dashboard and source zone: the marks
#: each zone shows with no selection made (Figure 2's carrier zone shows
#: a top 5 that moves with the market selected, so it is not offered).
FIG1_DOMAINS = {
    "origin_map": _state_ids(1),
    "dest_map": _state_ids(2),
    "carrier_filter": CODES,
}
FIG2_DOMAINS = {"market": [m[0] for m in MARKETS]}
MONTH_DOMAINS = {"carrier_filter": CODES}


@dataclass(frozen=True)
class Event:
    kind: str  # "load" | "select"
    visit: int
    dashboard: str
    zone: str | None = None
    values: tuple = ()


def traffic_events(
    name: str,
    values: random.Random,
    dashboards: list[Dashboard],
    domains: dict[str, dict[str, list]],
    n_visits: int,
    interaction_rate: float,
) -> list[Event]:
    """``n_visits`` visits of :class:`~repro.workloads.TrafficGenerator`
    traffic: Zipf-popular dashboards, each load followed by a geometric
    number of selections of one to a few marks.

    The generator is seeded with the workload's name, so the trace's
    shape (which dashboard each visit opens, how many selections it makes,
    in which zone and of how many marks) is part of the workload and the
    same for every seed. The run's seed, through ``values``, permutes each
    zone's marks before the generator samples them, so every seed selects
    other marks in the same pattern: the same operations repeat and miss
    the caches in the same places, over other data and other marks. Each
    visit is a new viewer, as on Tableau Public."""
    permuted = {
        dash: {zone: values.sample(marks, len(marks)) for zone, marks in sorted(zones.items())}
        for dash, zones in sorted(domains.items())
    }
    generator = TrafficGenerator(dashboards, seed=zlib.crc32(name.encode()),
                                 interaction_rate=interaction_rate, selection_domains=permuted)
    events: list[Event] = []
    visit = -1
    for event in generator.events(n_visits):
        if event.kind == "load":
            visit += 1
            events.append(Event("load", visit, event.dashboard))
        else:
            events.append(Event("select", visit, event.dashboard, event.zone, event.values))
    return events


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
@dataclass
class Samples:
    """Latencies (seconds) per operation kind, plus op accounting."""

    latency: dict[str, list[float]] = field(
        default_factory=lambda: {k: [] for k in ("load", "select", "refresh", "fresh")}
    )
    #: Operations that needed more than the serving node's intelligent
    #: cache (a remote, literal-cache or coalesced answer), per kind.
    misses: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def miss(self, kind: str, missed: bool) -> None:
        with self.lock:
            self.misses[kind] = self.misses.get(kind, 0) + bool(missed)

    def add(self, kind: str, seconds: float) -> None:
        with self.lock:
            self.latency[kind].append(seconds)
            self.attempted += 1


class AnswerLog:
    """First answer per (data version, spec); later answers must agree.

    Each (version, spec) is compared at most once per node, thread and
    round, so checking stays cheap in the closed loop while every node
    and thread is still held to the same answer."""

    def __init__(self):
        self.first: dict[tuple[int, str], tuple] = {}
        self._seen: set[tuple] = set()
        self.compared = 0
        self._lock = threading.Lock()

    def record(self, version: int, spec, table, where: tuple) -> bool:
        key = (version, spec.canonical())
        with self._lock:
            stored = self.first.get(key)
            if stored is None:
                self.first[key] = (spec, table)
                return True
            if stored[1] is table or (key, where) in self._seen:
                return False
            self._seen.add((key, where))
            self.compared += 1
        if not _same_rows(stored[1], table):
            raise CheckFailure(f"{where}: answer for {key[1]} differs between nodes or threads")
        return True


def _same_rows(a, b) -> bool:
    names_a, rows_a = table_rows(a)
    names_b, rows_b = table_rows(b)
    if names_a != names_b or len(rows_a) != len(rows_b):
        return False
    key = lambda row: tuple((v is None, str(v)) for v in row)  # noqa: E731
    return all(
        all(values_close(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(sorted(rows_a, key=key), sorted(rows_b, key=key))
    )


class SessionModel:
    """The benchmark's own copy of one viewer's selection state, used to
    name the spec behind each zone it is shown."""

    def __init__(self, dashboard: Dashboard):
        self.dashboard = dashboard
        self.selections: dict[str, tuple] = {}

    def spec(self, zone_name: str):
        zone = self.dashboard.zones[zone_name]
        extra = []
        for action in self.dashboard.actions_onto(zone_name):
            chosen = self.selections.get(action.source)
            if chosen:
                extra.append(CategoricalFilter(action.field, chosen))
        return zone.spec(self.dashboard.datasource, tuple(extra))

    def apply(self, result) -> None:
        for zone_name, gone in result.dropped_selections:
            kept = tuple(v for v in self.selections.get(zone_name, ()) if v != gone)
            if kept:
                self.selections[zone_name] = kept
            else:
                self.selections.pop(zone_name, None)


def _missed(result) -> bool:
    return any(batch.cache_hits < len(batch.tables) for batch in result.batches)


def _check_render(answers: AnswerLog, version: int, model: SessionModel, result, where) -> None:
    if result.degraded:
        raise CheckFailure(f"{where}: degraded render {result.zone_errors}")
    new = False
    for zone_name, table in result.zone_tables.items():
        new |= answers.record(version, model.spec(zone_name), table, where)
    if new:
        check_record_count(result.zone_tables, str(where))
        check_top5(result.zone_tables, str(where))


def _l1_bytes(cache) -> int:
    """Bytes held in a DistributedQueryCache's node-local L1."""
    with cache._lock:
        return sum(entry.size_bytes for entry in cache._l1.values())


def build_fact(engine, flights) -> None:
    """Build the fact table from source rows, as an extract build does."""
    engine.load_pydict(FACT, flights, sort_keys=["date_"], encodings={"date_": "rle"},
                       replace=True)


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class Workload:
    """One workload: a stack built in ``setup`` and a seeded round."""

    name = ""
    threads = 1
    #: Fresh loads per round, one per dashboard served.
    fresh_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.answers = AnswerLog()
        self.samples = Samples()

    def generate(self) -> None:
        """Make the inputs from the seed (not part of set-up time)."""
        raise NotImplementedError

    def setup(self) -> None:
        """From generated rows to a server ready to serve."""
        raise NotImplementedError

    def run_round(self, r: int, tid: int, barrier: threading.Barrier, timed: bool,
                  events: list[Event]) -> None:
        raise NotImplementedError

    def cache_bytes(self) -> int:
        raise NotImplementedError

    def references(self) -> dict[int, int]:
        """Data version -> rows of the fact table in that version."""
        raise NotImplementedError

    def _timed(self, kind: str, timed: bool, fn, *args):
        started = time.perf_counter()
        try:
            out = fn(*args)
        except CheckFailure:
            raise
        except Exception:
            if timed:
                with self.samples.lock:
                    self.samples.attempted += 1
                    self.samples.failed += 1
            raise
        if timed:
            self.samples.add(kind, time.perf_counter() - started)
        return out


class VizWorkload(Workload):
    """A 2-node VizServer driven by viewers replaying ``self.events``."""

    interaction_rate = 0.0
    visits = 0
    #: The month-report family served besides Figures 1 and 2.
    months: tuple[int, ...] = ()

    def generate(self) -> None:
        self.dataset = generate_flights(self.rows, seed=self.seed)
        self.dashboards = [fig1_dashboard(DATASOURCE), fig2_dashboard(DATASOURCE)]
        self.dashboards += [month_dashboard(m) for m in self.months]
        domains = {"flights-on-time": FIG1_DOMAINS, "market-carrier-airline": FIG2_DOMAINS}
        domains.update({f"month-{m:02d}": MONTH_DOMAINS for m in self.months})
        self.events = traffic_events(self.name, self.rng, self.dashboards, domains,
                                     self.visits, self.interaction_rate)
        self.by_name = {d.name: d for d in self.dashboards}
        self.fresh_per_round = len(self.dashboards)

    def _register(self, server: VizServer, rebuild) -> None:
        self.server = server
        self._rebuild = rebuild
        for dash in self.dashboards:
            server.register_dashboard(dash)

    def refresh(self) -> None:
        """Rebuild the fact table from the source rows and purge every
        node's caches, as a refresh does (paper 3.2)."""
        self._rebuild()
        for node in self.server.nodes:
            node.pipeline.invalidate()

    def _load(self, user: str, dash: str, kind: str, timed: bool, tid: int, r: int):
        model = SessionModel(self.by_name[dash])
        node, result = self._timed(kind, timed, self.server.load, user, dash)
        if timed:
            self.samples.miss(kind, _missed(result))
        _check_render(self.answers, 0, model, result, (node, tid, r))
        return model

    def run_round(self, r, tid, barrier, timed, events) -> None:
        if tid == 0:
            self._timed("refresh", timed, self.refresh)
            for dash in self.dashboards:
                self._load(f"r{r}-fresh", dash.name, "fresh", timed, tid, r)
        barrier.wait()
        models: dict[int, SessionModel] = {}
        for event in events:
            if event.visit % self.threads != tid:
                continue
            user = f"r{r}v{event.visit}"
            if event.kind == "load":
                models[event.visit] = self._load(user, event.dashboard, "load", timed, tid, r)
                continue
            model = models[event.visit]
            node, result = self._timed(
                "select", timed, self.server.select, user, event.dashboard,
                event.zone, event.values,
            )
            if timed:
                self.samples.miss("select", _missed(result))
            model.selections[event.zone] = event.values
            model.apply(result)
            _check_render(self.answers, 0, model, result, (node, tid, r))
        barrier.wait()

    def cache_bytes(self) -> int:
        total = self.server.store.total_bytes()
        for node in self.server.nodes:
            total += node.pipeline.intelligent_cache.size_bytes() + _l1_bytes(node.distributed)
        return total

    def references(self) -> dict[int, int]:
        return {0: self.rows}


class ExtractExplore(VizWorkload):
    """One analyst, many interactions, over a TDE extract. The month
    reports' ``date_`` ranges take the RLE-index scan, in their fresh
    loads and in their cold carrier selections."""

    name = "extract-explore"
    rows = 25_000
    visits = 120
    interaction_rate = 0.7
    months = (1, 2, 3, 4)

    def setup(self) -> None:
        engine = self.dataset.load_into_engine(options=PLANNER)
        server = VizServer(
            2, TdeDataSource(engine, name="faa-extract"), flights_model(DATASOURCE),
            store=KeyValueStore(clock=VirtualTimeClock()), options=PIPELINE,
        )
        self._register(server, lambda: build_fact(engine, self.dataset.flights))


class PublicHerd(VizWorkload):
    """Two viewer threads of loads-dominated public traffic over a live
    simulated database and a replicated cache tier."""

    name = "public-herd"
    threads = 2
    rows = 12_000
    visits = 400
    interaction_rate = 0.2

    def setup(self) -> None:
        db = self.dataset.load_into_simdb(
            ServerProfile(name="public-db", workers=WORKERS), name="public-db"
        )
        tier = ReplicatedStore(("cache0", "cache1", "cache2"), replication=2,
                               clock=VirtualTimeClock())
        server = VizServer(2, SimDbDataSource(db), flights_model(DATASOURCE),
                           store=tier, options=PIPELINE)
        self.db = db
        self._register(server, lambda: build_fact(db.engine, self.dataset.flights))


class ExtractRefresh(Workload):
    """Refreshes beside reads: each round grows the published extract by
    one day of rows, makes one cold load, then warm loads and selections
    through Data Server sessions."""

    name = "extract-refresh"
    rows = 25_000
    #: Extra days generated past the base year; round r publishes
    #: ``1 + r % extra_days`` of them.
    extra_days = 40
    visits = 180
    interaction_rate = 0.2

    def generate(self) -> None:
        total_days = DAYS + self.extra_days
        self.dataset = generate_flights(
            self.rows * total_days // DAYS, seed=self.seed, days=total_days
        )
        dates = self.dataset.flights["date_"]
        self.day_ends = [
            bisect.bisect_left(dates, START + dt.timedelta(days=DAYS + k))
            for k in range(self.extra_days + 1)
        ]
        self.dashboard = fig1_dashboard(DATASOURCE)
        self.events = traffic_events(self.name, self.rng, [self.dashboard],
                                     {self.dashboard.name: FIG1_DOMAINS},
                                     self.visits, self.interaction_rate)

    def setup(self) -> None:
        self.engine = self.dataset.load_into_engine(options=PLANNER)
        self.version = self.day_ends[0]
        self._build(self.version)
        self.server = DataServer(store=KeyValueStore(clock=VirtualTimeClock()))
        self.server.publish(DATASOURCE, flights_model(DATASOURCE),
                            TdeDataSource(self.engine, name="faa-extract"), options=PIPELINE)

    def _build(self, n_rows: int) -> None:
        build_fact(self.engine, {k: v[:n_rows] for k, v in self.dataset.flights.items()})

    def _refresh(self, n_rows: int) -> None:
        self.server.refresh_extract(DATASOURCE, lambda _source: self._build(n_rows))
        self.version = n_rows

    def _query_zones(self, session, model: SessionModel, zones, r):
        """Send one zone query per zone, as a client of Data Server does."""
        tables = {}
        for zone in zones:
            spec = model.spec(zone)
            tables[zone] = table = session.query(spec)
            self.answers.record(self.version, spec, table, ("dataserver", 0, r))
        return tables

    def run_round(self, r, tid, barrier, timed, events) -> None:
        n_rows = self.day_ends[1 + r % self.extra_days]
        self._timed("refresh", timed, self._refresh, n_rows)
        zones = [z.name for z in self.dashboard.queryable_zones()]
        fresh = self.server.connect(DATASOURCE, f"r{r}-fresh")
        tables = self._timed(
            "fresh", timed, self._query_zones, fresh, SessionModel(self.dashboard), zones, r
        )
        check_record_count(tables, f"round {r} fresh load")
        _n, rc = table_rows(tables["record_count"])
        if rc[0][0] != self.engine.table(FACT).n_rows or rc[0][0] != n_rows:
            raise CheckFailure(
                f"round {r}: record count {rc[0][0]} != {n_rows} rows in the rebuilt extract"
            )
        stats = self.server.get(DATASOURCE).pipeline.intelligent_cache.stats
        sessions: dict[int, tuple] = {}
        for event in events:
            misses = stats.misses
            if event.kind == "load":
                session = self.server.connect(DATASOURCE, f"r{r}v{event.visit}")
                model = SessionModel(self.dashboard)
                sessions[event.visit] = (session, model)
                tables = self._timed("load", timed, self._query_zones, session, model, zones, r)
            else:
                session, model = sessions[event.visit]
                model.selections[event.zone] = event.values
                targets = [a.targets for a in self.dashboard.actions_from(event.zone)][0]
                tables = self._timed("select", timed, self._query_zones, session, model, targets, r)
            if timed:
                self.samples.miss(event.kind, stats.misses > misses)
            check_record_count(tables, f"round {r} visit {event.visit}")

    def cache_bytes(self) -> int:
        pipeline = self.server.get(DATASOURCE).pipeline
        return (self.server.store.total_bytes() + pipeline.intelligent_cache.size_bytes()
                + _l1_bytes(pipeline.literal_cache.cache))

    def references(self) -> dict[int, int]:
        return {n: n for n in self.day_ends}


WORKLOADS = {w.name: w for w in (ExtractExplore, PublicHerd, ExtractRefresh)}
