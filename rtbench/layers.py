"""Per-layer tracing for the benchmark (``--trace 1``).

Wrappers are installed around the public functions of each layer, from
the benchmark's own files, at the name their caller looks up: for
example ``repro.core.pipeline.compile_spec`` rather than
``repro.queries.compile.compile_spec``, because the pipeline imported the
function into its own namespace. Each wrapper records calls, inclusive
time and self time (inclusive minus the time of wrapped calls nested
under it on the same thread), plus a few counts read off the results.

Rounds alternate untraced and traced. Per-layer metrics come from the
traced rounds; the median traced round over the median untraced round is
the tracing overhead. Time metrics are mean milliseconds per call; count
metrics are per round, which repeats exactly on the single-client
workloads.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time

import repro.connectors.simdb as simdb_mod
import repro.core.cache.distributed as distributed_mod
import repro.core.cache.intelligent as intelligent_mod
import repro.core.executor as executor_mod
import repro.core.pipeline as pipeline_mod
import repro.queries.compile as compile_mod
from repro.connectors.pool import ConnectionPool
from repro.connectors.simdb import SimSession, SimulatedDatabase
from repro.core.cache.distributed import (
    DistributedLiteralCache,
    DistributedQueryCache,
    KeyValueStore,
)
from repro.core.cache.intelligent import IntelligentCache
from repro.core.cache.literal import LiteralCache
from repro.core.cache.replicated import ReplicatedStore
from repro.core.coalesce import JoinTicket, SingleFlightRegistry
from repro.core.executor import ConcurrentQueryExecutor
from repro.core.pipeline import QueryPipeline
from repro.dashboard.render import DashboardSession
from repro.tde.engine import DataEngine
from repro.tde.exec.physical import PIndexedRleScan
from repro.tde.plancache import PlanCache

from .reference import CheckFailure

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Probe:
    """Installs timing wrappers and accumulates what they see."""

    def __init__(self):
        self.timings: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(probe._local, "stack", None)
            if stack is None:
                stack = probe._local.stack = []
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with probe._lock:
                    entry = probe.timings.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]
            if on_result is not None:
                on_result(args, out)
            return out

        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        count = self.count
        hit = lambda name: lambda _a, out: count(name, out is not None)  # noqa: E731
        self.wrap(IntelligentCache, "lookup", "intelligent.lookup",
                  lambda a, out: (count("intelligent.hits", out is not None),
                                  count("intelligent.entries_seen", len(a[0]))))
        self.wrap(DistributedQueryCache, "get", "tier.get")
        self.wrap(DistributedQueryCache, "put", "tier.put")
        self.wrap(distributed_mod, "serialize_table", "tier.serialize",
                  lambda _a, out: count("tier.bytes", len(out)))
        self.wrap(distributed_mod, "deserialize_table", "tier.deserialize",
                  lambda a, _out: count("tier.bytes", len(a[0])))
        for store in (KeyValueStore, ReplicatedStore):
            self.wrap(store, "get", f"store.{store.__name__}.get")
            self.wrap(store, "put", f"store.{store.__name__}.put")
        self.wrap(DistributedLiteralCache, "get", "literal.get", hit("literal.hits"))
        self.wrap(LiteralCache, "get", "literal.get", hit("literal.hits"))
        self.wrap(SingleFlightRegistry, "lead_or_join", "coalesce.lead_or_join",
                  lambda _a, out: count("coalesce.joins", out[1] is not None))
        self.wrap(JoinTicket, "wait", "coalesce.wait")
        self.wrap(ConcurrentQueryExecutor, "run_batch", "executor.run_batch")
        self.wrap(ConnectionPool, "acquire", "pool.acquire")
        self.wrap(QueryPipeline, "run_batch", "pipeline.run_batch")
        self.wrap(QueryPipeline, "invalidate", "pipeline.invalidate")
        self.wrap(pipeline_mod, "fuse_batch", "fusion.fuse_batch",
                  lambda a, out: count("fusion.fused_away", len(a[0]) - len(out)))
        self.wrap(pipeline_mod, "build_batch_graph", "batch.build_batch_graph",
                  lambda _a, out: count("batch.local", len(out.local)))
        self.wrap(DashboardSession, "render", "dashboard.render",
                  lambda _a, out: count("dashboard.render_iterations", out.iterations))
        self.wrap(pipeline_mod, "compile_spec", "compile")
        for module in (pipeline_mod, intelligent_mod, executor_mod):
            self.wrap(module, "apply_post_ops", "postops")
        self.wrap(compile_mod, "generate_sql", "sql.generate")
        self.wrap(simdb_mod, "parse_statement", "sql.parse")
        self.wrap(SimSession, "execute", "simdb.execute", self._on_simdb_execute)
        self.wrap(SimulatedDatabase, "service", "simdb.service")
        self.wrap(DataEngine, "query", "tde.query")
        self.wrap(DataEngine, "plan", "tde.plan",
                  lambda _a, out: count("tde.indexed_scans", sum(
                      isinstance(node, PIndexedRleScan) for node in out.walk())))
        self.wrap(PlanCache, "get", "plancache.get", hit("plancache.hits"))
        self.wrap(DataEngine, "load_pydict", "tde.build")

    def _on_simdb_execute(self, args, out) -> None:
        if args[1].lstrip()[:6].upper() == "SELECT":
            self.count("simdb.selects")
            self.count("simdb.rows", out.n_rows)


def _pipelines(workload) -> list:
    server = workload.server
    if hasattr(server, "nodes"):
        return [node.pipeline for node in server.nodes]
    return [server.get(name).pipeline for name in server.published_names()]


def _tier_caches(workload) -> list:
    server = workload.server
    if hasattr(server, "nodes"):
        return [node.distributed for node in server.nodes]
    return [p.literal_cache.cache for p in _pipelines(workload)]


def _snapshot(workload) -> dict:
    """Counters the program keeps itself, for the two-path checks."""
    snap = {
        "remote_queries": sum(p.executor.remote_queries_sent for p in _pipelines(workload)),
        "l1_hits": sum(c.l1_hits for c in _tier_caches(workload)),
        "tier_gets": sum(c.l1_hits + c.l2_hits + c.misses for c in _tier_caches(workload)),
    }
    db = getattr(workload, "db", None)
    if db is not None:
        snap["simdb_queries"] = db.stats.queries
        snap["simdb_rows"] = db.stats.rows_transferred
    return snap


def traced_run(workload, seconds: float, run_rounds) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds, driven by ``run_rounds``;
    return the per-layer metrics and a summary."""
    probe = Probe()
    walls = {False: [], True: []}
    program = {}

    def on_round(r: int, elapsed: float) -> None:
        traced = r % 2 == 0
        walls[traced].append(elapsed)
        if traced:
            probe.uninstall()
            after = _snapshot(workload)
            for key, value in after.items():
                program[key] = program.get(key, 0) + value - before[0][key]
        else:
            before[0] = _snapshot(workload)
            probe.install()

    before = [None]
    # Round 1 runs untraced; on_round then installs the probe for round 2.
    try:
        _wall, rounds = run_rounds(workload, seconds, on_round=on_round, multiple=2)
    finally:
        probe.uninstall()

    # Two independent paths to one count must agree exactly.
    engine_queries = probe.timings.get("tde.query", [0])[0]
    if engine_queries != program["remote_queries"]:
        raise CheckFailure(
            f"DataEngine.query ran {engine_queries} times but the executors "
            f"sent {program['remote_queries']} remote queries"
        )
    if "simdb_queries" in program:
        if probe.counts.get("simdb.selects", 0) != program["simdb_queries"]:
            raise CheckFailure(
                f"SimSession.execute saw {probe.counts.get('simdb.selects', 0)} SELECTs "
                f"but SimulatedDatabase.stats counted {program['simdb_queries']}"
            )
        if probe.counts.get("simdb.rows", 0) != program["simdb_rows"]:
            raise CheckFailure("simdb rows transferred disagree between wrapper and stats")

    n_traced = len(walls[True])
    t = probe.timings
    c = probe.counts

    def calls(name):
        return t.get(name, [0])[0]

    def mean_ms(name, column=1):
        entry = t.get(name)
        return entry[column] / entry[0] * 1000.0 if entry and entry[0] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def per_round(value):
        return value / n_traced

    values = {
        "intelligent.lookup_ms": (mean_ms("intelligent.lookup"), "ms"),
        "intelligent.lookups": (per_round(calls("intelligent.lookup")), "count"),
        "intelligent.hit_ratio": (ratio(c.get("intelligent.hits", 0), calls("intelligent.lookup")), "ratio"),
        "intelligent.entries": (ratio(c.get("intelligent.entries_seen", 0), calls("intelligent.lookup")), "count"),
        "tier.get_ms": (mean_ms("tier.get"), "ms"),
        "tier.put_ms": (mean_ms("tier.put"), "ms"),
        "tier.serialize_ms": (mean_ms("tier.serialize"), "ms"),
        "tier.deserialize_ms": (mean_ms("tier.deserialize"), "ms"),
        "tier.l1_hit_ratio": (ratio(program["l1_hits"], program["tier_gets"]), "ratio"),
        "tier.mb_moved": (per_round(c.get("tier.bytes", 0)) / 1e6, "MB"),
        "literal.hit_ratio": (ratio(c.get("literal.hits", 0), calls("literal.get")), "ratio"),
        "coalesce.joins": (per_round(c.get("coalesce.joins", 0)), "count"),
        "coalesce.wait_ms": (mean_ms("coalesce.wait"), "ms"),
        "executor.run_batch_ms": (mean_ms("executor.run_batch"), "ms"),
        "pool.acquire_wait_ms": (mean_ms("pool.acquire"), "ms"),
        "pipeline.run_batch_ms": (mean_ms("pipeline.run_batch", column=2), "ms"),
        "pipeline.batches": (per_round(calls("pipeline.run_batch")), "count"),
        "fusion.fused_away": (per_round(c.get("fusion.fused_away", 0)), "count"),
        "batch.local": (per_round(c.get("batch.local", 0)), "count"),
        "dashboard.render_iterations": (per_round(c.get("dashboard.render_iterations", 0)), "count"),
        "compile.ms": (mean_ms("compile"), "ms"),
        "postops.ms": (mean_ms("postops"), "ms"),
        "sql.parse_ms": (mean_ms("sql.parse"), "ms"),
        "simdb.queries": (per_round(c.get("simdb.selects", 0)), "count"),
        "simdb.service_ms": (mean_ms("simdb.service"), "ms"),
        "simdb.rows_transferred": (per_round(c.get("simdb.rows", 0)), "count"),
        "tde.queries": (per_round(calls("tde.query")), "count"),
        "tde.query_ms": (mean_ms("tde.query"), "ms"),
        "tde.plan_ms": (mean_ms("tde.plan"), "ms"),
        "plancache.hit_ratio": (ratio(c.get("plancache.hits", 0), calls("plancache.get")), "ratio"),
        "tde.indexed_scans": (per_round(c.get("tde.indexed_scans", 0)), "count"),
        "tde.build_ms": (mean_ms("tde.build"), "ms"),
        "dataserver.invalidate_ms": (mean_ms("pipeline.invalidate"), "ms"),
        "trace.overhead_ratio": (
            statistics.median(walls[True]) / statistics.median(walls[False]), "ratio"),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    table = {
        name: {"calls": e[0], "inclusive_ms": e[1] * 1000.0, "self_ms": e[2] * 1000.0}
        for name, e in sorted(t.items())
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"layers-{workload.name}-{workload.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "traced_rounds": n_traced, "round_walls_s": walls[True],
                   "untraced_round_walls_s": walls[False], "metrics": metrics,
                   "counts": c, "program_counters": program, "calls": table},
                  fh, indent=1, sort_keys=True)
    summary = {"rounds": rounds, "traced_rounds": n_traced, "layers_file": path,
               "engine_queries": engine_queries}
    return metrics, summary
