"""Response-time benchmark: one seeded workload per run.

Run from the repository root:

    python3 rtbench/run.py --workload extract-explore --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload with per-layer wrappers installed on every
second round and reports the per-layer metrics instead (see
``rtbench/layers.py``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

#: Untimed events replayed before the timed rounds (lazy imports, pools,
#: first-call costs).
WARMUP_EVENTS = 40
#: Timed rounds per run, at least: each round makes one refresh, so the
#: refresh and fresh-load medians rest on at least this many samples.
MIN_ROUNDS = 3


def run_rounds(workload, seconds: float, on_round=None, multiple: int = 1) -> tuple[float, int]:
    """Warm up, then run whole rounds until ``seconds`` have passed, at
    least ``MIN_ROUNDS`` have run, and the number of rounds is a multiple
    of ``multiple``."""

    def one_round(r: int, timed: bool, events) -> float:
        barrier = threading.Barrier(workload.threads)
        errors: list[BaseException] = []

        def client(tid: int) -> None:
            try:
                workload.run_round(r, tid, barrier, timed, events)
            except BaseException as exc:  # re-raised below, in the main thread
                errors.append(exc)
                barrier.abort()

        started = time.perf_counter()
        threads = [threading.Thread(target=client, args=(t,)) for t in range(workload.threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            real = [e for e in errors if not isinstance(e, threading.BrokenBarrierError)]
            raise (real or errors)[0]
        return time.perf_counter() - started

    one_round(0, False, workload.events[:WARMUP_EVENTS])
    gc.collect()
    started = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        elapsed = one_round(rounds, True, workload.events)
        if on_round is not None:
            on_round(rounds, elapsed)
        if (time.perf_counter() - started >= seconds and rounds >= MIN_ROUNDS
                and rounds % multiple == 0):
            break
    return time.perf_counter() - started, rounds


def check_answers(workload) -> int:
    """Compare every distinct answered spec with the pure-Python reference."""
    from rtbench.reference import Reference, check_table

    reference = Reference(workload.dataset)
    prefix = workload.references()
    by_spec: dict[str, list] = {}
    for (version, key), (spec, table) in workload.answers.first.items():
        by_spec.setdefault(key, []).append((version, spec, table))
    for key, entries in by_spec.items():
        spec = entries[0][1]
        expected = reference.answers(spec, [prefix[v] for v, _s, _t in entries])
        for version, _spec, table in entries:
            check_table(spec, table, expected[prefix[version]], f"v{version} {key}")
    return len(workload.answers.first)


def end_to_end(workload, setup_s: float, wall_s: float) -> dict:
    lat = workload.samples.latency
    ms = {k: [v * 1000.0 for v in values] for k, values in lat.items()}
    # A round's fresh loads (one per dashboard) cost differently per
    # dashboard; their mean per round is the sample the median is over.
    per = workload.fresh_per_round
    fresh = [statistics.fmean(ms["fresh"][i:i + per]) for i in range(0, len(ms["fresh"]), per)]
    metrics = {
        "load_p50_ms": (statistics.median(ms["load"]), "ms"),
        "load_mean_ms": (statistics.fmean(ms["load"]), "ms"),
        "select_p50_ms": (statistics.median(ms["select"]), "ms"),
        "select_mean_ms": (statistics.fmean(ms["select"]), "ms"),
        "throughput_rps": (workload.samples.attempted / wall_s, "1/s"),
        "refresh_p50_ms": (statistics.median(ms["refresh"]), "ms"),
        "fresh_load_p50_ms": (statistics.median(fresh), "ms"),
        "cache_mb": (workload.cache_bytes() / 1e6, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program under test from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    from rtbench.reference import CheckFailure
    from rtbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.generate()
    # The generated rows live for the whole run. Freezing them keeps the
    # collector from rescanning the harness's own objects on the
    # program's time, during set-up and the timed rounds alike.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - started

    correct = True
    metrics: dict = {}
    summary: dict = {}
    try:
        if args.trace:
            from rtbench.layers import traced_run

            metrics, summary = traced_run(workload, args.seconds, run_rounds)
        else:
            wall_s, rounds = run_rounds(workload, args.seconds)
            metrics = end_to_end(workload, setup_s, wall_s)
            summary = {"rounds": rounds, "wall_s": round(wall_s, 3)}
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    if correct:
        try:
            summary["specs_checked"] = check_answers(workload)
            summary["answers_compared"] = workload.answers.compared
        except CheckFailure as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    counts = {k: len(v) for k, v in workload.samples.latency.items()}
    miss_share = {k: round(m / counts[k], 4) for k, m in workload.samples.misses.items() if counts[k]}
    print(f"{workload.name} seed={args.seed} {summary} samples={counts} "
          f"miss_share={miss_share}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": workload.samples.attempted,
        "failed": workload.samples.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
