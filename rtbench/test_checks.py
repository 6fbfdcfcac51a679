"""Negative controls for the benchmark's answer checks.

Run from the repository root:

    python3 -m pytest rtbench/test_checks.py -q

A check that never fails proves nothing, so each test perturbs a correct
answer and asserts that the check rejects it.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from repro.connectors import TdeDataSource  # noqa: E402
from repro.core.pipeline import QueryPipeline  # noqa: E402
from repro.dashboard.render import DashboardSession  # noqa: E402
from repro.tde.storage.table import Table  # noqa: E402
from repro.workloads import fig1_dashboard, fig2_dashboard, flights_model, generate_flights  # noqa: E402

from rtbench.reference import (  # noqa: E402
    CheckFailure,
    Reference,
    check_record_count,
    check_table,
    check_top5,
    table_rows,
)
from rtbench.workloads import AnswerLog, SessionModel, month_dashboard  # noqa: E402

ROWS = 3000


@pytest.fixture(scope="module")
def served():
    """Zone answers from the real pipeline, with their specs."""
    dataset = generate_flights(ROWS, seed=5)
    engine = dataset.load_into_engine()
    pipeline = QueryPipeline(TdeDataSource(engine), flights_model())
    out = []
    for dashboard in (fig1_dashboard(), fig2_dashboard(), month_dashboard(3)):
        session = DashboardSession(dashboard, pipeline)
        model = SessionModel(dashboard)
        result = session.render()
        out.append((model, result.zone_tables))
    session = DashboardSession(fig1_dashboard(), pipeline)
    model = SessionModel(session.dashboard)
    session.render()
    result = session.select("origin_map", (3,))
    model.selections["origin_map"] = (3,)
    out.append((model, result.zone_tables))
    return Reference(dataset), out


def _perturb(table: Table, column: str) -> Table:
    data = table.to_pydict()
    data[column] = [data[column][0] + 1] + data[column][1:]
    return Table.from_pydict(data, types=table.schema())


def test_program_answers_match_reference(served):
    reference, answers = served
    checked = 0
    for model, tables in answers:
        for zone, table in tables.items():
            spec = model.spec(zone)
            check_table(spec, table, reference.answers(spec, [ROWS])[ROWS], zone)
            checked += 1
        check_record_count(tables, "served")
        check_top5(tables, "served")
    assert checked >= 15


def test_perturbed_table_fails_reference(served):
    reference, answers = served
    model, tables = answers[0]
    spec = model.spec("carriers")
    bad = _perturb(tables["carriers"], "flights")
    with pytest.raises(CheckFailure):
        check_table(spec, bad, reference.answers(spec, [ROWS])[ROWS], "carriers")


def test_reference_over_a_prefix_differs(served):
    reference, answers = served
    model, tables = answers[0]
    spec = model.spec("record_count")
    with pytest.raises(CheckFailure):
        check_table(spec, tables["record_count"], reference.answers(spec, [ROWS - 10])[ROWS - 10],
                    "record_count")


def test_record_count_property_fails_when_perturbed(served):
    _reference, answers = served
    _model, tables = answers[0]
    bad = dict(tables, record_count=_perturb(tables["record_count"], "records"))
    with pytest.raises(CheckFailure):
        check_record_count(bad, "perturbed")


def test_top5_property_fails_on_six_rows_or_wrong_order():
    six = Table.from_pydict({"code": list("ABCDEF"), "flights_per_day": [9, 8, 7, 6, 5, 4]})
    with pytest.raises(CheckFailure):
        check_top5({"carrier": six}, "six rows")
    unordered = Table.from_pydict({"code": list("ABC"), "flights_per_day": [1, 3, 2]})
    with pytest.raises(CheckFailure):
        check_top5({"carrier": unordered}, "unordered")


def test_answer_log_rejects_disagreeing_nodes(served):
    _reference, answers = served
    model, tables = answers[0]
    spec = model.spec("carriers")
    log = AnswerLog()
    log.record(0, spec, tables["carriers"], ("node0", 0, 1))
    same = Table.from_pydict(tables["carriers"].to_pydict(), types=tables["carriers"].schema())
    log.record(0, spec, same, ("node1", 0, 1))
    with pytest.raises(CheckFailure):
        log.record(0, spec, _perturb(tables["carriers"], "flights"), ("node1", 1, 1))
    assert table_rows(same) == table_rows(tables["carriers"])
