"""Answer checks that do not depend on the program under test.

:class:`Reference` answers a zone query straight from the generated
flight rows with plain Python loops: it joins the dimension rows by hand,
evaluates the few calculations the dashboards use, filters, groups and
aggregates. It shares no code with the query path it checks; it only
reads the spec's fields (dimensions, measures, filters, ordering).

Rows are sorted by date, so a refreshed extract that grew by whole days
holds a *prefix* of a longer generated row list. ``answers`` therefore
takes several prefix lengths and computes every version in one pass.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter

# The calculated fields of ``repro.workloads.flights_model``, restated.
_CALCULATED = {
    "weekday": lambda row: row["date_"].weekday(),
    "delayed": lambda row: None if row["arr_delay"] is None else row["arr_delay"] > 15.0,
    "dep_delay_hours": lambda row: None if row["dep_delay"] is None else row["dep_delay"] / 60.0,
}

REL_TOL = 1e-9


class CheckFailure(AssertionError):
    """An answer disagreed with the reference or broke a property."""


class Reference:
    """Pure-Python answers over one generated flights dataset."""

    def __init__(self, dataset):
        flights = dataset.flights
        n = len(flights["date_"])
        carriers = {
            cid: (code, name)
            for cid, code, name in zip(
                dataset.carriers["id"], dataset.carriers["code"], dataset.carriers["carrier_name"]
            )
        }
        markets = {
            mid: (market, origin, dest)
            for mid, market, origin, dest in zip(
                dataset.markets["mid"],
                dataset.markets["market"],
                dataset.markets["origin_airport"],
                dataset.markets["dest_airport"],
            )
        }
        cols: dict[str, list] = {name: list(values) for name, values in flights.items()}
        cols["code"] = [carriers[c][0] for c in flights["carrier_id"]]
        cols["carrier_name"] = [carriers[c][1] for c in flights["carrier_id"]]
        cols["market"] = [markets[m][0] for m in flights["market_id"]]
        cols["origin_airport"] = [markets[m][1] for m in flights["market_id"]]
        cols["dest_airport"] = [markets[m][2] for m in flights["market_id"]]
        for name, fn in _CALCULATED.items():
            cols[name] = [
                fn({"date_": d, "arr_delay": a, "dep_delay": p})
                for d, a, p in zip(flights["date_"], flights["arr_delay"], flights["dep_delay"])
            ]
        self.cols = cols
        self.n_rows = n
        self._inverted: dict[str, dict] = {}

    # ------------------------------------------------------------------ #
    def _rows_matching(self, field: str, values) -> set[int]:
        index = self._inverted.get(field)
        if index is None:
            index = {}
            for i, v in enumerate(self.cols[field]):
                index.setdefault(v, []).append(i)
            self._inverted[field] = index
        out: set[int] = set()
        for v in values:
            out.update(index.get(v, ()))
        return out

    def _selected_rows(self, spec, limit: int) -> list[int]:
        """Row ids (ascending, < ``limit``) passing every non-top-N filter."""
        lo, hi = 0, limit
        keep: set[int] | None = None
        for f in spec.filters:
            kind = type(f).__name__
            if kind == "RangeFilter":
                if f.field != "date_":
                    raise CheckFailure(f"reference has no range filter on {f.field!r}")
                dates = self.cols["date_"]
                if f.low is not None:
                    lo = max(lo, bisect.bisect_left(dates, f.low))
                if f.high is not None:
                    hi = min(hi, bisect.bisect_left(dates, f.high))
            elif kind == "CategoricalFilter":
                rows = self._rows_matching(f.field, f.values)
                if f.exclude:
                    rows = set(range(self.n_rows)) - rows
                keep = rows if keep is None else keep & rows
            elif kind != "TopNFilter":
                raise CheckFailure(f"reference has no filter kind {kind}")
        if keep is None:
            return list(range(lo, hi))
        return sorted(i for i in keep if lo <= i < hi)

    def _measure_input(self, agg):
        """(column, cast-to-int) for one aggregate's argument."""
        if agg.arg is None:
            return None, False
        arg = agg.arg
        cast = False
        if type(arg).__name__ == "Cast":
            cast = True
            arg = arg.arg
        if type(arg).__name__ != "ColumnRef":
            raise CheckFailure(f"reference cannot evaluate {arg!r}")
        return self.cols[arg.name], cast

    # ------------------------------------------------------------------ #
    def answers(self, spec, versions: list[int]) -> dict[int, list[tuple]]:
        """Result rows of ``spec`` over each prefix of ``versions`` rows.

        Returns ``{n_rows: [row tuple, ...]}`` with columns in the spec's
        output order (dimensions, then measure aliases), unordered.
        """
        versions = sorted(set(versions))
        rows = self._selected_rows(spec, versions[-1])
        dims = [self.cols[d] for d in spec.dimensions]
        inputs = [self._measure_input(agg) for _alias, agg in spec.measures]
        funcs = [agg.func for _alias, agg in spec.measures]
        for func in funcs:
            if func not in ("count", "sum", "avg"):
                raise CheckFailure(f"reference has no aggregate {func!r}")
        topn = [f for f in spec.filters if type(f).__name__ == "TopNFilter"]
        groups: dict[tuple, list] = {}
        topn_counts: list[Counter] = [Counter() for _ in topn]
        out: dict[int, list[tuple]] = {}
        boundaries = iter(versions)
        boundary = next(boundaries)
        for i in rows:
            while i >= boundary:
                out[boundary] = self._finish(spec, groups, funcs, topn, topn_counts)
                boundary = next(boundaries)
            key = tuple(col[i] for col in dims)
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = [[0, 0.0] for _ in funcs]
            for slot, (col, cast) in zip(acc, inputs):
                if col is None:
                    slot[0] += 1
                    continue
                value = col[i]
                if value is None:
                    continue
                slot[0] += 1
                slot[1] += int(value) if cast else value
            for counter, f in zip(topn_counts, topn):
                if f.by.func != "count" or f.by.arg is not None:
                    raise CheckFailure("reference supports top-N by COUNT(*) only")
                counter[self.cols[f.field][i]] += 1
        for remaining in [boundary, *boundaries]:
            out[remaining] = self._finish(spec, groups, funcs, topn, topn_counts)
        return out

    @staticmethod
    def _finish(spec, groups, funcs, topn, topn_counts) -> list[tuple]:
        allowed = []
        for f, counter in zip(topn, topn_counts):
            ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
            allowed.append((spec.dimensions.index(f.field), {k for k, _c in ranked[: f.n]}))
        rows = []
        if not spec.dimensions and not groups:
            # A grand total over no rows is still one row.
            groups = {(): [[0, 0.0] for _ in funcs]}
        for key, acc in groups.items():
            if any(key[pos] not in keep for pos, keep in allowed):
                continue
            values = []
            for func, (count, total) in zip(funcs, acc):
                if func == "count":
                    values.append(count)
                elif func == "sum":
                    values.append(total if count else None)
                else:
                    values.append(total / count if count else None)
            rows.append(key + tuple(values))
        return rows


# ---------------------------------------------------------------------- #
# Comparisons and properties
# ---------------------------------------------------------------------- #
def values_close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)
    return a == b


def table_rows(table) -> tuple[list[str], list[tuple]]:
    names = list(table.column_names)
    columns = [table.column(n).python_values() for n in names]
    return names, list(zip(*columns)) if columns else []


def check_table(spec, table, expected_rows: list[tuple], what: str) -> None:
    """Raise unless ``table`` is the spec's answer ``expected_rows``."""
    names, got = table_rows(table)
    want_names = list(spec.dimensions) + [alias for alias, _agg in spec.measures]
    if names != want_names:
        raise CheckFailure(f"{what}: columns {names} != {want_names}")
    if len(got) != len(expected_rows):
        raise CheckFailure(f"{what}: {len(got)} rows, reference has {len(expected_rows)}")
    n_dims = len(spec.dimensions)
    by_key = {row[:n_dims]: row for row in expected_rows}
    if len(by_key) != len(expected_rows):
        raise CheckFailure(f"{what}: reference groups are not unique")
    for row in got:
        ref = by_key.get(row[:n_dims])
        if ref is None or not all(values_close(a, b) for a, b in zip(row, ref)):
            raise CheckFailure(f"{what}: row {row} differs from reference {ref}")
    check_order(spec, names, got, what)


def check_order(spec, names, rows, what: str) -> None:
    """Rows of an ordered zone respect its ordering keys."""
    if not spec.order_by:
        return
    key_pos = [(names.index(k), asc) for k, asc in spec.order_by]
    for prev, cur in zip(rows, rows[1:]):
        for pos, asc in key_pos:
            a, b = prev[pos], cur[pos]
            if a == b:
                continue
            if (a < b) != asc:
                raise CheckFailure(f"{what}: rows out of order at {prev} -> {cur}")
            break


def check_record_count(zone_tables: dict, what: str) -> None:
    """Figure 1: the record count equals the carriers zone's total flights."""
    if "record_count" not in zone_tables or "carriers" not in zone_tables:
        return
    _n, rc = table_rows(zone_tables["record_count"])
    _n, carriers = table_rows(zone_tables["carriers"])
    records = rc[0][0] if rc else 0
    flights = sum(row[1] for row in carriers)
    if records != flights:
        raise CheckFailure(f"{what}: record count {records} != carriers' flights {flights}")


def check_top5(zone_tables: dict, what: str) -> None:
    """Figure 2: the top-5 carrier zone holds at most five rows, by count."""
    table = zone_tables.get("carrier")
    if table is None:
        return
    names, rows = table_rows(table)
    if len(rows) > 5:
        raise CheckFailure(f"{what}: top-5 carrier zone holds {len(rows)} rows")
    counts = [row[names.index("flights_per_day")] for row in rows]
    if counts != sorted(counts, reverse=True):
        raise CheckFailure(f"{what}: top-5 carrier zone not ordered by count: {counts}")
