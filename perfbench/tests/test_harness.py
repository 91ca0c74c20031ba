"""Tests of the benchmark harness: span reduction, exact attribution of the
logical counters, and removal of every wrapper.

    python3 -m pytest perfbench/tests
"""

from types import SimpleNamespace

import pytest
from moealab import metrics

import workloads
from spans import TracePoint, Tracer, counters_arg


class Toy:
    def outer(self, counters):
        counters.dominance_comparisons += 1
        self.inner(counters)
        self.inner(counters)

    def inner(self, counters):
        counters.dominance_comparisons += 2
        counters.cell_lookups += 1


def _toy_points():
    return [
        TracePoint("toy.outer", Toy, "outer", counters_arg(1)),
        TracePoint("toy.inner", Toy, "inner", counters_arg(1)),
    ]


def test_self_time_is_duration_minus_child_coverage():
    # outer 0..40 holds inner 10..13 and 20..26
    ticks = iter([0, 10, 13, 20, 26, 40])
    counters = SimpleNamespace(dominance_comparisons=0, cell_lookups=0)
    tracer = Tracer(_toy_points(), clock=lambda: next(ticks))
    with tracer:
        Toy().outer(counters)
    rows = tracer.reduce()
    assert rows["toy.outer"]["self_ns"] == 40 - (3 + 6)
    assert rows["toy.inner"]["self_ns"] == 3 + 6
    assert rows["toy.inner"]["calls"] == 2
    assert rows["toy.outer"]["cmp"] == 1
    assert rows["toy.inner"]["cmp"] == 4
    assert rows["toy.outer"]["cells"] == 0
    assert rows["toy.inner"]["cells"] == 2
    assert tracer.parent == [-1, 0, 0]


def test_wrappers_restored_after_an_error():
    originals = {name: vars(Toy)[name] for name in ("outer", "inner")}
    tracer = Tracer(_toy_points())
    with pytest.raises(AttributeError):
        with tracer:
            assert vars(Toy)["outer"] is not originals["outer"]
            Toy().outer(None)
    assert tracer.restored()
    assert all(vars(Toy)[name] is fn for name, fn in originals.items())
    assert tracer.end[0] >= tracer.start[0]


@pytest.mark.parametrize("name", sorted(workloads.EA_WORKLOADS))
def test_ea_trace_attributes_every_count_and_changes_nothing(name, monkeypatch, tmp_path):
    spec = {**workloads.EA_WORKLOADS[name], "budget": 400}
    monkeypatch.setitem(workloads.EA_WORKLOADS, name, spec)
    originals = [(p.owner, p.attr, vars(p.owner)[p.attr]) for p in workloads.trace_points()]

    result = workloads.traced_unit(name, 7, tmp_path / "spans.csv")

    assert all(result["checks"].values()), result["checks"]
    layers, detail = result["layers"], result["detail"]
    assert sum(layers[f"{n}.cmp"] for n in workloads.CMP_SPANS) == detail["dominance_comparisons"]
    assert (
        sum(layers[f"{n}.cell_lookups"] for n in workloads.CELL_SPANS) == detail["cell_lookups"]
    )
    assert layers["engine.step.calls"] > 0
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert (tmp_path / "spans.csv").read_text().startswith("id,parent,name,")


def test_trace_counts_repeat_exactly(monkeypatch, tmp_path):
    name = "ea-grid-zdt1"
    monkeypatch.setitem(workloads.EA_WORKLOADS, name, {**workloads.EA_WORKLOADS[name], "budget": 300})
    first, second = (
        workloads.traced_unit(name, 3, tmp_path / f"{i}.csv")["layers"] for i in range(2)
    )
    counts = [k for k in first if k.endswith((".calls", ".cmp", ".cell_lookups", ".history_rows"))]
    assert counts and all(first[k] == second[k] for k in counts)


def test_sweep_checks_every_gps_archive_and_restores_the_factory(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_SIZES", {"rn": (4, 8), "gps": (16, 32, 64)})
    factory = metrics._sweep_archive

    unit = workloads.execute(workloads.SWEEP, 5)

    assert unit["gps_monotonic"] == [True, True, True]
    assert workloads.check(workloads.SWEEP, unit)["gps_monotonic"]
    assert metrics._sweep_archive is factory
