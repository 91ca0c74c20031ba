"""The benchmark's workloads, the checks on their outputs, and the traced
variant that reduces spans to per-layer metrics.

Why each workload exists is recorded in BENCHMARK.json; the layer each
per-layer metric should move is mapped in README.md.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from moealab import engine, metrics
from moealab.archives import Archive, GpsArchive, GridArchive, RnArchive
from moealab.archives import base as archives_base
from moealab.engine import ArchiveConfig, DeteriorationTracker, RunConfig
from moealab.problems import evaluate, get_problem

from spans import TracePoint, Tracer, counters_arg, empty_row, state_counters

# budgets are chosen so one run() takes a few seconds, which lets a benchmark
# run take the median over several seeds; the layer each workload stresses
# still dominates at these sizes
EA_WORKLOADS = {
    "ea-grid-zdt1": {"kind": "grid", "preset": None, "budget": 5_000},
    "ea-rn-zdt1": {"kind": "rn", "preset": 3, "budget": 1_500},
}
SWEEP = "archive-sweep"
# rn stops at 100: acceptance 2 goes on to 200, which alone takes ~6 s and
# would leave a run too few units for a steady median. gps is far cheaper per
# insertion, so its sizes are larger to make its sweep long enough to time;
# grid stops at 200 so that rn's truncation stays the largest layer
SWEEP_SIZES = {
    "rn": (25, 50, 100),
    "grid": (50, 100, 200),
    "gps": (512, 1024, 2048, 4096),
}
WORKLOADS = (*EA_WORKLOADS, SWEEP)

RN_SLOPE_BAND = (0.8, 1.2)
GPS_SLOPE_BAND = (-0.2, 0.2)


def ea_config(name: str, seed: int) -> RunConfig:
    spec = EA_WORKLOADS[name]
    return RunConfig(
        problem="zdt1",
        archive=ArchiveConfig(spec["kind"], capacity=100),
        population_size=40,
        replacement_count=1,
        preset=spec["preset"],
        max_evaluations=spec["budget"],
        seed=seed,
    )


def prepare(name: str, seed: int) -> None:
    """The set-up a user pays before a run: validate the config and build the
    initial state. The sweep builds its archives inside the timed call."""
    if name in EA_WORKLOADS:
        config = ea_config(name, seed)
        config.validate()
        engine.initialize(config)


@contextmanager
def _gps_monotonic(into: list[bool]):
    """Record, for each gps archive complexity_sweep() builds, whether its
    monotonicity tripwire stayed at 0 (what run() reports as gps_monotonic).

    An archive is read when the sweep asks for the next one and once the
    sweep returns, so none is kept alive longer than the sweep keeps it.
    """
    original = metrics._sweep_archive
    current: list[GpsArchive] = []

    def record() -> None:
        while current:
            into.append(current.pop().monotonicity_violations == 0)

    def sweep_archive(kind: str, size: int):
        record()
        archive = original(kind, size)
        if isinstance(archive, GpsArchive):
            current.append(archive)
        return archive

    metrics._sweep_archive = sweep_archive
    try:
        yield
    finally:
        metrics._sweep_archive = original
        record()


def execute(name: str, seed: int) -> dict:
    """Run one unit of the workload. Returns the candidates offered (`ops`),
    the wall time, a JSON-ready `detail`, and `output` for equality checks."""
    if name in EA_WORKLOADS:
        started = time.perf_counter()
        result = engine.run(ea_config(name, seed))
        wall = time.perf_counter() - started
        summary = result.summary
        front = [(s.id, s.genome, s.objectives.values) for s in result.front]
        return {
            "ops": summary["evaluations"],
            "wall_s": wall,
            "detail": {
                "gd_final": summary["metrics"]["gd"],
                "front_size": summary["front_size"],
                "dominance_comparisons": summary["dominance_comparisons"],
                "cell_lookups": summary["cell_lookups"],
                "deterioration_events": summary["deterioration_events"],
            },
            "output": (summary, front),
        }
    per_kind = {}
    reports = {}
    monotonic: list[bool] = []
    wall = 0.0
    inserts_per_size = 1 + metrics._MEASURED_MULTIPLE  # warm-up plus measured
    for kind, sizes in SWEEP_SIZES.items():
        with _gps_monotonic(monotonic):
            started = time.perf_counter()
            report = metrics.complexity_sweep(kind, sizes, seed)
            elapsed = time.perf_counter() - started
        inserts = inserts_per_size * sum(sizes)
        wall += elapsed
        reports[kind] = report.to_dict()
        per_kind[kind] = {
            "wall_s": elapsed,
            "inserts": inserts,
            "us_per_insert": elapsed / inserts * 1e6,
            "slope": report.slope,
        }
    return {
        "ops": sum(k["inserts"] for k in per_kind.values()),
        "wall_s": wall,
        "detail": per_kind,
        "output": reports,
        "gps_monotonic": monotonic,
    }


def _pairwise_nondominated(objectives: np.ndarray) -> bool:
    # independent of core.nondominated_filter: one all-pairs broadcast
    leq = (objectives[:, None, :] <= objectives[None, :, :]).all(axis=2)
    lt = (objectives[:, None, :] < objectives[None, :, :]).any(axis=2)
    return not bool((leq & lt).any())


def check(name: str, unit: dict) -> dict[str, bool]:
    """Correctness checks on one unit's outputs, by name."""
    if name == SWEEP:
        rn = unit["detail"]["rn"]["slope"]
        gps = unit["detail"]["gps"]["slope"]
        return {
            "rn_slope_in_band": RN_SLOPE_BAND[0] <= rn <= RN_SLOPE_BAND[1],
            "gps_slope_in_band": GPS_SLOPE_BAND[0] <= gps <= GPS_SLOPE_BAND[1],
            "gps_monotonic": len(unit["gps_monotonic"]) == len(SWEEP_SIZES["gps"])
            and all(unit["gps_monotonic"]),
        }
    summary, front = unit["output"]
    problem = get_problem(summary["problem"])
    objectives = np.asarray([values for _, _, values in front], dtype=float)
    checks = {
        "front_nonempty": len(front) > 0,
        "front_pairwise_nondominated": len(front) > 0 and _pairwise_nondominated(objectives),
        "front_objectives_reevaluate": all(
            evaluate(problem, genome).values == values for _, genome, values in front
        ),
        "evaluations_equal_budget": summary["evaluations"] == EA_WORKLOADS[name]["budget"],
    }
    if "gps_monotonic" in summary:
        checks["gps_monotonic"] = bool(summary["gps_monotonic"])
    return checks


def _accepted(args: tuple, result) -> int:
    return int(result[0].accepted)


def _history_rows(args: tuple, result) -> int:
    return args[0]._used


def trace_points() -> list[TracePoint]:
    """Every callable run() and complexity_sweep() look up at call time that
    enters one of moealab's layers."""
    arg2 = counters_arg(2)
    return [
        TracePoint("engine.initialize", engine, "initialize"),
        TracePoint("engine.step", engine, "step", state_counters),
        TracePoint("engine.update_population", engine, "update_population", state_counters),
        TracePoint("engine.compute_metrics", engine, "compute_metrics"),
        TracePoint("engine.tracker.observe", DeteriorationTracker, "observe", extra=_history_rows),
        TracePoint("generator.select_parents", engine, "select_parents"),
        TracePoint("generator.generate", engine, "generate"),
        TracePoint("problems.evaluate", engine, "evaluate"),
        TracePoint("archives.rn.try_insert", RnArchive, "try_insert", arg2, _accepted),
        TracePoint("archives.rn.strength_fitness", RnArchive, "strength_fitness", arg2),
        TracePoint("archives.rn.cluster_truncate", RnArchive, "cluster_truncate"),
        TracePoint("archives.grid.try_insert", GridArchive, "try_insert", arg2, _accepted),
        TracePoint("archives.grid.adapt_bounds", GridArchive, "adapt_bounds", arg2),
        TracePoint("archives.gps.try_insert", GpsArchive, "try_insert", arg2, _accepted),
        TracePoint("archives.finalize", Archive, "finalize"),
        TracePoint("core.deterioration_check", engine, "deterioration_check"),
        TracePoint("core.nondominated_filter", engine, "nondominated_filter"),
        TracePoint("core.nondominated_filter", archives_base, "nondominated_filter"),
        TracePoint("metrics.generational_distance", engine, "generational_distance"),
        TracePoint("metrics.spacing", engine, "spacing"),
        TracePoint("metrics.complexity_sweep", metrics, "complexity_sweep"),
    ]


# span names whose self counts are reported; every comparison and cell lookup
# a run charges happens inside one of these
CMP_SPANS = (
    "archives.rn.try_insert",
    "archives.grid.try_insert",
    "archives.gps.try_insert",
    "archives.rn.strength_fitness",
    "engine.update_population",
)
CELL_SPANS = (
    "archives.rn.try_insert",
    "archives.grid.try_insert",
    "archives.gps.try_insert",
    "archives.grid.adapt_bounds",
)
ACCEPT_SPANS = ("archives.rn.try_insert", "archives.grid.try_insert", "archives.gps.try_insert")


def layer_metrics(
    rows: dict[str, dict], points: list[TracePoint], traced_s: float, plain_s: float
) -> dict[str, float]:
    """Flatten a reduced trace into the per-layer metric names.

    Self time is a share of the traced wall time, so a layer that does not
    run on a workload reads 0 % rather than a time. The per-candidate latency
    is the duration of the span that handles one candidate: engine.step on
    the EA workloads (one child per step), try_insert on the sweep.
    """
    empty = empty_row()
    pct = 100 / (traced_s * 1e9)
    out: dict[str, float] = {}
    layer_ns = {point.layer: 0 for point in points}
    for point in points:
        row = rows.get(point.name, empty)
        out[f"{point.name}.self_pct"] = row["self_ns"] * pct
        out[f"{point.name}.calls"] = row["calls"]
    for name, row in rows.items():
        layer_ns[name.split(".", 1)[0]] += row["self_ns"]
    for name in CMP_SPANS:
        out[f"{name}.cmp"] = rows.get(name, empty)["cmp"]
    for name in CELL_SPANS:
        out[f"{name}.cell_lookups"] = rows.get(name, empty)["cells"]
    for name in ACCEPT_SPANS:
        row = rows.get(name, empty)
        out[f"{name}.accept_ratio"] = row["extra_sum"] / row["calls"] if row["calls"] else 0.0
    out["engine.tracker.observe.history_rows"] = rows.get("engine.tracker.observe", empty)["extra_last"]
    latency = rows.get("engine.step", empty)["durations_ns"] or [
        d for name in ACCEPT_SPANS for d in rows.get(name, empty)["durations_ns"]
    ]
    p50, p99 = np.percentile(latency, [50, 99]) / 1e3
    out["candidate.p50_us"] = float(p50)
    out["candidate.p99_us"] = float(p99)
    for layer, ns in layer_ns.items():
        out[f"{layer}.self_pct"] = ns * pct
    out["trace.wall_s"] = traced_s
    out["trace.other_s"] = traced_s - sum(layer_ns.values()) / 1e9
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.spans"] = sum(row["calls"] for row in rows.values())
    return out


def traced_unit(name: str, seed: int, span_path: Path) -> dict:
    """Run the unit untraced, traced, and untraced again; check that tracing
    changed no output and left no wrapper behind and that the untraced runs
    agree; write the spans and reduce them. The trace's overhead is measured
    against the faster untraced run, so a slow first run does not hide it."""
    plain = execute(name, seed)
    points = trace_points()
    tracer = Tracer(points)
    with tracer:
        traced = execute(name, seed)
    again = execute(name, seed)
    rows = tracer.reduce()
    checks = {
        "trace_output_unchanged": traced["output"] == plain["output"],
        "trace_wrappers_restored": tracer.restored(),
        "repeat_output_identical": again["output"] == plain["output"],
    }
    if name in EA_WORKLOADS:
        summary = plain["output"][0]
        checks["trace_cmp_attribution_exact"] = (
            sum(rows[n]["cmp"] for n in CMP_SPANS if n in rows) == summary["dominance_comparisons"]
        )
        checks["trace_cell_attribution_exact"] = (
            sum(rows[n]["cells"] for n in CELL_SPANS if n in rows) == summary["cell_lookups"]
        )
    tracer.write_csv(span_path)
    return {
        "checks": {**check(name, plain), **checks},
        "layers": layer_metrics(
            rows, points, traced["wall_s"], min(plain["wall_s"], again["wall_s"])
        ),
        "detail": plain["detail"],
    }
