"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes.
"""

import itertools
import json
import time

import numpy as np

from moealab import (
    ArchiveConfig,
    Counters,
    GpsArchive,
    GridArchive,
    GridSpec,
    LocalSearchConfig,
    ObjectiveVector,
    RaySpec,
    RnArchive,
    RunConfig,
    Solution,
    brute_force_front,
    build_archive,
    complexity_sweep,
    compare,
    deterioration_check,
    evaluate,
    get_problem,
    nondominated_filter,
    ray_of,
    run,
)
from moealab.cli import main
from moealab.core import DominanceRelation
from oracles import oracle_front_values, sol

PASS = "ACCEPTANCE {n} ({name}): PASS [{elapsed:.1f}s]"


def report(n, name, started):
    print(PASS.format(n=n, name=name, elapsed=time.time() - started))


def test_acceptance_1_lattice_oracle_equivalence():
    started = time.time()
    for seed in (0, 1, 2):
        problem = get_problem(f"lattice:50:{seed}")
        oracle = {v.values for v in brute_force_front(problem)}
        for kind in ("rn", "grid", "gps"):
            archive = build_archive(
                ArchiveConfig(kind, capacity=100, divisions=32, rays_per_axis=64),
                problem,
            )
            counters = Counters()
            ids = itertools.count()
            for i in range(50):
                for j in range(50):
                    genome = (float(i), float(j))
                    archive.try_insert(
                        Solution(next(ids), genome, evaluate(problem, genome)),
                        counters,
                    )
            front = {s.objectives.values for s in archive.finalize()}
            dominated = front - oracle
            assert not dominated, (
                f"{kind} seed {seed}: {len(dominated)} finalized points lie "
                f"outside the exact Pareto set"
            )
    elapsed = time.time() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget is 10s"
    report(1, "lattice oracle equivalence", started)


def test_acceptance_2_complexity_claims():
    started = time.time()
    sizes = [25, 50, 100, 200]
    rn = complexity_sweep("rn", sizes, seed=3)
    gps = complexity_sweep("gps", sizes, seed=3)
    grid = complexity_sweep("grid", sizes, seed=3)
    assert 0.8 <= rn.slope <= 1.2, f"rn slope {rn.slope:.3f} outside [0.8, 1.2]"
    assert -0.2 <= gps.slope <= 0.2, f"gps slope {gps.slope:.3f} outside [-0.2, 0.2]"
    # the grid archiver locates cells in constant time but still sweeps the
    # membership for dominance, so its slope is reported, not bounded
    print(
        f"  grid slope (reported): {grid.slope:.3f} "
        f"entries={[(n, round(c, 1)) for n, c in grid.entries]}"
    )
    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s, budget is 60s"
    report(2, "complexity slopes rn/gps/grid", started)


def test_acceptance_3_deterioration_witness():
    started = time.time()
    stream = [
        sol(0, (0.0, 10.0)),
        sol(1, (1.0, 9.5)),
        sol(2, (5.0, 5.0)),
        sol(3, (5.4, 4.6)),   # clustering truncation discards this front point
        sol(4, (7.0, 4.65)),  # dominated by it, yet retained afterwards
    ]
    archive = RnArchive(3)
    counters = Counters()
    evicted = []
    for s in stream:
        outcome, _ = archive.try_insert(s, counters)
        evicted += outcome.departed
    events = deterioration_check(evicted, archive.members())
    assert events >= 1, "adversarial stream produced no deterioration"

    gps = GpsArchive(RaySpec(ObjectiveVector((0.0, 0.0)), 16))
    gps_counters = Counters()
    per_ray_best: dict = {}
    for s in stream:
        clone = Solution(s.id, s.genome, s.objectives)
        gps.try_insert(clone, gps_counters)
        ray = ray_of(s.objectives, gps.spec)
        d = gps.distance_to_reference(gps.incumbents[ray])
        assert d <= per_ray_best.get(ray, float("inf"))
        per_ray_best[ray] = d
    assert gps.monotonicity_violations == 0
    elapsed = time.time() - started
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s, budget is 1s"
    report(3, "rn deteriorates, gps stays monotone", started)


def test_acceptance_4_local_dominance():
    started = time.time()
    rng = np.random.default_rng(13)
    spec = RaySpec(ObjectiveVector((0.0, 0.0)), 16)
    identical = 0
    for trial in range(1000):
        candidate = sol(9999, tuple(float(x) for x in rng.random(2) + 1e-3))
        candidate_ray = ray_of(candidate.objectives, spec)
        archives = (GpsArchive(spec), GpsArchive(spec))
        if rng.random() < 0.7:
            incumbent = sol(500, tuple(float(x) for x in rng.random(2) + 1e-3))
            incumbent_ray = ray_of(incumbent.objectives, spec)
            for archive in archives:
                archive.incumbents[incumbent_ray] = incumbent
        # now populate the other rays differently in each archive
        for archive, count in zip(archives, (4, 9)):
            placed = 0
            attempt = 0
            while placed < count and attempt < 200:
                attempt += 1
                extra = sol(
                    2000 + placed, tuple(float(x) for x in rng.random(2) + 1e-3)
                )
                extra_ray = ray_of(extra.objectives, spec)
                if extra_ray != candidate_ray and extra_ray not in archive.incumbents:
                    archive.incumbents[extra_ray] = extra
                    placed += 1
        out_a, _ = archives[0].try_insert(
            Solution(candidate.id, candidate.genome, candidate.objectives), Counters()
        )
        out_b, _ = archives[1].try_insert(
            Solution(candidate.id, candidate.genome, candidate.objectives), Counters()
        )
        identical += out_a == out_b
    assert identical == 1000, f"only {identical}/1000 trials gave identical outcomes"
    report(4, "gps insertion depends only on its own ray", started)


def test_acceptance_5_desk_scale_convergence():
    started = time.time()
    for seed in range(5):
        config = RunConfig(
            problem="sch",
            archive=ArchiveConfig("grid", capacity=100, divisions=32),
            population_size=40,
            max_evaluations=10_000,
            seed=seed,
        )
        result = run(config)
        gd = result.summary["metrics"]["gd"]
        assert gd < 0.05, f"sch seed {seed}: gd {gd:.4f} >= 0.05"

    monotone_seeds = 0
    for seed in range(5):
        config = RunConfig(
            problem="zdt1",
            archive=ArchiveConfig("grid", capacity=100, divisions=32),
            population_size=40,
            max_evaluations=25_000,
            seed=seed,
            metrics_every=5_000,
        )
        result = run(config)
        checkpoints = [
            (st.evaluations_done, st.metrics["gd"])
            for st in result.stats
            if "gd" in st.metrics
        ]
        assert [e for e, _ in checkpoints] == [5_000, 10_000, 15_000, 20_000, 25_000]
        gds = [g for _, g in checkpoints]
        if all(later < earlier for earlier, later in zip(gds, gds[1:])):
            monotone_seeds += 1
    assert monotone_seeds >= 4, (
        f"gd decreased across every 5k checkpoint on only {monotone_seeds}/5 seeds"
    )
    elapsed = time.time() - started
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s, budget is 300s"
    report(5, "sch gd < 0.05 and zdt1 gd shrinking on >= 4/5 seeds", started)


def test_acceptance_6_byte_reproducible_cli_outputs(tmp_path):
    started = time.time()
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "problem": "zdt1",
                "population_size": 16,
                "max_evaluations": 600,
                "seed": 12,
                "archive": {"kind": "rn", "capacity": 24},
                "local_search": {"enabled": True, "steps": 2, "step_scale": 0.05},
            }
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    for name in ("front_seed12.csv", "stats_seed12.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
            f"{name} differs between identical runs"
        )
    report(6, "identical config and seed give byte-identical outputs", started)


def test_acceptance_7_invariant_battery():
    started = time.time()
    cases = 1000

    # dominance algebra
    rng = np.random.default_rng(100)
    for _ in range(cases):
        a = ObjectiveVector(rng.integers(0, 6, size=2).astype(float))
        b = ObjectiveVector(rng.integers(0, 6, size=2).astype(float))
        assert compare(a, a) is DominanceRelation.EQUAL
        if compare(a, b) is DominanceRelation.DOMINATES:
            assert compare(b, a) is DominanceRelation.DOMINATED_BY
        lift = rng.random(2) + 1e-3
        c = ObjectiveVector(np.asarray(a.values) + lift)
        d = ObjectiveVector(np.asarray(c.values) + lift)
        assert compare(a, c) is DominanceRelation.DOMINATES
        assert compare(c, d) is DominanceRelation.DOMINATES
        assert compare(a, d) is DominanceRelation.DOMINATES

    # filter idempotence + oracle agreement
    rng = np.random.default_rng(101)
    for _ in range(cases):
        count = int(rng.integers(0, 24))
        values = [
            tuple(float(x) for x in rng.integers(0, 10, size=2)) for _ in range(count)
        ]
        kept = nondominated_filter([sol(i, v) for i, v in enumerate(values)])
        assert {s.objectives.values for s in kept} == oracle_front_values(values)
        assert nondominated_filter(kept) == kept

    # capacity bounds + occupancy consistency + per-ray monotonicity,
    # one check per insertion
    rng = np.random.default_rng(102)
    grid_spec = GridSpec(ObjectiveVector((0.0, 0.0)), ObjectiveVector((1.0, 1.0)), 6)
    ray_spec = RaySpec(ObjectiveVector((0.0, 0.0)), 12)
    rn, grid, gps = RnArchive(15), GridArchive(15, grid_spec), GpsArchive(ray_spec)
    counters = Counters()
    per_ray: dict = {}
    for i in range(cases):
        values = tuple(float(x) for x in rng.random(2) + 1e-3)
        rn.try_insert(sol(i, values), counters)
        grid.try_insert(sol(i, values), counters)
        gps.try_insert(sol(i, values), counters)
        assert len(rn.members()) <= 15
        assert len(grid.members()) <= 15
        occupancy = grid.cell_occupancy()
        occupants = sorted(mid for ids in occupancy.values() for mid in ids)
        assert occupants == sorted(m.id for m in grid.members())
        ray = ray_of(ObjectiveVector(values), ray_spec)
        d = gps.distance_to_reference(gps.incumbents[ray])
        assert d <= per_ray.get(ray, float("inf"))
        per_ray[ray] = d
    assert gps.monotonicity_violations == 0

    # evaluation budget accounting across randomized mini-runs
    rng = np.random.default_rng(103)
    for case in range(cases):
        pop = int(rng.integers(2, 7))
        budget = pop + int(rng.integers(0, 16))
        ls_on = bool(rng.random() < 0.3)
        config = RunConfig(
            problem="sch",
            archive=ArchiveConfig("grid", capacity=8, divisions=4),
            population_size=pop,
            max_evaluations=budget,
            replacement_count=int(rng.integers(1, pop + 1)),
            seed=case,
            local_search=LocalSearchConfig(
                enabled=ls_on, steps=3 if ls_on else 0, step_scale=0.1
            ),
        )
        result = run(config)
        assert result.counters.evaluations <= budget
        assert all(len(st.metrics) == 0 for st in result.stats)
    report(7, "invariant battery, >=1000 randomized cases per family", started)
