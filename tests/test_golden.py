"""Run summaries pinned to values recorded from the scalar implementations
of strength fitness, deterioration tracking, the archive sweeps and variation,
and from the tracker that kept every evicted point.

Acceptance 6 compares two runs of the same build, so it cannot see a change
that alters every run alike. These values can: a faster kernel must reproduce
the comparison counts, front sizes, deterioration counts and the exact
generational distance (compared by repr, so to the last bit).
"""

import pytest

from moealab import ArchiveConfig, LocalSearchConfig, RunConfig, run

ZDT1_RN = dict(
    problem="zdt1",
    archive=ArchiveConfig("rn", capacity=100),
    population_size=40,
    preset=3,
    max_evaluations=600,
)

# (config, dominance_comparisons, front_size, deterioration_events, repr(gd))
GOLDEN = [
    (RunConfig(**ZDT1_RN, seed=0), 334284, 21, 0, "0.7662754501344887"),
    (RunConfig(**ZDT1_RN, seed=1), 574663, 37, 0, "1.443521271723444"),
    (RunConfig(**ZDT1_RN, seed=2), 319033, 14, 0, "0.9509696006243035"),
    (
        RunConfig(
            problem="zdt1",
            archive=ArchiveConfig("grid", capacity=100),
            population_size=40,
            max_evaluations=1000,
            seed=0,
        ),
        22977,
        33,
        0,
        "0.8352182407380132",
    ),
    # small enough that truncation leaves a deteriorated member at the end
    (
        RunConfig(
            problem="lattice:12:3",
            archive=ArchiveConfig("rn", capacity=4),
            population_size=6,
            preset=3,
            max_evaluations=200,
            seed=0,
        ),
        4320,
        4,
        1,
        "0.2179175049960025",
    ),
    # gps tolerates dominated incumbents until finalize; this run ends with
    # deteriorated members
    (
        RunConfig(
            problem="zdt2",
            archive=ArchiveConfig("gps"),
            population_size=40,
            max_evaluations=1000,
            seed=0,
        ),
        5890,
        10,
        5,
        "1.0401955059499612",
    ),
    # generational replacement on a one-variable problem with a full grid, so
    # crowding eviction and bound adaptation both run
    (
        RunConfig(
            problem="sch",
            archive=ArchiveConfig("grid", capacity=30),
            population_size=20,
            replacement_count=20,
            max_evaluations=1000,
            seed=0,
        ),
        33399,
        30,
        0,
        "0.0028796599748414464",
    ),
    (
        RunConfig(
            problem="zdt1",
            archive=ArchiveConfig("grid", capacity=50),
            population_size=20,
            local_search=LocalSearchConfig(enabled=True, steps=3),
            max_evaluations=800,
            seed=0,
        ),
        3119,
        11,
        0,
        "1.711139283940222",
    ),
    # preset 2: uniform parent selection, no strength fitness
    (
        RunConfig(
            problem="zdt1",
            archive=ArchiveConfig("rn", capacity=20),
            population_size=20,
            preset=2,
            max_evaluations=600,
            seed=0,
        ),
        7159,
        17,
        0,
        "1.2645132115269873",
    ),
    # long eviction histories with more than one deterioration event, so the
    # tracker's pruning of its history decides the count
    (
        RunConfig(
            problem="zdt1",
            archive=ArchiveConfig("grid", capacity=20),
            population_size=20,
            max_evaluations=3000,
            seed=0,
        ),
        71614,
        20,
        2,
        "0.14018101731992427",
    ),
    (
        RunConfig(
            problem="zdt1",
            archive=ArchiveConfig("rn", capacity=10),
            population_size=20,
            preset=3,
            max_evaluations=1500,
            seed=2,
        ),
        311599,
        10,
        2,
        "1.0043037815402518",
    ),
]


@pytest.mark.parametrize(
    "config, comparisons, front_size, deteriorated, gd",
    GOLDEN,
    ids=[
        "rn-zdt1-s0",
        "rn-zdt1-s1",
        "rn-zdt1-s2",
        "grid-zdt1",
        "rn-lattice",
        "gps-zdt2",
        "grid-sch-generational",
        "grid-zdt1-local-search",
        "rn-preset2-zdt1",
        "grid-zdt1-cap20-deteriorating",
        "rn-zdt1-cap10-deteriorating",
    ],
)
def test_summary_matches_pinned_values(config, comparisons, front_size, deteriorated, gd):
    summary = run(config).summary
    assert summary["dominance_comparisons"] == comparisons
    assert summary["front_size"] == front_size
    assert summary["deterioration_events"] == deteriorated
    assert repr(summary["metrics"]["gd"]) == gd
    assert summary["evaluations"] == config.max_evaluations
