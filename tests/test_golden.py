"""Run summaries pinned to values recorded from the scalar-compare
implementation of strength fitness and deterioration tracking.

Acceptance 6 compares two runs of the same build, so it cannot see a change
that alters every run alike. These values can: a faster kernel must reproduce
the comparison counts, front sizes, deterioration counts and the exact
generational distance (compared by repr, so to the last bit).
"""

import pytest

from moealab import ArchiveConfig, RunConfig, run

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
]


@pytest.mark.parametrize(
    "config, comparisons, front_size, deteriorated, gd",
    GOLDEN,
    ids=["rn-zdt1-s0", "rn-zdt1-s1", "rn-zdt1-s2", "grid-zdt1", "rn-lattice"],
)
def test_summary_matches_pinned_values(config, comparisons, front_size, deteriorated, gd):
    summary = run(config).summary
    assert summary["dominance_comparisons"] == comparisons
    assert summary["front_size"] == front_size
    assert summary["deterioration_events"] == deteriorated
    assert repr(summary["metrics"]["gd"]) == gd
    assert summary["evaluations"] == config.max_evaluations
