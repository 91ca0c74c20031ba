"""Run summaries pinned to values recorded from the scalar implementations
of strength fitness, deterioration tracking, the archive sweeps and variation,
and from the tracker that kept every evicted point.

Acceptance 6 compares two runs of the same build, so it cannot see a change
that alters every run alike. These values can: a faster kernel must reproduce
the comparison counts, front sizes, deterioration counts and the exact
generational distance (compared by repr, so to the last bit).
"""

import pytest

from moealab import ArchiveConfig, LocalSearchConfig, RunConfig, complexity_sweep, run

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
            local_search=LocalSearchConfig(steps=3),
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
    # preset 3 with more than one child per generation, so entrants are
    # drawn in tournaments before the next strength fitness
    (
        RunConfig(
            problem="zdt1",
            archive=ArchiveConfig("rn", capacity=30),
            population_size=40,
            preset=3,
            replacement_count=10,
            max_evaluations=1200,
            seed=0,
        ),
        133123,
        29,
        4,
        "0.7665072122780607",
    ),
    (
        RunConfig(
            problem="zdt1",
            archive=ArchiveConfig("rn", capacity=30),
            population_size=40,
            preset=3,
            replacement_count=40,
            max_evaluations=1200,
            seed=0,
        ),
        59245,
        28,
        0,
        "0.7156488629202409",
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
        "rn-preset3-zdt1-replace10",
        "rn-preset3-zdt1-generational",
    ],
)
def test_summary_matches_pinned_values(config, comparisons, front_size, deteriorated, gd):
    summary = run(config).summary
    assert summary["dominance_comparisons"] == comparisons
    assert summary["front_size"] == front_size
    assert summary["deterioration_events"] == deteriorated
    assert repr(summary["metrics"]["gd"]) == gd
    assert summary["evaluations"] == config.max_evaluations


# (config, sum and max of deterioration_events over every generation's stats):
# most summaries above end with 0 events, so these pin the count mid-run,
# while the tracker's history and the archive change
GRID_SCH_CAP20 = dict(
    problem="sch",
    archive=ArchiveConfig("grid", capacity=20),
    population_size=40,
    max_evaluations=3000,
)
RN_ZDT1_CAP20 = dict(
    problem="zdt1",
    archive=ArchiveConfig("rn", capacity=20),
    population_size=40,
    preset=3,
    max_evaluations=2000,
)
TRAJECTORY_GOLDEN = [
    (RunConfig(**GRID_SCH_CAP20, seed=0), 349, 1),
    (RunConfig(**GRID_SCH_CAP20, seed=1), 367, 1),
    (RunConfig(**RN_ZDT1_CAP20, seed=0), 2130, 4),
    (RunConfig(**RN_ZDT1_CAP20, seed=1), 1903, 4),
]


@pytest.mark.parametrize(
    "config, total, peak",
    TRAJECTORY_GOLDEN,
    ids=["grid-sch-cap20-s0", "grid-sch-cap20-s1", "rn-zdt1-cap20-s0", "rn-zdt1-cap20-s1"],
)
def test_deterioration_trajectory_matches_pinned_values(config, total, peak):
    events = [stats.deterioration_events for stats in run(config).stats]
    assert (sum(events), max(events)) == (total, peak)


# complexity_sweep at the sizes of the benchmark's archive-sweep workload, as
# repr(report.to_dict()), so the slope and its interval are pinned to the last
# bit. rn and grid charge exactly the size on this stream; gps's means depend
# on which rays the stream fills, so they pin ray_of's binning
SWEEP_GOLDEN = [
    ("rn", (25, 50, 100), 0,
     "{'archiver': 'rn', 'entries': [[25, 25.0], [50, 50.0], [100, 100.0]], "
     "'cmp_slope': 1.0, 'slope_ci': [1.0, 1.0]}"),
    ("rn", (25, 50, 100), 1,
     "{'archiver': 'rn', 'entries': [[25, 25.0], [50, 50.0], [100, 100.0]], "
     "'cmp_slope': 1.0, 'slope_ci': [1.0, 1.0]}"),
    ("grid", (50, 100, 200), 0,
     "{'archiver': 'grid', 'entries': [[50, 50.0], [100, 100.0], [200, 200.0]], "
     "'cmp_slope': 1.0, 'slope_ci': [1.0, 1.0]}"),
    ("grid", (50, 100, 200), 1,
     "{'archiver': 'grid', 'entries': [[50, 50.0], [100, 100.0], [200, 200.0]], "
     "'cmp_slope': 1.0, 'slope_ci': [1.0, 1.0]}"),
    ("gps", (512, 1024, 2048, 4096), 0,
     "{'archiver': 'gps', 'entries': [[512, 0.90869140625], [1024, 0.9072265625], "
     "[2048, 0.908447265625], [4096, 0.9102783203125]], "
     "'cmp_slope': 0.0009491747124382485, "
     "'slope_ci': [-0.0027496209642603265, 0.004647970389136824]}"),
    ("gps", (512, 1024, 2048, 4096), 1,
     "{'archiver': 'gps', 'entries': [[512, 0.9130859375], [1024, 0.908935546875], "
     "[2048, 0.9088134765625], [4096, 0.9088134765625]], "
     "'cmp_slope': -0.0020493031298661007, "
     "'slope_ci': [-0.006900576013821496, 0.0028019697540892954]}"),
]


@pytest.mark.parametrize(
    "kind, sizes, seed, report",
    SWEEP_GOLDEN,
    ids=[f"{kind}-s{seed}" for kind, _, seed, _ in SWEEP_GOLDEN],
)
def test_sweep_report_matches_pinned_values(kind, sizes, seed, report):
    assert repr(complexity_sweep(kind, sizes, seed).to_dict()) == report
