"""moealab: steady-state multi-objective evolutionary optimization with
interchangeable Pareto archivers and a benchmark harness."""

# numpy 2 loads numpy.random on first use; loading it with the package keeps
# that time and memory out of the first run or sweep
import numpy.random  # noqa: F401

from .archives import (
    Archive,
    DegenerateDirectionError,
    FeedbackSignal,
    GpsArchive,
    GridArchive,
    GridSpec,
    InsertOutcome,
    OutOfBoundsError,
    RaySpec,
    RnArchive,
    cell_of,
    ray_of,
)
from .core import (
    Counters,
    DimensionMismatchError,
    DominanceRelation,
    ObjectiveVector,
    Solution,
    compare,
    deterioration_check,
    dominance_masks,
    dominates,
    nondominated_filter,
    weak_relations,
)
from .engine import (
    ArchiveConfig,
    ConfigError,
    GenerationStats,
    RunConfig,
    RunResult,
    RunState,
    build_archive,
    initialize,
    run,
    step,
    update_population,
)
from .generator import (
    LocalSearchConfig,
    VariationConfig,
    generate,
    local_search,
    select_parents,
)
from .metrics import (
    ComplexityReport,
    complexity_sweep,
    coverage,
    generational_distance,
    spacing,
)
from .problems import (
    ProblemSpec,
    UnknownProblemError,
    brute_force_front,
    evaluate,
    get_problem,
    true_front_sample,
)

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "ArchiveConfig",
    "ComplexityReport",
    "ConfigError",
    "Counters",
    "DegenerateDirectionError",
    "DimensionMismatchError",
    "DominanceRelation",
    "FeedbackSignal",
    "GenerationStats",
    "GpsArchive",
    "GridArchive",
    "GridSpec",
    "InsertOutcome",
    "LocalSearchConfig",
    "ObjectiveVector",
    "OutOfBoundsError",
    "ProblemSpec",
    "RaySpec",
    "RnArchive",
    "RunConfig",
    "RunResult",
    "RunState",
    "Solution",
    "UnknownProblemError",
    "VariationConfig",
    "brute_force_front",
    "build_archive",
    "cell_of",
    "compare",
    "complexity_sweep",
    "coverage",
    "deterioration_check",
    "dominance_masks",
    "dominates",
    "evaluate",
    "generate",
    "generational_distance",
    "get_problem",
    "initialize",
    "local_search",
    "nondominated_filter",
    "ray_of",
    "run",
    "select_parents",
    "spacing",
    "step",
    "true_front_sample",
    "update_population",
    "weak_relations",
]
