"""Batch front-end: configure runs, execute sweeps, compare archivers, and
emit machine-readable results (front CSV, per-generation stats JSONL, summary
JSON, plot-ready sweep CSV).

Exit codes: 0 success, 1 runtime assertion failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .core import Counters, Solution
from .engine import (
    ARCHIVE_KINDS,
    ArchiveConfig,
    ConfigError,
    RunConfig,
    RunResult,
    build_archive,
    run,
)
from .generator import LocalSearchConfig, VariationConfig
from .metrics import complexity_sweep, coverage
from .problems import (
    LATTICE_POINT_LIMIT,
    brute_force_front,
    evaluate,
    get_problem,
)

_ARCHIVE_KEYS = {
    "kind",
    "capacity",
    "divisions",
    "inflation",
    "rays_per_axis",
    "grid_lower",
    "grid_upper",
}
_VARIATION_KEYS = {
    "crossover_prob",
    "crossover_spread",
    "mutation_prob",
    "mutation_spread",
    "archive_parent_prob",
}
_LOCAL_SEARCH_KEYS = {"enabled", "steps", "step_scale"}
_RUN_KEYS = {
    "problem",
    "m",
    "population_size",
    "max_evaluations",
    "replacement_count",
    "seed",
    "preset",
    "metrics_every",
    "archive",
    "variation",
    "local_search",
    "out_dir",
    "repeats",
}
_COMPARE_KEYS = {
    "problem",
    "m",
    "population_size",
    "max_evaluations",
    "replacement_count",
    "seed",
    "metrics_every",
    "variation",
    "local_search",
    "out_dir",
    "repeats",
    "variants",
}
_VARIANT_KEYS = {"name", "archive", "preset", "variation", "local_search"}


def _reject_unknown(data: dict, allowed: set[str], context: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {unknown}")


def _archive_from(data: dict, context: str) -> ArchiveConfig:
    _reject_unknown(data, _ARCHIVE_KEYS, context)
    if "kind" not in data:
        raise ConfigError(f"{context} needs a 'kind'")
    kwargs = dict(data)
    for key in ("grid_lower", "grid_upper"):
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(float(v) for v in kwargs[key])
    try:
        return ArchiveConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _variation_from(data: dict, context: str) -> VariationConfig:
    _reject_unknown(data, _VARIATION_KEYS, context)
    try:
        return VariationConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _local_search_from(data: dict, context: str) -> LocalSearchConfig:
    _reject_unknown(data, _LOCAL_SEARCH_KEYS, context)
    try:
        return LocalSearchConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root in {path} must be an object")
    return data


def _run_config_from(data: dict, context: str = "config") -> tuple[RunConfig, str, int]:
    _reject_unknown(data, _RUN_KEYS, context)
    if "problem" not in data:
        raise ConfigError(f"{context} needs a 'problem'")
    config = RunConfig(
        problem=data["problem"],
        archive=_archive_from(data.get("archive", {"kind": "grid"}), f"{context}.archive"),
        m=data.get("m"),
        population_size=data.get("population_size", 40),
        variation=_variation_from(data.get("variation", {}), f"{context}.variation"),
        local_search=_local_search_from(
            data.get("local_search", {}), f"{context}.local_search"
        ),
        seed=data.get("seed", 0),
        max_evaluations=data.get("max_evaluations", 5000),
        replacement_count=data.get("replacement_count", 1),
        preset=data.get("preset"),
        metrics_every=data.get("metrics_every"),
    )
    config.validate()
    out_dir = data.get("out_dir", "results")
    repeats = data.get("repeats", 1)
    if not isinstance(repeats, int) or repeats < 1:
        raise ConfigError(f"{context}: repeats must be a positive integer")
    return config, out_dir, repeats


def _format_float(value: float) -> str:
    return repr(float(value))


def _write_front_csv(path: Path, result: RunResult) -> None:
    problem = get_problem(result.config.problem)
    header = (
        "id,"
        + ",".join(f"x{i}" for i in range(problem.n_var))
        + ","
        + ",".join(f"f{j + 1}" for j in range(problem.m))
    )
    rows = sorted(result.front, key=lambda s: (s.objectives.values, s.id))
    lines = [header]
    for s in rows:
        fields = (
            [str(s.id)]
            + [_format_float(g) for g in s.genome]
            + [_format_float(v) for v in s.objectives.values]
        )
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")


def _write_stats_jsonl(path: Path, result: RunResult) -> None:
    lines = [json.dumps(st.to_dict(), sort_keys=True) for st in result.stats]
    path.write_text("\n".join(lines) + "\n")


def _run_repeats(config: RunConfig, repeats: int) -> list[RunResult]:
    # derived seeds: seed + repeat index
    return [run(replace(config, seed=config.seed + i)) for i in range(repeats)]


def cmd_run(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    for key, value in (
        ("seed", args.seed),
        ("repeats", args.repeats),
        ("problem", args.problem),
        ("max_evaluations", args.max_evaluations),
        ("population_size", args.population_size),
        ("replacement_count", args.replacement_count),
    ):
        if value is not None:
            data[key] = value
    config, out_dir, repeats = _run_config_from(data)
    out = Path(args.out or out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = _run_repeats(config, repeats)
    for result in results:
        seed = result.config.seed
        _write_front_csv(out / f"front_seed{seed}.csv", result)
        _write_stats_jsonl(out / f"stats_seed{seed}.jsonl", result)
    summary = {
        "config": asdict(config),
        "repeats": [result.summary for result in results],
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(results)} run(s) to {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    _reject_unknown(data, _COMPARE_KEYS, "config")
    variants_data = data.pop("variants", [])
    if not isinstance(variants_data, list) or len(variants_data) < 2:
        raise ConfigError("compare needs at least 2 variants")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.repeats is not None:
        data["repeats"] = args.repeats
    base = dict(data)
    base.setdefault("archive", {"kind": "grid"})
    out_dir_default = base.pop("out_dir", "results")
    repeats = base.pop("repeats", 1)
    if not isinstance(repeats, int) or repeats < 1:
        raise ConfigError("repeats must be a positive integer")

    names: list[str] = []
    configs: list[RunConfig] = []
    for idx, variant in enumerate(variants_data):
        context = f"variants[{idx}]"
        _reject_unknown(variant, _VARIANT_KEYS, context)
        if "archive" not in variant:
            raise ConfigError(f"{context} needs an 'archive'")
        merged = dict(base)
        merged["archive"] = variant["archive"]
        if "preset" in variant:
            merged["preset"] = variant["preset"]
        if "variation" in variant:
            merged["variation"] = variant["variation"]
        if "local_search" in variant:
            merged["local_search"] = variant["local_search"]
        config, _, _ = _run_config_from(merged, context)
        name = variant.get("name", f"{config.archive.kind}-{idx}")
        if name in names:
            raise ConfigError(f"duplicate variant name {name!r}")
        names.append(name)
        configs.append(config)

    out = Path(args.out or out_dir_default)
    out.mkdir(parents=True, exist_ok=True)

    per_variant: list[list[RunResult]] = [
        _run_repeats(config, repeats) for config in configs
    ]
    rows = []
    for vi, (name, results) in enumerate(zip(names, per_variant)):
        for ri, result in enumerate(results):
            row = {
                "variant": name,
                "seed": result.config.seed,
                "front_size": result.summary["front_size"],
                "gd": result.summary["metrics"].get("gd"),
                "spacing": result.summary["metrics"].get("spacing"),
                "deterioration_events": result.summary["deterioration_events"],
                "dominance_comparisons": result.summary["dominance_comparisons"],
                "evaluations": result.summary["evaluations"],
                "gps_monotonic": result.summary.get("gps_monotonic"),
            }
            mine = [s.objectives for s in result.front]
            for vj, other_name in enumerate(names):
                if vj == vi:
                    continue
                theirs = [s.objectives for s in per_variant[vj][ri].front]
                row[f"coverage_over_{other_name}"] = coverage(mine, theirs)
            rows.append(row)

    columns = ["variant", "seed", "front_size", "gd", "spacing"]
    columns += [f"coverage_over_{n}" for n in names]
    columns += ["deterioration_events", "dominance_comparisons", "evaluations", "gps_monotonic"]

    def cell(row: dict, col: str) -> str:
        value = row.get(col)
        if value is None:
            return ""
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return _format_float(value)
        return str(value)

    csv_lines = [",".join(columns)]
    for row in rows:
        csv_lines.append(",".join(cell(row, col) for col in columns))
    (out / "compare.csv").write_text("\n".join(csv_lines) + "\n")
    payload = {
        "base": {k: v for k, v in data.items() if k != "variants"},
        "variants": names,
        "rows": rows,
    }
    (out / "compare.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"compared {len(names)} variants x {repeats} repeat(s); wrote {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --sizes value {args.sizes!r}") from exc
    if len(sizes) < 2:
        raise ConfigError("sweep needs at least 2 sizes")
    if args.archiver not in ARCHIVE_KINDS:
        raise ConfigError(f"unknown archiver {args.archiver!r}")
    report = complexity_sweep(args.archiver, sizes, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"sweep_{args.archiver}.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    csv_lines = ["n,mean_comparisons"]
    for size, mean in report.entries:
        csv_lines.append(f"{size},{_format_float(mean)}")
    (out / f"sweep_{args.archiver}.csv").write_text("\n".join(csv_lines) + "\n")
    lo, hi = report.slope_ci
    print(
        f"{args.archiver}: cmp_slope={report.slope:.3f} (95% CI [{lo:.3f}, {hi:.3f}])"
    )
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if args.k * args.k > LATTICE_POINT_LIMIT:
        raise ConfigError(
            f"k={args.k} gives {args.k * args.k} points, above the "
            f"{LATTICE_POINT_LIMIT}-point enumeration guard"
        )
    problem = get_problem(f"lattice:{args.k}:{args.seed}")
    oracle = {v.values for v in brute_force_front(problem)}
    failures = 0
    for kind in ARCHIVE_KINDS:
        archive_config = ArchiveConfig(
            kind=kind,
            capacity=args.capacity,
            divisions=args.divisions,
            rays_per_axis=args.rays,
        )
        archive = build_archive(archive_config, problem)
        counters = Counters()
        ids = itertools.count()
        for i in range(args.k):
            for j in range(args.k):
                genome = (float(i), float(j))
                sol = Solution(next(ids), genome, evaluate(problem, genome))
                archive.try_insert(sol, counters)
        front = archive.finalize()
        outside = [s for s in front if s.objectives.values not in oracle]
        retained = len({s.objectives.values for s in front} & oracle)
        status = "ok" if not outside else "FAIL"
        print(
            f"{kind}: retained {retained}/{len(oracle)} oracle points "
            f"({retained / len(oracle):.2f}), {len(outside)} outside oracle [{status}]"
        )
        if outside:
            failures += 1
    if failures:
        print(f"{failures} archiver(s) reported points outside the oracle front",
              file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moealab",
        description="Multi-objective evolutionary runs with interchangeable archivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run (with repeats)")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", help="output directory (overrides config out_dir)")
    p_run.add_argument("--seed", type=int, help="base seed override")
    p_run.add_argument("--repeats", type=int, help="repeat count override")
    p_run.add_argument("--problem", help="problem id override")
    p_run.add_argument("--max-evaluations", type=int, dest="max_evaluations")
    p_run.add_argument("--population-size", type=int, dest="population_size")
    p_run.add_argument("--replacement-count", type=int, dest="replacement_count")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run archiver variants on a shared setup")
    p_cmp.add_argument("--config", required=True, help="JSON config with variants")
    p_cmp.add_argument("--out", help="output directory (overrides config out_dir)")
    p_cmp.add_argument("--seed", type=int, help="base seed override")
    p_cmp.add_argument("--repeats", type=int, help="repeat count override")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="measure dominance cost vs archive size")
    p_sweep.add_argument("--archiver", required=True, choices=ARCHIVE_KINDS)
    p_sweep.add_argument(
        "--sizes", default="25,50,100,200", help="comma-separated archive sizes"
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default="results")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle-check", help="verify every archiver against the lattice Pareto oracle"
    )
    p_oracle.add_argument("--k", type=int, required=True, help="lattice side length")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--capacity", type=int, default=100)
    p_oracle.add_argument("--divisions", type=int, default=32)
    p_oracle.add_argument("--rays", type=int, default=64)
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"runtime check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"runtime contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
