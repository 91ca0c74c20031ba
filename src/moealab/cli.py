"""Batch front-end: configure runs, execute sweeps, compare archivers, and
emit machine-readable results (front CSV, per-generation stats JSONL, summary
JSON, plot-ready sweep CSV).

Exit codes: 0 success, 1 runtime assertion failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
import types
import typing
from collections import Counter
from dataclasses import MISSING, asdict, replace
from pathlib import Path
from typing import Sequence

import numpy as np

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
from .metrics import _MEASURED_MULTIPLE, complexity_sweep, coverage
from .problems import UnknownProblemError, brute_force_front, evaluate, get_problem

# the RunConfig fields a compare variant may set over the shared base; every
# variant names its own archive, and only a variant may set archive or preset
_VARIANT_FIELDS = ("archive", "preset", "variation", "local_search")
_VARIANT_ONLY = ("archive", "preset")


# a value printed in an error message is cut to this many characters
_SHOWN_CHARS = 60


def _shorten(value: object) -> str:
    text = repr(value)
    if len(text) > _SHOWN_CHARS:
        if isinstance(value, int):
            size = f"{len(text.lstrip('-'))} digits"
        else:
            size = f"{len(text)} characters"
        text = f"{text[:_SHOWN_CHARS]}… ({size})"
    return text


def _describe(value: object) -> str:
    if value is None:
        return "null"
    return f"{type(value).__name__} {_shorten(value)}"


def _finite(value: int | float, path: str) -> int | float:
    # json reads NaN, Infinity and 1e400 (as inf); an int compares exactly
    if abs(value) <= sys.float_info.max:
        return value
    raise ConfigError(f"{path} must be finite, got {_describe(value)}")


def _load(cls: type, data: object, path: str):
    """Build the config dataclass `cls` from a parsed JSON object.

    Keys are the dataclass fields; a missing field takes its default, an
    unknown key or a value of the wrong type raises ConfigError naming the
    key path, and so does a ValueError from the dataclass's __post_init__.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object, got {_describe(data)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in data:
            kwargs[name] = _value(hints[name], data[name], f"{path}.{name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path} needs a {name!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _value(hint: object, value: object, path: str) -> object:
    """Type-check one JSON value against a field's type hint. A bool is
    not a number here, a number must be finite, and an int passes unchanged
    as a float, so asdict writes the number back as it was given."""
    if dataclasses.is_dataclass(hint):
        return _load(hint, value, path)
    optional = typing.get_origin(hint) is types.UnionType
    if optional:
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is tuple:  # tuple[float, ...]
        expected = "a list of numbers"
        if isinstance(value, list) and all(type(v) in (int, float) for v in value):
            return tuple(float(_finite(v, path)) for v in value)
    elif hint is float:
        expected = "float"
        if type(value) in (int, float):
            return _finite(value, path)
    elif hint in (int, str):
        expected = hint.__name__
        if type(value) is hint:
            return value
    else:
        raise TypeError(f"no config loader for {path} of type {hint!r}")
    if optional:
        expected += " or null"
    raise ConfigError(f"{path} must be {expected}, got {_describe(value)}")


def _run_file_keys(data: dict) -> tuple[dict, str, int]:
    """Split off the two run-file keys that are not RunConfig fields."""
    fields = dict(data)
    out_dir = fields.pop("out_dir", "results")
    repeats = fields.pop("repeats", 1)
    _value(str, out_dir, "config.out_dir")
    if _value(int, repeats, "config.repeats") < 1:
        raise ConfigError(f"config.repeats must be >= 1, got {repeats}")
    return fields, out_dir, repeats


def _run_config(data: dict, path: str) -> RunConfig:
    config = _load(RunConfig, data, path)
    config.validate()
    return config


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of repeated keys without a word
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"repeated key {key!r}")
        data[key] = value
    return data


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"{exc} in {path}") from None
    except ValueError as exc:  # also an int literal past Python's digit limit
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"malformed JSON in {path}: nested too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config root in {path} must be an object")
    return data


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
    lines = [
        json.dumps(asdict(st), sort_keys=True, allow_nan=False) for st in result.stats
    ]
    path.write_text("\n".join(lines) + "\n")


def _output_dir(path: str) -> Path:
    """Create the output directory; a path that cannot be one is a config error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot create output directory {out}: {reason}") from exc
    return out


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
    fields, out_dir, repeats = _run_file_keys(data)
    config = _run_config(fields, "config")
    out = _output_dir(args.out or out_dir)
    results = _run_repeats(config, repeats)
    for result in results:
        seed = result.config.seed
        _write_front_csv(out / f"front_seed{seed}.csv", result)
        _write_stats_jsonl(out / f"stats_seed{seed}.jsonl", result)
    summary = {
        "config": asdict(config),
        "repeats": [result.summary for result in results],
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    print(f"wrote {len(results)} run(s) to {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    variants_data = data.pop("variants", [])
    if not isinstance(variants_data, list) or len(variants_data) < 2:
        raise ConfigError("compare needs at least 2 variants")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.repeats is not None:
        data["repeats"] = args.repeats
    base, out_dir, repeats = _run_file_keys(data)
    for key in _VARIANT_ONLY:
        if key in base:
            raise ConfigError(f"config.{key} may only be set in a variant")
    _load(RunConfig, base, "config")

    names: list[str] = []
    configs: list[RunConfig] = []
    for idx, variant in enumerate(variants_data):
        context = f"variants[{idx}]"
        if not isinstance(variant, dict):
            raise ConfigError(f"{context} must be an object, got {_describe(variant)}")
        unknown = sorted(set(variant) - {"name", *_VARIANT_FIELDS})
        if unknown:
            raise ConfigError(f"unknown keys in {context}: {unknown}")
        if "archive" not in variant:
            raise ConfigError(f"{context} needs an 'archive'")
        fields = {k: v for k, v in variant.items() if k != "name"}
        config = _run_config({**base, **fields}, context)
        name = _value(str, variant.get("name", f"{config.archive.kind}-{idx}"),
                      f"{context}.name")
        if name in names:
            raise ConfigError(f"duplicate variant name {name!r}")
        names.append(name)
        configs.append(config)

    out = _output_dir(args.out or out_dir)

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

    with (out / "compare.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([cell(row, col) for col in columns] for row in rows)
    payload = {
        "base": data,
        "variants": names,
        "rows": rows,
    }
    (out / "compare.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    print(f"compared {len(names)} variants x {repeats} repeat(s); wrote {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --sizes value {_shorten(args.sizes)}") from exc
    if any(size < 1 for size in sizes):
        raise ConfigError(f"--sizes must all be >= 1, got {_shorten(args.sizes)}")
    # a size n measures one array of _MEASURED_MULTIPLE * n doubles
    largest = np.iinfo(np.intp).max // (8 * _MEASURED_MULTIPLE)
    if any(size > largest for size in sizes):
        raise ConfigError(
            f"--sizes must all be at most {largest}, the largest whose measured "
            "stream numpy can hold"
        )
    if len(sizes) < 2:
        raise ConfigError(f"sweep needs at least 2 sizes, got {_shorten(args.sizes)}")
    repeated = [size for size, count in Counter(sizes).items() if count > 1]
    if repeated:
        raise ConfigError(f"--sizes must be distinct, got {repeated[0]} more than once")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    out = _output_dir(args.out)
    report = complexity_sweep(args.archiver, sizes, args.seed)
    (out / f"sweep_{args.archiver}.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
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
    try:
        problem = get_problem(f"lattice:{args.k}:{args.seed}")
    except UnknownProblemError as exc:
        raise ConfigError(str(exc)) from exc
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
