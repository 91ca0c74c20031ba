"""moealab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload ea-grid-zdt1 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

With --trace 0 the run is split between WORKERS fresh interpreters. Each
measures set-up once, then runs units (each with its own seed, derived from
--seed) until its share of --seconds is used. cost_per_candidate is the mean
over units; setup_s and run_rss_mb are medians over the interpreters. With
--trace 1 one unit runs untraced, traced and untraced again, and the spans
are reduced to the per-layer metrics.
Metric names, units and directions come from BENCHMARK.json. Each run writes
a result file (and, when traced, a span file) under perfbench/out/. The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# fresh interpreters per run, so set-up and memory get several samples; each
# runs at least one unit
WORKERS = 6
# setup_s is set-up time scaled to a host that runs the worker's reference
# loop in this time, so that it drifts less with the load of a shared host
REFERENCE_LOOP_S = 0.1
# a worker may pass its share of the run by one unit; it is stopped when it
# passes it by this margin
MARGIN_S = 60.0
TRACE_TIMEOUT_S = 170.0
# units of one run get seeds seed * SEED_STRIDE + i
SEED_STRIDE = 1000


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, mode: str, unit_seed: int, arg: str, timeout: float) -> dict:
    env = {**os.environ, **THREAD_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), workload, mode, str(unit_seed), arg]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} unit seed {unit_seed} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(
            f"{workload} unit seed {unit_seed} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown (not a git checkout)"


def environment(worker_env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": worker_env["numpy"],
        "scipy": worker_env["scipy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float) -> list[dict]:
    """Split the run's time between WORKERS fresh interpreters; each measures
    set-up once and then runs units for its share of the time."""
    workers: list[dict] = []
    seeds_used = 0
    started = time.perf_counter()
    while len(workers) < WORKERS:
        share = max(seconds - (time.perf_counter() - started), 0.0) / (WORKERS - len(workers))
        worker = run_worker(
            workload, "time", seed * SEED_STRIDE + seeds_used, str(share), share + MARGIN_S
        )
        seeds_used += len(worker["units"])
        workers.append(worker)
    return workers


def end_to_end(workers: list[dict], units: list[dict]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the unscaled set-up time and the wall time per
    candidate (printed, not gated: they follow the host's load), and every
    sample behind them."""
    samples = {
        "setup_s": [
            w["setup"]["wall_s"] / w["setup"]["reference_s"] * REFERENCE_LOOP_S for w in workers
        ],
        "setup_wall_s": [w["setup"]["wall_s"] for w in workers],
        "run_rss_mb": [w["run_rss_mb"] for w in workers],
        "cost_per_candidate": [u["kiter_per_candidate"] for u in units],
        "us_per_candidate": [u["us_per_candidate"] for u in units],
    }
    metrics = {
        # every unit offers the same number of candidates, so the mean is the
        # cost over all of them; over seeds it spread less than the median
        "cost_per_candidate": statistics.mean(samples["cost_per_candidate"]),
        "run_rss_mb": statistics.median(samples["run_rss_mb"]),
        "setup_s": statistics.median(samples["setup_s"]),
    }
    wall = {
        "setup_wall_s": statistics.median(samples["setup_wall_s"]),
        "us_per_candidate": statistics.mean(samples["us_per_candidate"]),
    }
    return metrics, wall, samples


def summarize(details: list[dict]) -> dict[str, float]:
    """Workload-specific figures that are printed but not gated."""
    if "gd_final" in details[0]:
        return {"gd_final": statistics.median(d["gd_final"] for d in details)}
    return {
        f"{key}.{kind}": statistics.median(d[kind][key] for d in details)
        for kind in details[0]
        for key in ("us_per_insert", "slope")
    }


def tally(checks_per_unit: list[dict]) -> dict[str, list[int]]:
    """Check name -> [failed, attempted]."""
    out: dict[str, list[int]] = {}
    for checks in checks_per_unit:
        for name, ok in checks.items():
            row = out.setdefault(name, [0, 0])
            row[0] += 0 if ok else 1
            row[1] += 1
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        span_path = OUT / f"{stem}.spans.csv"
        result = run_worker(
            workload, "trace", seed * SEED_STRIDE, str(span_path), TRACE_TIMEOUT_S
        )
        workers, units = [result], [result]
        values, wall, samples = result["layers"], {}, {}
    else:
        span_path = None
        workers = measure(workload, seed, seconds)
        units = [u for w in workers for u in w["units"]]
        values, wall, samples = end_to_end(workers, units)
    detail = {**wall, **summarize([u["detail"] for u in units])}
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise WorkerError(
            f"metrics differ from BENCHMARK.json: extra {sorted(set(values) - set(names))}, "
            f"missing {sorted(set(names) - set(values))}"
        )
    checks = tally([u["checks"] for u in units])
    failed = sum(f for f, _ in checks.values())
    attempted = sum(a for _, a in checks.values())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report = {
        "env": environment(workers[0]["env"]),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "units": len(units),
        "metrics": metrics,
        "detail": detail,
        "fail_ratio": failed / attempted,
        "checks": checks,
        "samples": samples,
        "span_file": str(span_path.relative_to(ROOT)) if span_path else None,
    }
    result_path = OUT / f"{stem}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"== {workload}  seed {seed}  trace {int(trace)}  units {len(units)}")
    for m in declared:
        print(f"  {m['name']:<48} {values[m['name']]:>16.6g} {m['unit']:<6} ({m['better']} is better)")
    for name, value in detail.items():
        print(f"  {name:<48} {value:>16.6g}")
    print(f"  {'fail_ratio':<48} {failed / attempted:>16.6g} ratio  ({failed}/{attempted} checks failed)")
    for name, (f, a) in checks.items():
        if f:
            print(f"  FAILED {name}: {f}/{a}")
    print(f"  result file {result_path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _terminate(signum, frame):
    # raising here lets subprocess.run kill and reap the running worker
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result = run_one(workload, args.seed, args.seconds, bool(args.trace), spec)
        except WorkerError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
