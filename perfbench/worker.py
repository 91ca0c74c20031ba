"""Units of a workload in a fresh interpreter.

Usage:
    worker.py <workload> time <first unit seed> <seconds>
    worker.py <workload> trace <unit seed> <span file>

`time` measures set-up once (import, config validation, initialize), then
runs units with seeds first, first + 1, ..., until <seconds> from its start
would be passed (at least one unit), timing and checking each. A reference
loop is timed before set-up and after set-up and every unit. Memory growth is
measured on the first unit. `trace` runs one unit untraced, traced and
untraced again and reduces the spans to per-layer metrics. The result is
printed as one JSON line.
"""

import ctypes
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


# a fixed pure-Python loop, timed between set-up and units; a slow spell of a
# shared host slows it too, so a time divided by the loop's mean time just
# before and after it drifts much less than the time itself
REFERENCE_ITERS = 1_000_000


def _reference_s() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERS):
        total += i * i % 7
    return time.perf_counter() - started


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _release_free_memory() -> None:
    """Collect garbage and hand free heap pages back to the OS. Set-up leaves
    freed memory resident, and how much depends on details of the import; a
    unit would reuse it without raising the RSS, hiding part of its own."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:  # not glibc: nothing to trim
        pass


def main(argv: list[str]) -> dict:
    workload, mode, seed = argv[0], argv[1], int(argv[2])
    reference_before = _reference_s()
    started = time.perf_counter()
    import moealab  # noqa: F401  (the import is part of set-up)

    imported = time.perf_counter()
    import numpy
    import scipy

    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    env = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if mode == "trace":
        return {"env": env, **workloads.traced_unit(workload, seed, Path(argv[3]))}

    prepare_start = time.perf_counter()
    workloads.prepare(workload, seed)
    setup_wall_s = (imported - started) + (time.perf_counter() - prepare_start)
    references = [reference_before, _reference_s()]
    setup = {"wall_s": setup_wall_s, "reference_s": (references[0] + references[1]) / 2}

    seconds = float(argv[3])
    _release_free_memory()
    rss_setup = _rss_mb()
    peak_setup = _peak_rss_mb()
    units = []
    began = time.perf_counter()
    while True:
        unit_seed = seed + len(units)
        unit = workloads.execute(workload, unit_seed)
        references.append(_reference_s())
        reference_s = (references[-2] + references[-1]) / 2
        if not units:
            # the process's peak RSS is this unit's peak only if the unit
            # raised it above the peak reached during set-up
            peak = _peak_rss_mb()
            run_rss_mb = peak - rss_setup
        checks = workloads.check(workload, unit)
        if not units:
            checks["unit_raised_peak_rss"] = peak > peak_setup
        units.append({
            "seed": unit_seed,
            "us_per_candidate": unit["wall_s"] / unit["ops"] * 1e6,
            "kiter_per_candidate": (
                unit["wall_s"] / reference_s * REFERENCE_ITERS / unit["ops"] / 1e3
            ),
            "detail": unit["detail"],
            "checks": checks,
        })
        del unit
        now = time.perf_counter()
        if now - started + (now - began) / len(units) > seconds:
            break
    return {"env": env, "setup": setup, "run_rss_mb": run_rss_mb, "units": units}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
