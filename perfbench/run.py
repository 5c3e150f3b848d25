"""Benchmark of `repro simulate` and the Figure-10 sweep.

    python3 perfbench/run.py --workload simulate-active --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` sets up, discards one warm-up op, then repeats the
workload's op until ``--seconds`` of op time is measured and prints the
end-to-end metrics.  ``--trace 1`` runs the per-layer split instead (see
layers.py) and writes its spans as Chrome trace JSON under
``.perfbench/``.  Each op's output is checked; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it holds the host fingerprint and per-op details.  See
METHOD.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import ops

IMPORT_PROBES = 3
OUT_DIR = ops.ROOT / ".perfbench"


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = ""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy,
    }


def cold_import_seconds() -> float:
    """`import repro.cli` timed inside a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ops.SRC)],
                          cwd=ops.ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def set_up(workload) -> dict:
    """Import, fixture and one discarded warm-up op.

    The import is timed in IMPORT_PROBES fresh interpreters and the
    median taken; the in-process import, the fixture build and the
    warm-up op are timed as this run pays them.
    """
    probes = [cold_import_seconds() for _ in range(IMPORT_PROBES)]
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (first import in this process)
    imported = time.perf_counter()
    workload.prepare()
    prepared = time.perf_counter()
    warmup = workload.op()
    end = time.perf_counter()
    import_s = statistics.median(probes)
    return {
        "import_s": import_s,
        "inprocess_import_s": imported - start,
        "fixture_s": prepared - imported,
        "warmup_s": end - prepared,
        "setup_s": import_s + end - imported,
        "warmup": warmup,
    }


def timed_run(workload, seconds: float, results: list) -> dict:
    """Repeat the op until ``seconds`` of op time; rates over all ops.

    Every op's time is in the denominator; only ops that passed every
    check add their points and cycles to the numerator.
    """
    timed = []
    measured = 0.0
    while measured < seconds:
        timed.append(workload.op())
        measured += timed[-1].seconds
    results.extend(timed)
    points = sum(r.points for r in timed if r.ok)
    cycles = sum(r.cycles for r in timed if r.ok)
    return {
        "points_per_s": (points / measured, "1/s"),
        "sim_cycles_per_s": (cycles / measured, "cycles/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ops.bootstrap()

    host = host_fingerprint()
    host["loadavg_start"] = os.getloadavg()
    work = OUT_DIR / f"work-{os.getpid()}"
    workload = ops.WORKLOADS[args.workload](work, args.seed)
    results: list = []
    try:
        setup = set_up(workload)
        results.append(setup.pop("warmup"))
        if args.trace:
            import layers

            trace_path = (OUT_DIR / f"trace-{args.workload}-"
                          f"seed{args.seed}.json")
            metrics = layers.traced_run(workload, results, trace_path)
            metrics["setup.import_s"] = (setup["import_s"], "s")
            metrics["setup.fixture_s"] = (setup["fixture_s"], "s")
            metrics["setup.warmup_s"] = (setup["warmup_s"], "s")
        else:
            metrics = timed_run(workload, args.seconds, results)
            metrics["setup_s"] = (setup["setup_s"], "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_end"] = os.getloadavg()

    failed = [r for r in results if not r.ok]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host,
        "setup": setup,
        "ops": [{"seconds": r.seconds, "points": r.points,
                 "errors": r.errors} for r in results],
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
