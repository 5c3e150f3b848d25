"""A/A steadiness check: the benchmark run repeatedly on one commit.

    python3 perfbench/aa.py --out perfbench/AA.json

Runs ``run.py`` in two sets of ten runs on every workload of
BENCHMARK.json, each run ``run_seconds`` long with its own seed,
interleaving the workloads so slow host drift spreads over all of them.
For every end-to-end metric of every workload it reports the median and
the quartile spread ``(q3 - q1) / median`` of each set and how far the
second set's median moved against the first.  A metric is steady when
both spreads and that shift stay within its bound.  The file written by
``--out`` is the evidence each bound rests on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return {"seed": seed, "wall_s": time.perf_counter() - start,
            "details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = {workload: [[] for _ in range(SETS)] for workload in workloads}
    for set_index in range(SETS):
        for i in range(RUNS):
            seed = set_index * RUNS + i + 1
            for workload in workloads:
                run = one_run(workload, seed, seconds)
                runs[workload][set_index].append(run)
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"{run['wall_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in
                                 run["result"]["metrics"].items()),
                      file=sys.stderr, flush=True)

    report: dict = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    ok = True
    print(f"{'workload':15s} {'metric':18s} {'median':>12s} "
          f"{'spread':>7s} {'shift':>7s} {'bound':>6s}")
    for workload, sets in runs.items():
        entry = report["workloads"][workload] = {
            "failed_runs": sum(not r["result"]["correct"]
                               for s in sets for r in s),
            "host": [r["details"]["host"] for s in sets for r in s],
            "wall_s": [r["wall_s"] for s in sets for r in s],
            "op_seconds": [[op["seconds"] for op in r["details"]["ops"]]
                           for s in sets for r in s],
            "metrics": {},
        }
        ok &= entry["failed_runs"] == 0
        for name, meta in metrics.items():
            first, second = (summarize([r["result"]["metrics"][name]["value"]
                                        for r in s]) for s in sets)
            change = (second["median"] - first["median"]) / first["median"]
            # Positive shift = the second set reads worse.
            shift = change if meta["better"] == "lower" else -change
            spread = max(first["spread"], second["spread"])
            row = {"unit": meta["unit"], "bound": meta["bound"],
                   "sets": [first, second], "worse_shift": shift,
                   "steady": shift <= meta["bound"]
                   and spread <= meta["bound"]}
            ok &= row["steady"]
            entry["metrics"][name] = row
            print(f"{workload:15s} {name:18s} {first['median']:12.5g} "
                  f"{spread:7.3f} {shift:7.3f} {meta['bound']:6.2f}")
    report["steady"] = ok
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
