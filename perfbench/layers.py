"""Traced run: the same ops split by layer.

Three instruments, each used on its own op so none distorts another:

* boundary spans -- thin timing wrappers installed around the public
  calls into each layer (name, start, end, parent, op id), kept in
  memory and written at exit as Chrome ``trace_event`` JSON;
* a ``setitimer(ITIMER_PROF)`` sampler that charges each sample to the
  innermost ``src/repro`` module, folded into engine components, for
  self-time shares;
* ``cProfile`` for exact engine-component call counts.

Nothing under ``src/`` changes: the wrappers replace module and class
attributes for the traced op only and are removed afterwards.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import importlib
import json
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from ops import ENGINE, FIGURE10_JOBS, SRC, Figure10Cold, OpResult

SIM_COMPONENTS = ("stages", "fifo", "taskqueue", "rule_engine", "memory",
                  "host", "events", "accelerator")
# Every src/repro/sim module, folded into the engine component whose
# host time it is.  The benchmark's tests fail when a module is missing.
SIM_FOLD = {
    "stages.py": "stages", "pipeline.py": "stages", "token.py": "stages",
    "fifo.py": "fifo",
    "taskqueue.py": "taskqueue",
    "rule_engine.py": "rule_engine",
    "memory.py": "memory",
    "host.py": "host",
    "events.py": "events", "fastpath.py": "events",
    "accelerator.py": "accelerator", "__init__.py": "accelerator",
    "stats.py": "accelerator", "live.py": "accelerator",
    "checkpoint.py": "accelerator", "invariants.py": "accelerator",
    "faults.py": "accelerator", "ledger.py": "accelerator",
    "trace.py": "accelerator",
}
_REPRO = str(SRC / "repro") + os.sep


def fold(filename: str) -> str | None:
    """The layer a source file belongs to: ``sim.<component>`` for the
    engine, the package name elsewhere in ``repro``, None outside it."""
    if not filename.startswith(_REPRO):
        return None
    rel = filename[len(_REPRO):].replace(os.sep, "/")
    if rel.startswith("sim/"):
        return "sim." + SIM_FOLD.get(rel[4:], "other")
    return rel.split("/")[0].removesuffix(".py")


# ---------------------------------------------------------------------------
# Boundary spans
# ---------------------------------------------------------------------------

# (module, class or None, attribute, span name): the public calls into
# each layer.  Functions are patched in the namespace they are called
# from, which for imported names is the importing module.
BOUNDARIES = (
    ("repro.cli", None, "main", "cli"),
    ("repro.cli", None, "record_from_result", "runstore.record"),
    ("repro.eval.workloads", None, "default_workloads", "eval.inputs"),
    ("repro.eval.experiments", None, "default_workloads", "eval.inputs"),
    ("repro.eval.workloads", "Workload", "build_spec", "apps.build"),
    ("repro.eval.experiments", None, "run_figure10", "eval.figure10"),
    ("repro.eval.reporting", None, "format_figure10", "eval.report"),
    ("repro.eval.export", None, "store_experiment_results", "eval.report"),
    ("repro.eval.export", None, "experiment_records", "runstore.record"),
    ("repro.obs.runstore", None, "record_from_sweep", "runstore.record"),
    ("repro.obs.runstore", "RunStore", "append", "runstore.append"),
    ("repro.sim.accelerator", "AcceleratorSim", "__init__",
     "sim.construct"),
    ("repro.sim.accelerator", None, "build_datapath", "synthesis.datapath"),
    ("repro.sim.accelerator", "AcceleratorSim", "run", "sim.run"),
    ("repro.exec.runner", "SweepRunner", "run", "exec.sweep"),
    ("repro.exec.job", "SimJob", "digest", "exec.digest"),
    ("repro.exec.cache", "ResultCache", "put", "exec.cache_put"),
    ("repro.exec.cache", None, "read_jsonl", "exec.cache_load"),
    ("repro.obs.runstore", None, "append_line", "io.append"),
    ("repro.exec.cache", None, "append_line", "io.append"),
    ("repro.exec.journal", None, "append_line", "io.append"),
    ("repro.exec.journal", None, "replace_file", "io.replace"),
    ("repro.obs.fleet", None, "replace_file", "io.replace"),
)


class Spans:
    """In-memory span rows ``[name, start, end, parent, op]``.

    Only the installing process records: pool workers forked while the
    wrappers are in place run the wrapped calls unrecorded.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._pid = os.getpid()
        # Engine results and sweep runners seen by the wrappers.
        self.sims: list = []
        self.runners: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = len(self.rows)
            row = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.op]
            self.rows.append(row)
            self._stack.append(index)
            undo = before(*args) if before else None
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
                if undo:
                    undo()
            if after:
                after(args, result)
            return result
        return timed

    def _wrap_verify(self, sim, *_):
        """Time the spec's oracle ``verify`` nested inside ``sim.run``."""
        spec = sim.spec
        original = spec.verify
        spec.verify = self.wrap("apps.verify", original)

        def undo():
            spec.verify = original
        return undo

    @contextmanager
    def installed(self):
        hooks = {
            "sim.run": dict(before=self._wrap_verify,
                            after=lambda args, res: self.sims.append(
                                (args[0], res))),
            "exec.sweep": dict(after=lambda args, res: self.runners.append(
                (args[0], res, self.op))),
        }
        saved = []
        for module, cls, attr, name in BOUNDARIES:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original,
                                           **hooks.get(name, {})))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total(self, name: str, op: int | None = None) -> float:
        return sum(r[2] - r[1] for r in self.rows
                   if r[0] == name and op in (None, r[4]))

    def count(self, name: str, op: int | None = None) -> int:
        return sum(1 for r in self.rows
                   if r[0] == name and op in (None, r[4]))

    def child_time(self, index: int) -> float:
        return sum(r[2] - r[1] for r in self.rows if r[3] == index)

    def self_time(self, name: str, op: int | None = None) -> float:
        return sum(r[2] - r[1] - self.child_time(i)
                   for i, r in enumerate(self.rows)
                   if r[0] == name and op in (None, r[4]))

    def coverage(self) -> float:
        """The smallest share of a CLI invocation's wall time that its
        direct child spans cover."""
        shares = [self.child_time(i) / (r[2] - r[1])
                  for i, r in enumerate(self.rows)
                  if r[0] == "cli" and r[2] > r[1]]
        return min(shares) if shares else 0.0

    def chrome_trace(self) -> dict:
        t0 = min((r[1] for r in self.rows), default=0.0)
        return {
            "traceEvents": [
                {"name": name, "cat": name.split(".")[0], "ph": "X",
                 "ts": round((start - t0) * 1e6, 3),
                 "dur": round((end - start) * 1e6, 3),
                 "pid": self._pid, "tid": 1,
                 "args": {"op": op, "parent": parent, "index": i}}
                for i, (name, start, end, parent, op) in enumerate(self.rows)
            ],
            "displayTimeUnit": "ms",
        }


# ---------------------------------------------------------------------------
# Self-time sampler and call counts
# ---------------------------------------------------------------------------


class Sampler:
    """``ITIMER_PROF`` sampler charging each sample to the innermost
    frame that belongs to ``src/repro`` (``bench`` when none does)."""

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.samples: Counter = Counter()
        self._labels: dict[str, str | None] = {}

    def _tick(self, signum, frame) -> None:
        labels = self._labels
        while frame is not None:
            filename = frame.f_code.co_filename
            label = labels.get(filename, False)
            if label is False:
                label = labels[filename] = fold(filename)
            if label is not None:
                self.samples[label] += 1
                return
            frame = frame.f_back
        self.samples["bench"] += 1

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def share(self, label: str) -> float:
        total = sum(self.samples.values())
        return self.samples[label] / total if total else 0.0


def component_calls(profile: cProfile.Profile) -> Counter:
    """Calls per engine component from a finished profile."""
    calls: Counter = Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        label = fold(code.co_filename)
        if label and label.startswith("sim."):
            calls[label] += entry.callcount
    return calls


def hook_overheads(bandwidth: str, apps) -> tuple[dict, list[str]]:
    """Engine time of the same points with the CLI's ``Observability()``
    bundle, or a ``TokenLedger``, over the time with neither.

    Also returns an error per app whose cycle count a hook changed:
    observation must leave the simulation unchanged.
    """
    from repro.eval.platforms import EVAL_HARP
    from repro.eval.workloads import default_workloads
    from repro.obs import Observability
    from repro.sim.accelerator import AcceleratorSim, SimConfig
    from repro.sim.ledger import TokenLedger

    inputs = default_workloads(scale=0.5)
    platform = EVAL_HARP.scaled(float(bandwidth))
    seconds = Counter()
    errors = []
    for app in apps:
        cycles = set()
        for mode in ("off", "obs", "ledger"):
            sim = AcceleratorSim(
                inputs[app].build_spec(), platform=platform,
                config=SimConfig(engine=ENGINE),
                obs=Observability() if mode == "obs" else None,
                ledger=TokenLedger() if mode == "ledger" else None,
            )
            gc.collect()
            start = time.perf_counter()
            cycles.add(sim.run(verify=False).cycles)
            seconds[mode] += time.perf_counter() - start
        if len(cycles) != 1:
            errors.append(f"{app}: hooks changed cycles {sorted(cycles)}")
    return {"obs": seconds["obs"] / seconds["off"],
            "ledger": seconds["ledger"] / seconds["off"]}, errors


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _model_counts(spans: Spans, op: int) -> dict[str, float]:
    """Exact model counts of the points op ``op`` delivered: from the
    engine itself in-process, from the outcomes of a sweep."""
    loads = hits = cycles = skipped = qpi = 0
    for sim, result in spans.sims:
        cycles += result.cycles
        skipped += result.ff_cycles_skipped
        loads += sim.memory.stats.loads
        hits += sim.memory.stats.load_hits
        qpi += sim.memory.stats.bytes_transferred
    for _, outcomes, runner_op in spans.runners:
        if runner_op != op:
            continue
        for outcome in outcomes:
            cycles += outcome.cycles
            skipped += outcome.ff_cycles_skipped
            loads += outcome.memory_loads
            hits += round(outcome.memory_hit_rate * outcome.memory_loads)
            qpi += outcome.memory_bytes
    return {"cycles": cycles, "skipped": skipped, "loads": loads,
            "hit_rate": hits / loads if loads else 0.0, "qpi": qpi}


def _fleet_times(store: Path) -> tuple[float, float]:
    """(job wall, spec rebuild) seconds from the sweep's fleet spans."""
    from repro.io.safety import read_jsonl

    jobs = [row for row in read_jsonl(store / "fleet-spans.jsonl",
                                      warn=False).dicts
            if row.get("kind") == "job"]
    wall = sum(row["end"] - row["start"] for row in jobs)
    rebuild = sum((row.get("phases") or {}).get("spec-rebuild", [0, 0])[1]
                  for row in jobs)
    return wall, rebuild


def traced_run(workload, results: list, trace_path: Path) -> dict:
    """Plain op, traced op, then a warm rerun of the traced op's sweep
    (figure10) or a cProfile op and the hook-overhead passes (simulate
    workloads).  Appends each checked op to ``results`` and returns the
    per-layer metrics."""
    plain = workload.op()
    results.append(plain)

    spans, sampler = Spans(), Sampler()
    traced_id = spans.op = len(results)
    sweep = isinstance(workload, Figure10Cold)
    if sweep:
        workload.extra_argv = ("--fleet-trace",
                               str(workload.work / "fleet-trace.json"))
    with spans.installed(), sampler.running():
        traced = workload.op()
        workload.extra_argv = ()
        results.append(traced)
        if sweep:
            # The same command again on the cache the traced op filled.
            spans.op = len(results)
            results.append(workload.warm_op())
    # Metrics of the warm side of a sweep come from its warm rerun.
    warm_id = spans.op
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(spans.chrome_trace()) + "\n",
                          encoding="utf-8")

    calls: Counter = Counter()
    overheads = {"obs": 1.0, "ledger": 1.0}   # a sweep bypasses both
    if not sweep:
        profile = cProfile.Profile()
        profile.enable()
        try:
            profiled = workload.op()
        finally:
            profile.disable()
        results.append(profiled)
        calls = component_calls(profile)
        overheads, errors = hook_overheads(*workload.points)
        results.append(OpResult(errors=errors))

    counts = _model_counts(spans, traced_id)
    executed = counts["cycles"] - counts["skipped"]
    run_s = spans.total("sim.run") - spans.total("apps.verify")
    job_wall, rebuild = _fleet_times(workload.store) if sweep else (0, 0)
    sweep_s = spans.total("exec.sweep", traced_id)
    registry: dict[int, dict] = {}
    for runner, _, op in spans.runners:
        snap = runner.metrics.snapshot()
        registry[op] = {**snap.get("counters", {}), **snap.get("gauges", {})}
    cold, warm = registry.get(traced_id, {}), registry.get(warm_id, {})

    metrics = {
        "cli.self_s": (spans.self_time("cli", traced_id), "s"),
        "eval.inputs_s": (spans.total("eval.inputs"), "s"),
        "eval.report_s": (spans.total("eval.report", warm_id), "s"),
        "apps.build_s": (spans.total("apps.build"), "s"),
        "apps.verify_s": (spans.total("apps.verify"), "s"),
        "synthesis.datapath_s": (spans.total("synthesis.datapath"), "s"),
        "sim.construct_s": (spans.total("sim.construct"), "s"),
        "sim.run_s": (run_s, "s"),
        "sim.cycles": (counts["cycles"], "cycles"),
        "sim.cycles_skipped": (counts["skipped"], "cycles"),
        "sim.executed_cycles": (executed, "cycles"),
        "sim.us_per_executed_cycle": (
            run_s * 1e6 / executed if run_s and executed else 0.0, "us"),
        "memory.loads": (counts["loads"], "count"),
        "memory.qpi_bytes": (counts["qpi"], "bytes"),
        "memory.hit_rate": (counts["hit_rate"], "ratio"),
    }
    for component in SIM_COMPONENTS:
        label = "sim." + component
        metrics[f"{label}.calls"] = (calls[label], "count")
        metrics[f"{label}.self_share"] = (sampler.share(label), "share")
    metrics.update({
        "obs.overhead_ratio": (overheads["obs"], "ratio"),
        "obs.ledger_overhead_ratio": (overheads["ledger"], "ratio"),
        "runstore.record_s": (spans.total("runstore.record", warm_id), "s"),
        "runstore.append_s": (spans.total("runstore.append", warm_id), "s"),
        "runstore.appends": (spans.count("runstore.append", warm_id),
                             "count"),
        "io.append_s": (spans.total("io.append", warm_id), "s"),
        "io.appends": (spans.count("io.append", warm_id), "count"),
        "exec.sweep_cold_s": (sweep_s, "s"),
        "exec.sweep_warm_s": (spans.total("exec.sweep", warm_id), "s"),
        "exec.digest_s": (spans.total("exec.digest", warm_id), "s"),
        "exec.cache_load_s": (spans.total("exec.cache_load", warm_id), "s"),
        "exec.cache_put_s": (spans.total("exec.cache_put", traced_id), "s"),
        "exec.cache.hits": (warm.get("exec.cache.hits", 0), "count"),
        "exec.cache.misses": (cold.get("exec.cache.misses", 0), "count"),
        "exec.job_wall_s": (job_wall, "s"),
        "exec.spec_rebuild_s": (rebuild, "s"),
        "exec.pool_overhead_s": (
            sweep_s - job_wall / FIGURE10_JOBS if job_wall else 0.0, "s"),
        "exec.workers.busy_fraction": (
            cold.get("exec.workers.busy_fraction", 0.0), "share"),
        "trace.overhead_ratio": (traced.seconds / plain.seconds, "ratio"),
        "trace.span_coverage": (spans.coverage(), "share"),
    })
    return metrics
