"""Workloads, fixture and output checker of the repository benchmark.

Every op drives the CLI in-process through ``repro.cli.main(argv)`` with
its stdout captured, so the benchmark measures the same code path a user
runs.  See METHOD.md for why each workload exists and what it measures.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENGINE = "event"
# (bandwidth, apps) of the two `repro simulate` regimes.
ACTIVE_POINTS = ("1", ("SPEC-BFS", "COOR-BFS", "SPEC-SSSP"))
IDLE_POINTS = ("0.05", ("SPEC-BFS", "COOR-BFS", "SPEC-MST", "SPEC-DMR",
                        "COOR-LU"))
FIGURE10_JOBS = 2
FIGURE10_ARGV = ("experiment", "figure10", "--scale", "0.5",
                 "--engine", ENGINE, "--jobs", str(FIGURE10_JOBS))
FIGURE10_POINTS = 24
# The seeded run store: real `simulate` records from these cheap
# invocations, repeated under distinct run ids up to FIXTURE_RECORDS.
# RunStore.append scans the whole file to assign an id, so the store's
# size is part of every op's cost, as it is for users whose store grows.
FIXTURE_SOURCES = (("COOR-LU", "0.05"), ("SPEC-DMR", "0.05"),
                   ("SPEC-MST", "0.05"))
FIXTURE_RECORDS = 200
STORE_FILE = "runs.jsonl"

_SIM_LINE = re.compile(r"^(\S+): (\d+) cycles .* — VERIFIED$", re.M)
_STORED_LINE = re.compile(r"^stored run (\d+) ->", re.M)
_SWEEP_LINE = re.compile(
    r"^sweep: (\d+) points, (\d+) cache hits, (\d+) simulated", re.M)


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the import path.

    Exits (status 1, message on stderr) when the checkout holds no
    source tree, so the benchmark fails without a result instead of
    importing another copy.
    """
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC.name}/repro "
                         "next to the benchmark; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def invoke(argv) -> tuple[int, str]:
    """Run ``repro.cli.main(argv)`` in-process: (exit code, stdout)."""
    import repro.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = repro.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:   # noqa: BLE001 - an op failure, not ours
        out.write(f"\nraised {type(exc).__name__}: {exc}\n")
        code = 1
    return code or 0, out.getvalue()


def store_lines(store: Path) -> list[str]:
    path = store / STORE_FILE
    if not path.exists():
        return []
    return path.read_text(encoding="utf-8").splitlines()


def build_seeded_store(work: Path) -> Path:
    """The fixture run store: FIXTURE_RECORDS real simulate records.

    Raises RuntimeError when a source invocation fails or does not
    verify, since every later op would then start from a broken state.
    """
    scratch = work / "fixture-src"
    for app, bandwidth in FIXTURE_SOURCES:
        code, out = invoke(["simulate", app, "--engine", ENGINE,
                            "--bandwidth", bandwidth, "--store",
                            str(scratch)])
        if code != 0 or not _SIM_LINE.search(out):
            raise RuntimeError(f"fixture source {app}@{bandwidth} failed:\n"
                               f"{out}")
    sources = [json.loads(line) for line in store_lines(scratch)]
    shutil.rmtree(scratch)
    fixture = work / "fixture"
    fixture.mkdir(parents=True)
    lines = []
    for index in range(FIXTURE_RECORDS):
        record = dict(sources[index % len(sources)])
        record["run_id"] = f"{index + 1:06d}"
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    (fixture / STORE_FILE).write_text("".join(lines), encoding="utf-8")
    return fixture


def restore(fixture: Path, store: Path) -> None:
    """Make ``store`` a byte-identical copy of ``fixture``, then collect.

    Anything else in ``store`` (result cache, sweep journal, locks,
    status files) is deleted, so each op starts from the same state.
    """
    if store.exists():
        shutil.rmtree(store)
    shutil.copytree(fixture, store)
    gc.collect()


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    """One checked op: its work, its wall time and what went wrong."""

    points: int = 0
    cycles: int = 0
    seconds: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class Invocation:
    argv: tuple
    code: int
    stdout: str
    new_records: list[dict]


def check_simulate(inv: Invocation, app: str, reference: dict[str, int],
                   result: OpResult) -> None:
    """A `repro simulate` invocation: exit 0, VERIFIED, the cycle count
    equal to the stored record's and to every earlier op of the run."""
    if inv.code != 0:
        result.errors.append(f"{app}: exit {inv.code}")
        return
    match = _SIM_LINE.search(inv.stdout)
    if match is None or match.group(1) != app:
        result.errors.append(f"{app}: no VERIFIED line")
        return
    cycles = int(match.group(2))
    stored = _STORED_LINE.search(inv.stdout)
    record = inv.new_records[-1] if len(inv.new_records) == 1 else None
    if (stored is None or record is None
            or record.get("run_id") != stored.group(1)
            or record.get("app") != app
            or record.get("cycles") != cycles):
        result.errors.append(f"{app}: stored record does not match "
                             f"{cycles} cycles")
        return
    expected = reference.setdefault(app, cycles)
    if cycles != expected:
        result.errors.append(f"{app}: {cycles} cycles, earlier ops "
                             f"gave {expected}")
        return
    result.points += 1
    result.cycles += cycles


def figure_table(stdout: str) -> str:
    """The printed Figure 10 table: everything before the sweep line."""
    match = _SWEEP_LINE.search(stdout)
    return stdout[:match.start()] if match else stdout


def check_figure10(inv: Invocation, warm: bool, reference: dict,
                   result: OpResult) -> None:
    """A figure10 pass: exit 0, every point simulated (cold) or a cache
    hit (warm), the same table and per-point cycles as the cold pass."""
    if inv.code != 0:
        result.errors.append(f"figure10: exit {inv.code}")
        return
    match = _SWEEP_LINE.search(inv.stdout)
    if match is None:
        result.errors.append("figure10: no sweep summary line")
        return
    points, hits, simulated = (int(g) for g in match.groups())
    want = ((FIGURE10_POINTS, FIGURE10_POINTS, 0) if warm
            else (FIGURE10_POINTS, 0, FIGURE10_POINTS))
    if (points, hits, simulated) != want or "FAILED" in inv.stdout:
        result.errors.append(
            f"figure10 {'warm' if warm else 'cold'}: {points} points, "
            f"{hits} hits, {simulated} simulated; want {want}")
        return
    table = figure_table(inv.stdout)
    cycles = [r["cycles"] for r in inv.new_records
              if r.get("kind") == "experiment"]
    if len(cycles) != FIGURE10_POINTS or not all(cycles):
        result.errors.append(f"figure10: {len(cycles)} stored experiment "
                             "records with cycles")
        return
    expected = reference.setdefault("figure10", (table, cycles))
    if (table, cycles) != expected:
        result.errors.append("figure10: table or cycles differ from the "
                             "cold pass")
        return
    result.points += points
    result.cycles += sum(cycles)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A fixture plus a fixed op, checked against the run's first op."""

    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.store = work / "store"
        self.rng = random.Random(seed)
        self.reference: dict = {}
        self.fixture: Path | None = None
        self.extra_argv: tuple = ()

    def prepare(self) -> None:
        self.fixture = build_seeded_store(self.work)

    def reset(self) -> None:
        restore(self.fixture, self.store)

    def invocations(self) -> list[tuple]:
        raise NotImplementedError

    def check(self, inv: Invocation, result: OpResult) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        """Reset, then run and check the op's invocations."""
        self.reset()
        return self.run_invocations()

    def run_invocations(self) -> OpResult:
        """Run and check the op's invocations on the store as it is.

        Only the invocations are timed; the store reads that find each
        invocation's new records, and the checks are not.
        """
        result = OpResult()
        for argv in self.invocations():
            before = len(store_lines(self.store))
            start = time.perf_counter()
            code, stdout = invoke(argv + self.extra_argv)
            result.seconds += time.perf_counter() - start
            new = [json.loads(x) for x in store_lines(self.store)[before:]]
            self.check(Invocation(argv, code, stdout, new), result)
        return result


class SimulateWorkload(Workload):
    """`repro simulate` on a fixed app set; the seed orders the apps."""

    points: tuple = ()

    def invocations(self) -> list[tuple]:
        bandwidth, apps = self.points
        order = list(apps)
        self.rng.shuffle(order)
        return [("simulate", app, "--engine", ENGINE, "--bandwidth",
                 bandwidth, "--store", str(self.store)) for app in order]

    def check(self, inv: Invocation, result: OpResult) -> None:
        check_simulate(inv, inv.argv[1], self.reference, result)


class SimulateActive(SimulateWorkload):
    name = "simulate-active"
    points = ACTIVE_POINTS


class SimulateIdle(SimulateWorkload):
    name = "simulate-idle"
    points = IDLE_POINTS


class Figure10Cold(Workload):
    """figure10 on an emptied result cache and sweep journal."""

    name = "figure10-cold"
    warm = False

    def invocations(self) -> list[tuple]:
        return [FIGURE10_ARGV + ("--store", str(self.store))]

    def check(self, inv: Invocation, result: OpResult) -> None:
        check_figure10(inv, self.warm, self.reference, result)

    def warm_op(self) -> OpResult:
        """The same command again on the cache the last op filled,
        checked as a warm pass: 24 hits, the cold pass's table."""
        self.warm = True
        try:
            return self.run_invocations()
        finally:
            self.warm = False


WORKLOADS = {cls.name: cls for cls in (SimulateActive, SimulateIdle,
                                       Figure10Cold)}
