"""Tests of the benchmark itself: fixture, checker, layer fold.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import importlib
import json

import pytest

import ops

ops.bootstrap()

import layers  # noqa: E402  (needs the source tree on the path)
import run  # noqa: E402

SIM_OUT = ("{app}: {cycles} cycles (29.8 us at 200 MHz), utilization "
           "22.9%, squash 0.2%, cache hit 82%, 84160 bytes over QPI — "
           "VERIFIED\nevent engine: 29 jumps skipped 251 idle cycles\n"
           "stored run {run_id} -> store/runs.jsonl\n")
TABLE = "Figure 10: Speedup over 1x-QPI baseline\n  SPEC-BFS   ...\n"


def simulate_inv(app="SPEC-BFS", cycles=5959, stored=None, stdout=None,
                 code=0):
    record = {"run_id": "000201", "app": app,
              "cycles": cycles if stored is None else stored}
    text = stdout if stdout is not None else SIM_OUT.format(
        app=app, cycles=cycles, run_id="000201")
    return ops.Invocation(("simulate", app), code, text, [record])


def figure10_inv(hits, simulated, table=TABLE, cycles=1000):
    stdout = (f"{table}sweep: 24 points, {hits} cache hits, {simulated} "
              "simulated, jobs=2, 0.10s\nstored 24 experiment records -> "
              "store/runs.jsonl\n")
    records = [{"kind": "experiment", "cycles": cycles + i}
               for i in range(24)] + [{"kind": "sweep", "cycles": 0}]
    return ops.Invocation(ops.FIGURE10_ARGV, 0, stdout, records)


def tree_digest(root):
    """sha256 over every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def checked(check, *args):
    result = ops.OpResult()
    check(*args, result)
    return result


class TestSimulateChecker:
    def test_verified_output_passes_and_counts(self):
        result = checked(ops.check_simulate, simulate_inv(), "SPEC-BFS", {})
        assert result.ok and result.points == 1 and result.cycles == 5959

    def test_missing_verified_fails(self):
        text = SIM_OUT.format(app="SPEC-BFS", cycles=5959,
                              run_id="000201").replace(" — VERIFIED", "")
        result = checked(ops.check_simulate, simulate_inv(stdout=text),
                         "SPEC-BFS", {})
        assert not result.ok and result.points == 0

    def test_nonzero_exit_fails(self):
        result = checked(ops.check_simulate, simulate_inv(code=1),
                         "SPEC-BFS", {})
        assert not result.ok

    def test_cycles_differing_from_earlier_ops_fail(self):
        reference = {"SPEC-BFS": 5958}
        result = checked(ops.check_simulate, simulate_inv(), "SPEC-BFS",
                         reference)
        assert not result.ok

    def test_cycles_differing_from_stored_record_fail(self):
        result = checked(ops.check_simulate, simulate_inv(stored=5960),
                         "SPEC-BFS", {})
        assert not result.ok


class TestFigure10Checker:
    def test_cold_then_warm_pass(self):
        reference: dict = {}
        cold = checked(ops.check_figure10, figure10_inv(0, 24), False,
                       reference)
        warm = checked(ops.check_figure10, figure10_inv(24, 0), True,
                       reference)
        assert cold.ok and warm.ok and warm.points == 24

    @pytest.mark.parametrize("hits,simulated", [(23, 1), (0, 24)])
    def test_warm_pass_without_24_hits_fails(self, hits, simulated):
        result = checked(ops.check_figure10, figure10_inv(hits, simulated),
                         True, {})
        assert not result.ok

    def test_warm_table_differing_from_cold_fails(self):
        reference: dict = {}
        checked(ops.check_figure10, figure10_inv(0, 24), False, reference)
        result = checked(ops.check_figure10,
                         figure10_inv(24, 0, table=TABLE + "extra\n"), True,
                         reference)
        assert not result.ok

    def test_warm_cycles_differing_from_cold_fail(self):
        reference: dict = {}
        checked(ops.check_figure10, figure10_inv(0, 24), False, reference)
        result = checked(ops.check_figure10, figure10_inv(24, 0, cycles=999),
                         True, reference)
        assert not result.ok


class TwoInvocationOps:
    """Ops of two simulate invocations; the second fails on odd ops."""

    def __init__(self):
        self.count = 0
        self.reference: dict = {}

    def op(self):
        self.count += 1
        result = ops.OpResult(seconds=1.0)
        ops.check_simulate(simulate_inv(), "SPEC-BFS", self.reference,
                           result)
        ops.check_simulate(simulate_inv("COOR-BFS", code=self.count % 2),
                           "COOR-BFS", self.reference, result)
        return result


def test_failed_op_time_counts_but_not_its_work():
    results: list = []
    metrics = run.timed_run(TwoInvocationOps(), 4.0, results)
    assert [r.ok for r in results] == [False, True, False, True]
    assert results[0].points == 1
    assert metrics["points_per_s"] == (4 / 4.0, "1/s")
    assert metrics["sim_cycles_per_s"] == (4 * 5959 / 4.0, "cycles/s")


class OneIdlePoint(ops.SimulateWorkload):
    name = "test-one-point"
    points = ("0.05", ("COOR-LU",))


def test_fixture_reset_restores_identical_bytes(tmp_path):
    workload = OneIdlePoint(tmp_path, seed=3)
    workload.prepare()
    records = [json.loads(x) for x in ops.store_lines(workload.fixture)]
    assert len({r["run_id"] for r in records}) == ops.FIXTURE_RECORDS
    assert {r["kind"] for r in records} == {"simulate"}
    expected = tree_digest(workload.fixture)
    first = workload.op()
    assert first.ok, first.errors
    assert tree_digest(workload.store) != expected
    (workload.store / "simcache.jsonl").write_text("stale\n")
    workload.reset()
    assert tree_digest(workload.store) == expected
    second = workload.op()
    assert second.ok and second.cycles == first.cycles > 0


def test_fold_covers_every_sim_module():
    sim_dir = ops.SRC / "repro" / "sim"
    modules = sorted(p.name for p in sim_dir.glob("*.py"))
    assert modules
    missing = [name for name in modules if name not in layers.SIM_FOLD]
    assert not missing, f"add {missing} to layers.SIM_FOLD"
    assert set(layers.SIM_FOLD.values()) == set(layers.SIM_COMPONENTS)
    for name in modules:
        assert layers.fold(str(sim_dir / name)).startswith("sim.")
    assert layers.fold(str(ops.SRC / "repro" / "cli.py")) == "cli"
    assert layers.fold("/elsewhere/json/__init__.py") is None


def test_boundary_wrappers_are_removed_after_the_traced_op():
    def attribute(module, cls, attr):
        owner = importlib.import_module(module)
        return (getattr(owner, cls) if cls else owner).__dict__[attr]

    before = [attribute(m, c, a) for m, c, a, _ in layers.BOUNDARIES]
    spans = layers.Spans()
    with spans.installed():
        assert attribute(*layers.BOUNDARIES[0][:3]) is not before[0]
    after = [attribute(m, c, a) for m, c, a, _ in layers.BOUNDARIES]
    assert all(x is y for x, y in zip(before, after))
