"""The folded telemetry does not depend on the Chrome-trace ring.

The observability hooks fold the stall profiler, the utilization
timeline and the metrics registry directly; the event ring is built only
when a trace is exported.  Every run below is observed twice — without
a ring and with one large enough to hold every event — and everything a
stored record reads must come out identical.
"""

import json

import pytest

import repro.obs as obs_package
from repro.apps.registry import build_app
from repro.cli import _default_spec, main
from repro.eval.platforms import EVAL_HARP, HARP
from repro.obs import Observability
from repro.obs.runstore import record_from_result
from repro.obs.tracer import DEFAULT_TRACE_CAPACITY
from repro.sim.accelerator import AcceleratorSim, SimConfig, run_resilient
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.substrates.graphs import random_graph

FULL_RING = 1 << 20


def _spec(app):
    if app == "COOR-LU":
        return build_app(app, grid=6, block_size=4, seed=5)
    graph = random_graph(200, 600, seed=7)
    return build_app(app, graph) if app == "SPEC-MST" \
        else build_app(app, graph, 0)


def _telemetry(spec, result, stage_names, config):
    obs = result.obs
    record = record_from_result(
        "simulate", spec, result, platform=HARP, config=config,
        stage_names=stage_names,
    ).to_dict()
    record.pop("timestamp")
    return {
        "accounting": obs.profiler.accounting(stage_names, result.cycles),
        "timeline": obs.timeline.to_dict(result.stats.total_stages),
        "metrics": obs.registry.snapshot(),
        "record": record,
    }


def _observed(app, engine, trace_capacity):
    spec = _spec(app)
    config = SimConfig(engine=engine)
    obs = Observability(trace_capacity=trace_capacity)
    sim = AcceleratorSim(spec, platform=HARP, config=config, obs=obs)
    result = sim.run()
    names = [s.name for p in sim.pipelines for s in p.stages]
    return obs, _telemetry(spec, result, names, config)


def _lane_outage(trace_capacity):
    config = SimConfig()
    spec = _spec("SPEC-BFS")
    plan = FaultPlan([FaultEvent(
        FaultKind.LANE_FAIL, 400, duration=1 << 30,
        magnitude=config.rule_lanes,
    )])
    res = run_resilient(
        spec, platform=HARP, config=config, faults=plan,
        check_interval=256, checkpoint_interval=1000,
        obs=Observability(trace_capacity=trace_capacity),
    )
    names = list(res.result.stats.per_stage_active)
    return res, _telemetry(spec, res.result, names, config)


class TestFoldMatchesRing:
    @pytest.mark.parametrize("engine", ["dense", "event"])
    @pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-MST", "COOR-LU"])
    def test_plain_runs(self, app, engine):
        bare, folded = _observed(app, engine, None)
        ringed, traced = _observed(app, engine, FULL_RING)
        assert bare.tracer is None
        assert ringed.tracer.emitted > 0 and ringed.tracer.evicted == 0
        assert folded == traced

    def test_lane_outage_with_rollbacks(self):
        bare, folded = _lane_outage(None)
        ringed, traced = _lane_outage(FULL_RING)
        assert bare.rollbacks >= 1 and ringed.rollbacks == bare.rollbacks
        assert bare.result.obs.tracer is None
        assert folded == traced
        counters = folded["metrics"]["counters"]
        assert counters["recovery.rollbacks"] >= 1

    def test_wrapped_ring_still_matches(self):
        _, folded = _observed("SPEC-BFS", "dense", None)
        ringed, traced = _observed("SPEC-BFS", "dense", 64)
        assert ringed.tracer.evicted > 0
        assert folded == traced


class TestCliRing:
    def test_simulate_without_trace_out_builds_no_ring(self, tmp_path,
                                                      monkeypatch):
        built = []

        class Recording(obs_package.EventTracer):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(obs_package, "EventTracer", Recording)
        store = str(tmp_path / "store")
        assert main(["simulate", "SPEC-CC", "--store", store]) == 0
        assert built == []
        trace = tmp_path / "trace.json"
        assert main(["simulate", "SPEC-CC", "--store", store,
                     "--trace-out", str(trace)]) == 0
        assert built == [(DEFAULT_TRACE_CAPACITY,)]

        # The stored records do not depend on the ring.
        plain, traced = (json.loads(line) for line in
                         (tmp_path / "store" / "runs.jsonl").read_text()
                         .splitlines())
        for record in (plain, traced):
            for key in ("run_id", "timestamp", "wall_seconds"):
                record.pop(key)
        assert plain == traced

    def test_trace_out_writes_the_ring_export(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["simulate", "SPEC-CC", "--no-store",
                     "--trace-out", str(trace)]) == 0
        obs = Observability(trace_capacity=DEFAULT_TRACE_CAPACITY)
        AcceleratorSim(_default_spec("SPEC-CC"), platform=EVAL_HARP,
                       config=SimConfig(), obs=obs).run()
        written = trace.read_text(encoding="utf-8")
        assert written == json.dumps(obs.tracer.chrome_trace(),
                                     separators=(",", ":"))
