"""Default evaluation workloads: one input per benchmark.

The paper evaluates BFS/SSSP on the DIMACS USA road network (23.9M
vertices), MST on road-class graphs, DMR on Kulkarni et al.'s meshes and LU
on BOTS matrices.  At laptop scale no single graph can reproduce both
properties the USA input has — thousands of BFS levels *and* thousands of
vertices of parallel work per level — so the harness splits them:

* Table 1 uses a narrow road lattice (the level count is what kills the
  host-coordinated OpenCL schedule);
* Figures 9/10 use a wide scale-free (RMAT) graph for BFS/SSSP so the
  accelerator runs in the bandwidth-bound regime the full-size road input
  creates (see EXPERIMENTS.md for the substitution argument).

Each workload also carries the accelerator configuration the heuristic
tuner would pick for it at evaluation scale: pipeline replicas and rule
lanes for the wide graph applications, the deterministic-reservation window
for the ordered ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.apps.registry import build_app
from repro.core.spec import ApplicationSpec
from repro.exec.job import WorkloadSource
from repro.cpu.counters import (
    WorkloadProfile,
    bfs_profile,
    dmr_profile,
    lu_profile,
    mst_profile,
    sssp_profile,
)
from repro.sim.accelerator import SimConfig
from repro.substrates.graphs.generators import (
    random_graph,
    rmat_graph,
    road_network,
)
from repro.substrates.sparse.block import make_sparselu_instance

APP_NAMES = (
    "SPEC-BFS", "COOR-BFS", "SPEC-SSSP", "SPEC-MST", "SPEC-DMR", "COOR-LU",
)

# Wide graph applications: many pipelines, lanes sized so lane occupancy
# across the ~40-cycle load shadow does not throttle issue.
WIDE_CONFIG = SimConfig(station_depth=16, rule_lanes=128)
# Ordered applications: the rule-lane count doubles as the deterministic-
# reservation window.
ORDERED_CONFIG = SimConfig(station_depth=8, rule_lanes=32,
                           minimum_broadcast_interval=6)


@dataclass
class Workload:
    """An application spec plus its matched CPU profile and sim settings."""

    app: str
    spec_builder: Callable[[], ApplicationSpec]
    profile: WorkloadProfile
    params: dict[str, Any]
    config: SimConfig = field(default_factory=SimConfig)
    replicas: dict[str, int] | None = None
    # Declarative, picklable recipe for spec_builder (same spec, rebuilt
    # inside a pool worker); None means this workload only runs in-process.
    source: Any = None

    def build_spec(self) -> ApplicationSpec:
        return self.spec_builder()


def default_workloads(
    scale: float = 1.0, apps: Iterable[str] | None = None,
) -> dict[str, Workload]:
    """The default per-benchmark inputs, optionally scaled.

    ``apps`` restricts the table to those benchmarks (default: all of
    :data:`APP_NAMES`); only their inputs and CPU profiles are built, so
    a single-app caller does not pay for the other five.  Inputs come
    from the same seeds either way.
    """
    s = max(0.25, scale)
    rmat_scale = 9 if s >= 0.75 else 8

    @functools.cache
    def wide():
        return rmat_graph(rmat_scale, edge_factor=8, seed=4)

    def graph_workload(app: str, profile, replicas: dict[str, int]):
        graph = wide()
        return Workload(
            app,
            lambda: build_app(app, graph, 0),
            profile(graph, 0),
            {"graph": f"rmat 2^{rmat_scale}"},
            config=WIDE_CONFIG,
            replicas=replicas,
            source=WorkloadSource(app, "default", s),
        )

    def spec_mst():
        mst_graph = random_graph(int(600 * s), int(1800 * s), seed=5)
        return Workload(
            "SPEC-MST",
            lambda: build_app("SPEC-MST", mst_graph),
            mst_profile(mst_graph),
            {"graph": f"random {mst_graph.num_vertices}v"},
            config=ORDERED_CONFIG,
            replicas={"mstedge": 2},
            source=WorkloadSource("SPEC-MST", "default", s),
        )

    def spec_dmr():
        dmr_points, dmr_seed = int(140 * s), 3
        return Workload(
            "SPEC-DMR",
            lambda: build_app("SPEC-DMR", n_points=dmr_points, seed=dmr_seed),
            dmr_profile(dmr_points, dmr_seed),
            {"points": dmr_points},
            config=ORDERED_CONFIG,
            replicas={"refine": 2},
            source=WorkloadSource("SPEC-DMR", "default", s),
        )

    def coor_lu():
        lu_grid, lu_block = 8, 24
        lu_matrix = make_sparselu_instance(lu_grid, lu_block, 0.30, seed=7)
        return Workload(
            "COOR-LU",
            lambda: build_app(
                "COOR-LU", grid=lu_grid, block_size=lu_block,
                density=0.30, seed=7,
            ),
            lu_profile(lu_matrix),
            {"grid": lu_grid, "block": lu_block},
            config=ORDERED_CONFIG,
            replicas={"lutask": 2},
            source=WorkloadSource("COOR-LU", "default", s),
        )

    makers: dict[str, Callable[[], Workload]] = {
        "SPEC-BFS": lambda: graph_workload(
            "SPEC-BFS", bfs_profile, {"visit": 4, "update": 2}),
        "COOR-BFS": lambda: graph_workload(
            "COOR-BFS", bfs_profile, {"visit": 4}),
        "SPEC-SSSP": lambda: graph_workload(
            "SPEC-SSSP", sssp_profile, {"relax": 4}),
        "SPEC-MST": spec_mst,
        "SPEC-DMR": spec_dmr,
        "COOR-LU": coor_lu,
    }
    return {app: makers[app]() for app in (APP_NAMES if apps is None
                                           else apps)}


def road_workloads(scale: float = 1.0) -> dict[str, Workload]:
    """Road-network variants of the graph benchmarks (Table 1 regime)."""
    s = max(0.25, scale)
    road = road_network(int(36 * s), int(22 * s), seed=11)
    return {
        "SPEC-BFS": Workload(
            "SPEC-BFS",
            lambda: build_app("SPEC-BFS", road, 0),
            bfs_profile(road, 0),
            {"graph": "road"},
            source=WorkloadSource("SPEC-BFS", "road", s),
        ),
        "COOR-BFS": Workload(
            "COOR-BFS",
            lambda: build_app("COOR-BFS", road, 0),
            bfs_profile(road, 0),
            {"graph": "road"},
            source=WorkloadSource("COOR-BFS", "road", s),
        ),
        "SPEC-SSSP": Workload(
            "SPEC-SSSP",
            lambda: build_app("SPEC-SSSP", road, 0),
            sssp_profile(road, 0),
            {"graph": "road"},
            source=WorkloadSource("SPEC-SSSP", "road", s),
        ),
    }
