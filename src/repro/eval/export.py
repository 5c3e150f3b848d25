"""JSON export of experiment results.

Serializes the experiment dataclasses so CI pipelines, notebooks, or
plotting scripts can consume the reproduction's numbers without re-running
simulations.  ``export_all`` writes one JSON document containing every
table/figure plus the paper's reference numbers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.eval.experiments import (
    Figure9Result,
    Figure10Series,
    PAPER_FIGURE9_BANDS,
    PAPER_RULE_ENGINE_SHARE,
    PAPER_TABLE1,
    ResourceRow,
    Table1Result,
)


def table1_to_dict(result: Table1Result) -> dict[str, Any]:
    return {
        "graph": result.graph,
        "levels": result.levels,
        "seconds": {
            "OpenCL": result.opencl_seconds,
            "SPEC-BFS": result.spec_bfs_seconds,
            "COOR-BFS": result.coor_bfs_seconds,
        },
        "ratios": {
            "opencl_vs_spec": result.opencl_vs_spec,
            "opencl_vs_coor": result.opencl_vs_coor,
        },
        "paper_seconds": dict(PAPER_TABLE1),
    }


def figure9_to_dict(result: Figure9Result) -> dict[str, Any]:
    return {
        "paper_bands": {k: list(v) for k, v in PAPER_FIGURE9_BANDS.items()},
        "rows": {
            app: {
                "accel_seconds": row.accel_seconds,
                "sequential_seconds": row.sequential_seconds,
                "parallel_seconds": row.parallel_seconds,
                "speedup_vs_1core": row.speedup_vs_1core,
                "speedup_vs_10core": row.speedup_vs_10core,
                "utilization": row.utilization,
            }
            for app, row in result.rows.items()
        },
    }


def figure10_to_dict(series_by_app: dict[str, Figure10Series]
                     ) -> dict[str, Any]:
    return {
        app: [
            {
                "bandwidth_scale": p.bandwidth_scale,
                "seconds": p.seconds,
                "speedup_over_baseline": p.speedup_over_baseline,
                "utilization": p.utilization,
                "squash_fraction": p.squash_fraction,
            }
            for p in series.points
        ]
        for app, series in series_by_app.items()
    }


def resources_to_dict(rows: dict[str, ResourceRow]) -> dict[str, Any]:
    return {
        "paper_rule_engine_share": list(PAPER_RULE_ENGINE_SHARE),
        "rows": {
            app: {
                "pipelines": row.pipelines,
                "rule_lanes": row.rule_lanes,
                "rule_engine_register_share":
                    row.rule_engine_register_share,
                "register_utilization": row.register_utilization,
                "alm_utilization": row.alm_utilization,
                "bram_utilization": row.bram_utilization,
            }
            for app, row in rows.items()
        },
    }


def export_all(
    destination: str | Path,
    table1: Table1Result | None = None,
    figure9: Figure9Result | None = None,
    figure10: dict[str, Figure10Series] | None = None,
    resources: dict[str, ResourceRow] | None = None,
) -> Path:
    """Write the provided results to a single JSON file; returns the path."""
    document: dict[str, Any] = {"paper": "Li et al., ISCA 2017"}
    if table1 is not None:
        document["table1"] = table1_to_dict(table1)
    if figure9 is not None:
        document["figure9"] = figure9_to_dict(figure9)
    if figure10 is not None:
        document["figure10"] = figure10_to_dict(figure10)
    if resources is not None:
        document["resources"] = resources_to_dict(resources)
    path = Path(destination)
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# Run-store wiring: experiment results as RunRecords
# ---------------------------------------------------------------------------


def experiment_records(
    table1: Table1Result | None = None,
    figure9: Figure9Result | None = None,
    figure10: dict[str, Figure10Series] | None = None,
    resources: dict[str, ResourceRow] | None = None,
) -> list:
    """Experiment results as :class:`~repro.obs.runstore.RunRecord` rows.

    One record per simulated (app, platform) point, ``kind="experiment"``
    and the same schema as direct ``repro simulate`` records — so a
    figure-10 sweep lands in the store as the per-bandwidth series the
    dashboard plots, and ``repro runs diff`` works across experiment
    re-runs.  Cycle counts are recovered from the reported seconds at the
    evaluation clock; resource rows (no timing) store cycles = 0 with the
    structural numbers in ``extra``.
    """
    from repro.eval.platforms import EVAL_HARP
    from repro.obs.runstore import RunRecord, platform_to_dict

    def record(app: str, seconds: float, utilization: float,
               squash: float, platform, extra: dict[str, Any]) -> RunRecord:
        return RunRecord(
            kind="experiment",
            app=app,
            cycles=int(round(seconds * platform.clock_hz)),
            seconds=seconds,
            utilization=utilization,
            squash_fraction=squash,
            verified=True,
            platform=platform_to_dict(platform),
            extra=extra,
        )

    records: list = []
    if table1 is not None:
        for app, seconds in (("SPEC-BFS", table1.spec_bfs_seconds),
                             ("COOR-BFS", table1.coor_bfs_seconds)):
            records.append(record(
                app, seconds, 0.0, 0.0, EVAL_HARP,
                {"experiment": "table1", "graph": table1.graph,
                 "levels": table1.levels,
                 "opencl_seconds": table1.opencl_seconds},
            ))
    if figure9 is not None:
        for app, row in figure9.rows.items():
            records.append(record(
                app, row.accel_seconds, row.utilization, 0.0, EVAL_HARP,
                {"experiment": "figure9",
                 "speedup_vs_1core": round(row.speedup_vs_1core, 4),
                 "speedup_vs_10core": round(row.speedup_vs_10core, 4)},
            ))
    if figure10 is not None:
        for app, series in figure10.items():
            for point in series.points:
                records.append(record(
                    app, point.seconds, point.utilization,
                    point.squash_fraction,
                    EVAL_HARP.scaled(point.bandwidth_scale),
                    {"experiment": "figure10",
                     "speedup_over_baseline":
                         round(point.speedup_over_baseline, 4)},
                ))
    if resources is not None:
        for app, row in resources.items():
            records.append(record(
                app, 0.0, 0.0, 0.0, EVAL_HARP,
                {"experiment": "resources",
                 "pipelines": row.pipelines,
                 "rule_lanes": row.rule_lanes,
                 "rule_engine_register_share":
                     round(row.rule_engine_register_share, 4)},
            ))
    return records


def store_experiment_results(store, **results) -> int:
    """Append every experiment record to ``store``; returns the count."""
    return len(store.append_many(experiment_records(**results)))
