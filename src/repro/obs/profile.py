"""Stall-attribution profiling: fold stage activity into cycle accounting.

The profiler is fed directly by the observability hooks (``fire`` /
``stall`` per stage and cycle), independent of the Chrome-trace ring,
which may not exist at all or may have wrapped.  For each stage it
classifies every cycle as exactly one of *active*, one of the four
:class:`StallReason` buckets, or *idle* — a fire beats a stall recorded
in the same cycle, the first stall reason wins among stalls — so the
per-stage rows sum **exactly** to the total simulated cycle count.  The accounting state is part of the
simulator's checkpointed object graph: a rollback restores it along with
the rest of the machine, so replayed cycles are never double-counted.
"""

from __future__ import annotations

from repro.obs.events import StallReason

# Column order of one accounting row; "active" must sort before every
# stall reason (classification precedence is the column index).
COLUMNS = (
    "active",
    StallReason.QUEUE.value,
    StallReason.MEMORY.value,
    StallReason.RULE.value,
    StallReason.BACKPRESSURE.value,
)
_REASON_INDEX = {
    StallReason.QUEUE: 1,
    StallReason.MEMORY: 2,
    StallReason.RULE: 3,
    StallReason.BACKPRESSURE: 4,
}

# A profiler row holds the committed count of every COLUMNS entry, then
# the open cell: the cycle still being observed (None before the first
# observation) and the column currently holding it.
_OPEN = len(COLUMNS)
_HELD = _OPEN + 1


class StallProfiler:
    """Per-stage cycle accounting, folded online from the stage hooks."""

    def __init__(self) -> None:
        # stage -> [active, queue, memory, rule, backpressure, open, held]
        self._rows: dict[str, list] = {}

    def _row(self, stage: str) -> list:
        row = self._rows[stage] = [0] * len(COLUMNS) + [None, 0]
        return row

    # -- observation ----------------------------------------------------------

    def fire(self, stage: str, cycle: int) -> None:
        """``stage`` advanced a token in ``cycle``: a fire beats any
        stall recorded in the same cycle."""
        row = self._rows.get(stage) or self._row(stage)
        open_cycle = row[_OPEN]
        if open_cycle != cycle:
            if open_cycle is not None:
                row[row[_HELD]] += 1
            row[_OPEN] = cycle
        row[_HELD] = 0

    def stall(self, stage: str, cycle: int, reason: StallReason) -> None:
        """``stage`` held a token in ``cycle``: the first observation of
        a cycle (fire or stall) keeps it against later stalls."""
        row = self._rows.get(stage) or self._row(stage)
        open_cycle = row[_OPEN]
        if open_cycle == cycle:
            return
        if open_cycle is not None:
            row[row[_HELD]] += 1
        row[_OPEN] = cycle
        row[_HELD] = _REASON_INDEX[reason]

    # -- fast-forward crediting ------------------------------------------------

    def credit(self, stage: str, reason: StallReason, count: int) -> None:
        """Account ``count`` skipped cycles that repeat the open stall.

        The fast-forward core skips cycles only when the machine is
        stationary, so each skipped cycle would have re-recorded the
        probe cycle's (already open) stall cell.  Dense equivalent:
        ``count`` repeats commit the open cell plus ``count - 1`` copies
        and leave the last repeat open — i.e. the committed row grows by
        ``count`` and the open cell slides forward by ``count`` cycles.
        """
        if count <= 0:
            return
        row = self._rows.get(stage) or self._row(stage)
        row[_REASON_INDEX[reason]] += count
        if row[_OPEN] is not None:
            row[_OPEN] += count

    # -- reporting ------------------------------------------------------------

    def accounting(
        self, stage_names: list[str], total_cycles: int
    ) -> dict[str, dict[str, int]]:
        """Non-destructive per-stage rows; each sums to ``total_cycles``.

        ``idle`` absorbs the cycles a stage neither fired nor stalled —
        including out-of-order stations waiting on completions with spare
        capacity (see docs/observability.md for the exact semantics).
        """
        report: dict[str, dict[str, int]] = {}
        for stage in stage_names:
            held = self._rows.get(stage)
            row = [0] * len(COLUMNS) if held is None else held[:_OPEN]
            if (held is not None and held[_OPEN] is not None
                    and held[_OPEN] < total_cycles):
                row[held[_HELD]] += 1
            cells = dict(zip(COLUMNS, row))
            cells["idle"] = total_cycles - sum(row)
            cells["total"] = total_cycles
            report[stage] = cells
        return report


class UtilizationTimeline:
    """Bounded-memory pipeline-activity timeline, folded from stage fires.

    Counts stage fires into fixed-width cycle buckets; when a run
    outgrows ``max_buckets`` the resolution halves (adjacent buckets
    merge, the width doubles), so any run folds into at most
    ``max_buckets`` points — the series the dashboard's utilization
    timeline plots.  Like the profiler it is fed directly by the hooks,
    so the timeline is complete whether or not a trace ring exists, and
    it is plain data, so checkpoints copy it and rollbacks restore it.
    """

    def __init__(self, max_buckets: int = 256) -> None:
        if max_buckets < 2:
            raise ValueError("timeline needs at least 2 buckets")
        self.max_buckets = max_buckets
        self.bucket_cycles = 1
        self.counts: list[int] = []

    def fire(self, cycle: int) -> None:
        """One stage fired in ``cycle``."""
        index = cycle // self.bucket_cycles
        counts = self.counts
        if index < len(counts):   # never more than max_buckets buckets
            counts[index] += 1
            return
        while index >= self.max_buckets:
            self.counts = counts = [
                counts[i] + (counts[i + 1] if i + 1 < len(counts) else 0)
                for i in range(0, len(counts), 2)
            ]
            self.bucket_cycles *= 2
            index = cycle // self.bucket_cycles
        if index >= len(counts):
            counts.extend([0] * (index + 1 - len(counts)))
        counts[index] += 1

    def series(self, total_stages: int) -> list[float]:
        """Per-bucket utilization: active stage-cycles over capacity."""
        capacity = max(1, total_stages) * self.bucket_cycles
        return [round(count / capacity, 6) for count in self.counts]

    def to_dict(self, total_stages: int) -> dict:
        """The JSON form stored in a run record."""
        return {
            "bucket_cycles": self.bucket_cycles,
            "utilization": self.series(total_stages),
        }


def format_stall_report(
    accounting: dict[str, dict[str, int]],
    total_cycles: int,
    top: int | None = None,
) -> str:
    """Render the accounting as the ``repro profile`` table.

    Stages are ordered by stalled cycles (most-stalled first); ``top``
    truncates the table, with a note counting the elided stages.
    """
    headers = ("stage",) + COLUMNS + ("idle", "total")
    stall_cols = COLUMNS[1:]

    def stalled(cells: dict[str, int]) -> int:
        return sum(cells[c] for c in stall_cols)

    ordered = sorted(
        accounting.items(),
        key=lambda item: (-stalled(item[1]), -item[1]["active"], item[0]),
    )
    elided = 0
    if top is not None and len(ordered) > top:
        elided = len(ordered) - top
        ordered = ordered[:top]
    name_width = max([len(headers[0])] + [len(name) for name, _ in ordered])
    col_width = max(
        max(len(h) for h in headers[1:]) + 2,
        len(str(total_cycles)) + 2,
    )
    lines = [
        f"stall attribution over {total_cycles} cycles "
        "(each row sums to total)",
        f"{headers[0]:<{name_width}}"
        + "".join(f"{h:>{col_width}}" for h in headers[1:]),
    ]
    for name, cells in ordered:
        lines.append(
            f"{name:<{name_width}}"
            + "".join(f"{cells[h]:>{col_width}}" for h in headers[1:])
        )
    if elided:
        lines.append(f"... ({elided} fully accounted stages elided)")
    return "\n".join(lines)
