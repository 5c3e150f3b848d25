"""Ring-buffered structured event tracer with Chrome trace export.

The tracer keeps the most recent ``capacity`` events in a ring (old
events fall off the back, so tracing a long run is bounded-memory).  It
exists only for trace export: the stall-attribution profiler, the
utilization timeline and the metrics registry are folded directly by the
:class:`~repro.obs.Observability` hooks, so their accounting is complete
whether the ring has wrapped or was never built.

The ring exports to the Chrome ``trace_event`` JSON format, loadable in
``chrome://tracing`` or https://ui.perfetto.dev: stage activity becomes
per-stage duration slices, queue traffic becomes counter tracks, rule
and memory events become instants.  Cycle *n* is rendered at timestamp
*n* microseconds.
"""

from __future__ import annotations

import json
from collections import deque

from repro.obs.events import StallReason, TraceEvent, TraceEventKind

# Ring size of an exported trace unless the caller picks one.
DEFAULT_TRACE_CAPACITY = 65536

# Synthetic process ids grouping the Chrome trace tracks.
_PID_PIPELINES = 1
_PID_QUEUES = 2
_PID_RULES = 3
_PID_MEMORY = 4
_PID_RECOVERY = 5

_PROCESS_NAMES = {
    _PID_PIPELINES: "pipelines",
    _PID_QUEUES: "task queues",
    _PID_RULES: "rule engines",
    _PID_MEMORY: "memory system",
    _PID_RECOVERY: "checkpoint/rollback",
}


class EventTracer:
    """Bounded ring of :class:`TraceEvent`."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self.ring: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    # -- emission -------------------------------------------------------------

    def emit(
        self,
        cycle: int,
        kind: TraceEventKind,
        name: str,
        reason: StallReason | None = None,
        data: dict | None = None,
    ) -> None:
        self.ring.append(TraceEvent(cycle, kind, name, reason, data))
        self.emitted += 1

    @property
    def evicted(self) -> int:
        """Events that fell off the ring (the folded accounting still
        counts them)."""
        return self.emitted - len(self.ring)

    def events(self) -> list[TraceEvent]:
        return list(self.ring)

    # -- Chrome trace_event export ---------------------------------------------

    def chrome_trace(self) -> dict:
        """The ring as a Chrome ``trace_event`` JSON document (a dict).

        Besides the stage slices and instants, three families of counter
        tracks ("C" events) render Perfetto load curves: per-queue
        occupancy, per-engine live rule lanes, and the outstanding QPI
        request count (reconstructed from issue/complete instants, so it
        is relative to the start of the ring when old events were
        evicted).
        """
        out: list[dict] = []
        tids: dict[tuple[int, str], int] = {}
        qpi_outstanding = 0

        def tid(pid: int, name: str) -> int:
            key = (pid, name)
            ident = tids.get(key)
            if ident is None:
                ident = len(tids) + 1
                tids[key] = ident
                out.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": ident, "args": {"name": name},
                })
            return ident

        for pid, pname in _PROCESS_NAMES.items():
            out.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "args": {"name": pname},
            })

        for ev in self.ring:
            kind = ev.kind
            if kind is TraceEventKind.STAGE_FIRE:
                out.append({
                    "name": "active", "ph": "X", "ts": ev.cycle, "dur": 1,
                    "pid": _PID_PIPELINES, "tid": tid(_PID_PIPELINES, ev.name),
                })
            elif kind is TraceEventKind.STAGE_STALL:
                out.append({
                    "name": f"stall:{ev.reason.value}", "ph": "X",
                    "ts": ev.cycle, "dur": 1,
                    "pid": _PID_PIPELINES, "tid": tid(_PID_PIPELINES, ev.name),
                })
            elif kind in (TraceEventKind.TOKEN_ENQ, TraceEventKind.TOKEN_DEQ):
                out.append({
                    "name": f"queue:{ev.name}", "ph": "C", "ts": ev.cycle,
                    "pid": _PID_QUEUES,
                    "args": {"occupancy": (ev.data or {}).get("occupancy", 0)},
                })
            elif kind in (TraceEventKind.RULE_PROMISE,
                          TraceEventKind.RULE_RENDEZVOUS,
                          TraceEventKind.RULE_RETURN,
                          TraceEventKind.RULE_SQUASH):
                out.append({
                    "name": kind.value, "ph": "i", "s": "t", "ts": ev.cycle,
                    "pid": _PID_RULES, "tid": tid(_PID_RULES, ev.name),
                    "args": dict(ev.data) if ev.data else {},
                })
                if kind in (TraceEventKind.RULE_PROMISE,
                            TraceEventKind.RULE_RETURN):
                    out.append({
                        "name": f"lanes:{ev.name}", "ph": "C",
                        "ts": ev.cycle, "pid": _PID_RULES,
                        "args": {
                            "lanes": (ev.data or {}).get("occupancy", 0),
                        },
                    })
            elif kind in (TraceEventKind.MEM_ISSUE, TraceEventKind.MEM_HIT,
                          TraceEventKind.MEM_MISS,
                          TraceEventKind.MEM_COMPLETE):
                out.append({
                    "name": kind.value, "ph": "i", "s": "t", "ts": ev.cycle,
                    "pid": _PID_MEMORY, "tid": tid(_PID_MEMORY, "channel"),
                    "args": dict(ev.data) if ev.data else {},
                })
                if kind is TraceEventKind.MEM_ISSUE:
                    qpi_outstanding += 1
                elif kind is TraceEventKind.MEM_COMPLETE:
                    qpi_outstanding = max(0, qpi_outstanding - 1)
                if kind in (TraceEventKind.MEM_ISSUE,
                            TraceEventKind.MEM_COMPLETE):
                    out.append({
                        "name": "qpi:outstanding", "ph": "C",
                        "ts": ev.cycle, "pid": _PID_MEMORY,
                        "args": {"outstanding": qpi_outstanding},
                    })
            else:  # CHECKPOINT / ROLLBACK
                out.append({
                    "name": kind.value, "ph": "i", "s": "g", "ts": ev.cycle,
                    "pid": _PID_RECOVERY, "tid": tid(_PID_RECOVERY, "recovery"),
                    "args": dict(ev.data) if ev.data else {},
                })
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {
                "emitted": self.emitted,
                "evicted": self.evicted,
                "timestampUnit": "1 us == 1 simulated cycle",
            },
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=None,
                      separators=(",", ":"), sort_keys=False)
