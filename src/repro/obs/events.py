"""The structured trace-event taxonomy (see docs/observability.md).

Every observable thing the simulator does maps to one
:class:`TraceEventKind`; stage stalls additionally carry a
:class:`StallReason` so the profiler can attribute every stalled cycle to
the resource the stage was blocked on.  Events are plain timestamped
records — the tracer ring-buffers them for trace export, and an event
object is never mutated after it is emitted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class TraceEventKind(enum.Enum):
    """What happened, at the granularity the schedule analyses need."""

    # Task-queue traffic.
    TOKEN_ENQ = "token-enq"          # a task entered a workset queue
    TOKEN_DEQ = "token-deq"          # a task was popped into a pipeline
    # Pipeline stages.
    STAGE_FIRE = "stage-fire"        # a stage advanced a token this cycle
    STAGE_STALL = "stage-stall"      # a stage held a token (reason attached)
    # Rule engines.
    RULE_PROMISE = "rule-promise"    # a lane was allocated (promise made)
    RULE_RENDEZVOUS = "rule-rendezvous"  # the parent reached its rendezvous
    RULE_RETURN = "rule-return"      # a verdict was consumed, lane freed
    RULE_SQUASH = "rule-squash"      # the verdict squashed the task
    # Memory system.
    MEM_ISSUE = "mem-issue"          # a load/store/stream request was issued
    MEM_HIT = "mem-hit"              # a load hit the FPGA cache
    MEM_MISS = "mem-miss"            # a load crossed the QPI channel
    MEM_COMPLETE = "mem-complete"    # an outstanding request retired
    # Robustness subsystem.
    CHECKPOINT = "checkpoint"        # a snapshot was captured
    ROLLBACK = "rollback"            # execution rolled back to a snapshot


class StallReason(enum.Enum):
    """The resource a stalled stage was blocked on.

    ``QUEUE``        a workset queue was full (Enqueue) or its banks
                     refused pops (Source under a bank-stall fault);
    ``MEMORY``       a load/expand/call station was full of in-flight
                     memory or function-unit requests;
    ``RULE``         no rule-engine lane was free (AllocRule), the
                     rendezvous station was full of unresolved promises,
                     or admission credits — bounded by the lane count —
                     ran out (Source);
    ``BACKPRESSURE`` the downstream FIFO (or epilogue entry) was full.
    """

    QUEUE = "queue"
    MEMORY = "memory"
    RULE = "rule"
    BACKPRESSURE = "backpressure"

    # Members are singletons compared by identity, so identity hashing
    # agrees with equality; it spares the profiler's per-stall column
    # lookup Enum's Python-level ``__hash__``.
    __hash__ = object.__hash__


@dataclass
class TraceEvent:
    """One timestamped observation.

    ``name`` identifies the component (stage, queue, engine); ``reason``
    is set only for ``STAGE_STALL``; ``data`` carries small kind-specific
    payloads (occupancy, verdict, address, latency).
    """

    __slots__ = ("cycle", "kind", "name", "reason", "data")

    cycle: int
    kind: TraceEventKind
    name: str
    reason: StallReason | None
    data: dict[str, Any] | None

    def __deepcopy__(self, memo):
        # Events are immutable once emitted; sharing them keeps checkpoint
        # snapshots of a large trace ring cheap.
        return self
