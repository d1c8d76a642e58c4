"""Execute a pipeline schedule numerically on a partitioned model.

This is the functional-correctness substrate (artifact experiment E0)
and the repository's **golden reference**: the model's components are
partitioned into ``v * p`` chunks, each pipeline stage executes its
ordered op program, and tensors flow through explicit channels.  Any
valid schedule — DAPPLE, TeraPipe, VPP, SVPP, MEPipe with deferred
weight-gradient GEMMs — must produce gradients identical to sequential
execution; the test suite asserts exactly that, and the multi-process
:class:`~repro.pipeline.parallel_runtime.ParallelPipelineRuntime` is
in turn held bit-for-bit to this runtime.

Every op is wall-clock timed (relative to iteration start), so a
:class:`RunResult` satisfies the same :class:`~repro.obs.metrics
.PipelineResult` protocol as a simulated iteration and feeds the same
telemetry bus (``repro.obs``): pass a sink to :meth:`PipelineRuntime
.run` and the executed iteration renders row-for-row next to its
simulated counterpart in a trace viewer.

The per-op numerical semantics live in :class:`~repro.pipeline.stage
.StageExecutor`, shared with the parallel runtime; this module only
supplies the single-process scheduling loop and in-process mailboxes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.nn.model import TransformerModel
from repro.obs.events import NULL_SINK, EventSink
from repro.obs.metrics import CommLog
from repro.pipeline.stage import StageExecutor
from repro.schedules.base import OpId, OpKind, PipelineProblem, Schedule, ScheduleError
from repro.sim.executor import OpRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import IterationMetrics

__all__ = [
    "CommLog",  # moved to repro.obs.metrics; re-exported for back-compat
    "PipelineRuntime",
    "RunResult",
    "StageStats",
]

Array = np.ndarray[Any, np.dtype[Any]]


@dataclass
class StageStats:
    """Execution statistics of one pipeline stage.

    ``wait_seconds`` and ``overlap_w_seconds`` are measured only by the
    parallel runtime (a single-process execution never blocks on a
    channel): the former is time spent blocked on a channel receive,
    the latter is W-op compute performed *while* such a receive was
    pending — the paper's comm/wgrad overlap, as a wall-clock quantity.

    ``channel_buffer_bytes`` is the shared-memory ring footprint this
    stage pins as a *consumer* (slots × (header + payload) summed over
    its incoming channels), stamped by the parallel runtime from the
    capacity plan it allocated rings under; zero for serial runs,
    which use in-process mailboxes.

    ``peak_rss_bytes`` is the peak resident set size of the worker
    process that ran this stage, stamped by each parallel worker from
    its own ``getrusage``; zero for serial runs.
    """

    stage: int
    ops_executed: int = 0
    peak_live_contexts: int = 0
    peak_live_bytes: int = 0
    wgrad_tasks_run: int = 0
    busy_seconds: float = 0.0
    wait_seconds: float = 0.0
    overlap_w_seconds: float = 0.0
    channel_buffer_bytes: int = 0
    peak_rss_bytes: int = 0


@dataclass
class RunResult:
    """Outcome of one pipelined training iteration.

    Satisfies the :class:`~repro.obs.metrics.PipelineResult` protocol:
    ``bubble_ratio`` / ``stage_peak_bytes`` / ``comm_volume`` /
    ``stage_records`` / ``metrics()`` mirror the simulator's accessors,
    with wall-clock seconds as the time base.  ``executor`` records
    which runtime produced the result (``"serial"`` or ``"parallel"``)
    — the interpretation of :attr:`bubble_ratio` depends on it.
    """

    loss: float
    stage_stats: list[StageStats]
    ops_executed: int
    comms: CommLog = field(default_factory=CommLog)
    schedule_name: str = "unnamed"
    problem: PipelineProblem | None = None
    wall_seconds: float = 0.0
    stage_record_lists: list[list[OpRecord]] = field(default_factory=list)
    executor: str = "serial"

    @property
    def peak_live_contexts(self) -> int:
        """Largest number of live slice-contexts on any stage."""
        return max(s.peak_live_contexts for s in self.stage_stats)

    @property
    def peak_live_bytes(self) -> int:
        """Largest live activation footprint on any stage, in bytes."""
        return max(s.peak_live_bytes for s in self.stage_stats)

    @property
    def overlap_w_seconds(self) -> float:
        """Total W-op compute performed while a channel recv was pending.

        Nonzero only for parallel executions: it is the measured
        comm/wgrad overlap MEPipe's deferred weight-gradient GEMMs
        exist to create (Section 5).
        """
        return sum(s.overlap_w_seconds for s in self.stage_stats)

    # -- PipelineResult protocol ---------------------------------------
    @property
    def stage_peak_bytes(self) -> tuple[int, ...]:
        """Per-stage peak live activation bytes (measured)."""
        return tuple(s.peak_live_bytes for s in self.stage_stats)

    @property
    def comm_volume(self) -> CommLog:
        """Cross-stage traffic (alias of ``comms``)."""
        return self.comms

    @property
    def bubble_ratio(self) -> float:
        """Wall-clock idle fraction ``1 - busy / (p * wall)``.

        For a **parallel** result (``executor == "parallel"``) every
        stage is its own process, so this is a true measured
        device-idle fraction: per-stage idle is real wall-clock time
        the worker spent blocked on channels (``StageStats
        .wait_seconds``) or out of work.

        For a **serial** result the runtime executes all stages in one
        process, so stage "idle" includes time spent running other
        stages' ops — useful for comparing schedules against each other
        on this substrate, not as an absolute utilization figure.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        busy = sum(s.busy_seconds for s in self.stage_stats)
        return 1.0 - busy / (len(self.stage_stats) * self.wall_seconds)

    def stage_records(self, stage: int) -> list[OpRecord]:
        """Wall-clock op records of one stage, in start order."""
        if not self.stage_record_lists:
            return []
        return self.stage_record_lists[stage]

    def metrics(self) -> "IterationMetrics":
        """Uniform :class:`~repro.obs.metrics.IterationMetrics` summary."""
        from repro.obs.metrics import iteration_metrics

        return iteration_metrics(
            self,
            source="runtime",
            time_unit="seconds",
            num_stages=len(self.stage_stats),
        )


class _RuntimeLike(Protocol):
    """What :func:`_preflight` needs from either runtime."""

    model: TransformerModel
    num_microbatches: int
    seq_length: int


def _preflight(
    runtime: _RuntimeLike, schedule: Schedule, context: str
) -> PipelineProblem:
    """Shared entry checks of both runtimes: static verification plus
    data/problem shape agreement."""
    from repro.analysis import ensure_model_verified
    from repro.schedules.verify import ensure_verified

    ensure_verified(schedule, context=context)
    ensure_model_verified(runtime.model, schedule, context=context)
    problem = schedule.problem
    if problem.num_microbatches != runtime.num_microbatches:
        raise ScheduleError(
            f"schedule expects {problem.num_microbatches} micro-batches, "
            f"data has {runtime.num_microbatches}")
    if runtime.seq_length % problem.num_slices != 0:
        raise ScheduleError("sequence not divisible into slices")
    return problem


class PipelineRuntime:
    """Runs schedules over a chunk-partitioned :class:`TransformerModel`.

    Args:
        model: The model to train; it is partitioned into
            ``schedule.problem.num_chunks`` contiguous chunks.
        tokens: ``(n, B, T)`` token ids.
        targets: ``(n, B, T)`` labels.
    """

    def __init__(self, model: TransformerModel, tokens: Array, targets: Array):
        self.model = model
        self.tokens = tokens
        self.targets = targets
        n, batch, seqlen = tokens.shape
        self.num_microbatches = int(n)
        self.seq_length = int(seqlen)
        model.head.loss_scale = 1.0 / (n * batch * seqlen)

    # ------------------------------------------------------------------
    def run(self, schedule: Schedule, sink: EventSink = NULL_SINK) -> RunResult:
        """Execute one iteration under ``schedule``.

        Gradients accumulate into the model; call ``model.init_grads()``
        between iterations (or use :class:`repro.nn.Adam`, which does).

        When ``sink`` is enabled, the iteration's telemetry (per-op
        spans, channel send/recv instants, per-stage counters) is
        emitted after execution via :func:`repro.obs.record
        .record_iteration`.
        """
        problem = _preflight(self, schedule, "pipeline runtime")

        chunks = self.model.partition(problem.num_chunks)
        stats = [StageStats(stage=s) for s in range(problem.num_stages)]
        executors = [
            StageExecutor(
                s,
                problem,
                {c: chunks[c] for c in problem.chunks_of_stage(s)},
                self.tokens,
                self.targets,
                stats[s],
            )
            for s in range(problem.num_stages)
        ]
        programs = [schedule.stage_ops(s) for s in range(problem.num_stages)]
        records: list[list[OpRecord]] = [[] for _ in range(problem.num_stages)]
        # In-process mailboxes: (mb, sl, chunk) -> boundary tensor.
        forward: dict[tuple[int, int, int], Array] = {}
        backward: dict[tuple[int, int, int], Array] = {}
        comms = CommLog()
        loss = 0.0

        # Token-passing execution: stages advance their program heads
        # whenever the next op's inputs are available.  This realizes
        # any dependency-consistent interleaving; numerics cannot depend
        # on which one the wall clock would pick.
        heads = [0] * problem.num_stages
        done: set[OpId] = set()
        total = schedule.op_count()
        t0 = time.perf_counter()
        while len(done) < total:
            progressed = False
            for stage in range(problem.num_stages):
                program = programs[stage]
                executor = executors[stage]
                while heads[stage] < len(program):
                    op = program[heads[stage]]
                    if any(d not in done for d in problem.deps(op)):
                        break
                    mb, sl, c = op.microbatch, op.slice_idx, op.chunk
                    payload: Array | None = None
                    if op.kind is OpKind.F and c > 0:
                        payload = forward.pop((mb, sl, c - 1))
                    elif op.kind is OpKind.B and c < problem.num_chunks - 1:
                        payload = backward.pop((mb, sl, c + 1))
                    op_start = time.perf_counter() - t0
                    outcome = executor.execute(op, payload)
                    op_end = time.perf_counter() - t0
                    loss += outcome.loss
                    if outcome.payload is not None:
                        mailbox = forward if op.kind is OpKind.F else backward
                        mailbox[(mb, sl, c)] = outcome.payload
                        dst = problem.stage_of_chunk(outcome.dst_chunk)
                        if dst != stage:
                            comms.note(stage, dst, outcome.payload.nbytes)
                    stats[stage].busy_seconds += op_end - op_start
                    records[stage].append(
                        OpRecord(op=op, stage=stage, start=op_start, end=op_end)
                    )
                    done.add(op)
                    heads[stage] += 1
                    progressed = True
            if not progressed:
                raise ScheduleError("pipeline runtime deadlock")
        wall = time.perf_counter() - t0

        if forward or backward:
            raise ScheduleError("unconsumed channel tensors at iteration end")
        for executor in executors:
            executor.assert_drained()
        result = RunResult(
            loss=loss,
            stage_stats=stats,
            ops_executed=sum(s.ops_executed for s in stats),
            comms=comms,
            schedule_name=schedule.name,
            problem=problem,
            wall_seconds=wall,
            stage_record_lists=records,
            executor="serial",
        )
        if sink.enabled:
            from repro.obs.record import record_iteration

            record_iteration(result, sink)
        return result
