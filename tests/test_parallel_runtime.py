"""The multi-process pipeline executor (repro.pipeline.parallel_runtime).

The contract under test: :class:`ParallelPipelineRuntime` is the serial
:class:`PipelineRuntime` with real concurrency — gradients, loss, op
counts, and per-stage memory peaks are **bit-for-bit identical** across
the full E0 schedule grid; comm/wgrad overlap becomes a measured
wall-clock quantity; a failing worker surfaces as a diagnosable
:class:`ScheduleError` with no orphan processes or leaked shared-memory
segments; and workers start from a warm server with one-thread BLAS
pools without touching the caller's environment.
"""

import glob
import json
import multiprocessing as mp
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data import token_batches
from repro.model import tiny_spec
from repro.nn import Adam, build_model
from repro.pipeline import FaultSpec, ParallelPipelineRuntime, PipelineRuntime
from repro.schedules import ScheduleError, build_problem, build_schedule

SPEC = tiny_spec(hidden_size=32, num_layers=6, num_heads=4,
                 ffn_hidden_size=64, vocab_size=31, seq_length=16)
N, B = 4, 2

#: The E0 acceptance grid (mirrors repro.experiments.e0.METHOD_SETUPS):
#: classic fused-backward baselines plus the split-backward W-deferral
#: family the parallel executor exists to measure.
GRID = [
    ("dapple", {}),
    ("terapipe", {"num_slices": 4}),
    ("vpp", {"virtual_size": 2}),
    ("zb", {}),
    ("zbv", {}),
    ("svpp", {"num_slices": 4, "virtual_size": 2}),
    ("mepipe", {"num_slices": 4, "wgrad_gemms": 3}),
]


@pytest.fixture(scope="module")
def data():
    return token_batches(SPEC.vocab_size, N, B, SPEC.seq_length, seed=5)


def build(method, p=4, **kwargs):
    problem = build_problem(method, p, N, **kwargs)
    return build_schedule(method, problem)


def run_serial(schedule, data):
    tokens, targets = data
    model = build_model(SPEC, seed=11)
    result = PipelineRuntime(model, tokens, targets).run(schedule)
    return model, result


def run_parallel(schedule, data, timeout=60.0, **kwargs):
    tokens, targets = data
    model = build_model(SPEC, seed=11)
    runtime = ParallelPipelineRuntime(model, tokens, targets, timeout=timeout)
    result = runtime.run(schedule, **kwargs)
    return model, result


def shm_leftovers():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return glob.glob("/dev/shm/repro*")


class TestBitExactness:
    """Parallel == serial, bit for bit, across the E0 grid."""

    @pytest.mark.parametrize("method,kwargs", GRID,
                             ids=[f"{m}-{k}" for m, k in GRID])
    def test_matches_serial_golden(self, data, method, kwargs):
        schedule = build(method, **kwargs)
        serial_model, serial = run_serial(schedule, data)
        parallel_model, parallel = run_parallel(schedule, data)

        assert parallel.loss == serial.loss  # bit-identical, not approx
        serial_grads = serial_model.named_grads()
        for key, grad in parallel_model.named_grads().items():
            assert np.array_equal(grad, serial_grads[key]), key
        assert parallel.ops_executed == serial.ops_executed
        assert parallel.stage_peak_bytes == serial.stage_peak_bytes
        assert parallel.peak_live_contexts == serial.peak_live_contexts
        assert parallel.executor == "parallel"
        assert serial.executor == "serial"

    def test_comm_volume_matches_serial(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        _m, serial = run_serial(schedule, data)
        _m, parallel = run_parallel(schedule, data)
        assert parallel.comms.messages == serial.comms.messages
        assert parallel.comms.bytes_total == serial.comms.bytes_total

    def test_training_loop_matches_serial(self, data):
        """Gradient merge composes with Adam across iterations."""
        tokens, targets = data
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)

        losses = {}
        for cls in (PipelineRuntime, ParallelPipelineRuntime):
            model = build_model(SPEC, seed=11)
            runtime = cls(model, tokens, targets)
            optimizer = Adam(model, lr=3e-3)
            trail = []
            for _step in range(3):
                trail.append(runtime.run(schedule).loss)
                optimizer.step()
            losses[cls.__name__] = trail
        assert losses["ParallelPipelineRuntime"] == losses["PipelineRuntime"]


class TestMeasuredOverlap:
    def test_wgrad_overlap_is_nonzero(self, data):
        """On a split-backward schedule with >= 2 stages, deferred W ops
        measurably execute while channel receives are pending."""
        schedule = build("mepipe", p=2, num_slices=4, wgrad_gemms=3)
        _m, result = run_parallel(schedule, data)
        assert result.overlap_w_seconds > 0.0
        assert any(s.wait_seconds > 0.0 for s in result.stage_stats)
        # Overlapped W time is part of busy time, never double-counted.
        for s in result.stage_stats:
            assert s.overlap_w_seconds <= s.busy_seconds + 1e-9

    def test_wall_clock_and_bubble_are_measured(self, data):
        schedule = build("mepipe", p=2, num_slices=4, wgrad_gemms=3)
        _m, result = run_parallel(schedule, data)
        assert result.wall_seconds > 0.0
        assert 0.0 <= result.bubble_ratio < 1.0
        for s in result.stage_stats:
            assert 0.0 < s.busy_seconds <= result.wall_seconds
        # Per-stage records stay within the iteration window, in order.
        for stage in range(2):
            records = result.stage_records(stage)
            starts = [r.start for r in records]
            assert starts == sorted(starts)
            assert all(r.end <= result.wall_seconds + 1e-6 for r in records)


class TestFailureHandling:
    def test_worker_exception_surfaces_with_traceback(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        tokens, targets = data
        model = build_model(SPEC, seed=11)
        runtime = ParallelPipelineRuntime(model, tokens, targets, timeout=20.0)
        with pytest.raises(ScheduleError, match="injected fault"):
            runtime.run(schedule, fault=FaultSpec(stage=1, op_index=0))
        assert not any(
            p.name.startswith("repro-stage") for p in mp.active_children()
        )
        assert shm_leftovers() == []

    def test_killed_worker_surfaces_without_hang(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        tokens, targets = data
        model = build_model(SPEC, seed=11)
        runtime = ParallelPipelineRuntime(model, tokens, targets, timeout=20.0)
        with pytest.raises(ScheduleError, match="died without reporting"):
            runtime.run(
                schedule, fault=FaultSpec(stage=1, op_index=2, mode="exit")
            )
        assert not any(
            p.name.startswith("repro-stage") for p in mp.active_children()
        )
        assert shm_leftovers() == []

    def test_shape_mismatch_raises_before_spawn(self, data):
        tokens, targets = data
        problem = build_problem("dapple", 4, N + 1)
        schedule = build_schedule("dapple", problem)
        runtime = ParallelPipelineRuntime(
            build_model(SPEC, seed=11), tokens, targets)
        with pytest.raises(ScheduleError, match="micro-batches"):
            runtime.run(schedule)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Runs in a fresh interpreter: launches one process through the
#: runtime's worker context and reports the BLAS variables it sees.
BLAS_PROBE = f"""
import json, os
from repro.pipeline.parallel_runtime import _worker_context
before = dict(os.environ)
with _worker_context().Pool(1) as pool:
    seen = pool.map(os.getenv, {BLAS_VARS!r})
print(json.dumps({{"seen": seen, "unchanged": dict(os.environ) == before}}))
"""


def probe_worker_blas(preset):
    import repro

    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


class TestWorkerStart:
    """Workers fork from a warm server, one BLAS thread per stage."""

    def test_clean_run_after_each_fault_mode(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        serial_model, serial = run_serial(schedule, data)
        serial_grads = serial_model.named_grads()
        for mode, match in (("exit", "died without reporting"),
                            ("raise", "injected fault")):
            with pytest.raises(ScheduleError, match=match):
                run_parallel(schedule, data, timeout=20.0,
                             fault=FaultSpec(stage=1, op_index=2, mode=mode))
            model, parallel = run_parallel(schedule, data)
            assert parallel.loss == serial.loss
            for key, grad in model.named_grads().items():
                assert np.array_equal(grad, serial_grads[key]), key
            assert not any(
                p.name.startswith("repro-stage") for p in mp.active_children()
            )
            assert shm_leftovers() == []

    @pytest.mark.skipif("forkserver" not in mp.get_all_start_methods(),
                        reason="workers only pin BLAS through a forkserver")
    @pytest.mark.parametrize("preset,expected", [
        ({}, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
    ], ids=["default", "caller-set"])
    def test_workers_see_one_blas_thread(self, preset, expected):
        report = probe_worker_blas(preset)
        assert report["seen"] == expected
        assert report["unchanged"]

    def test_run_leaves_caller_environment_unchanged(self, data):
        before = dict(os.environ)
        run_parallel(build("mepipe", p=2, num_slices=2, wgrad_gemms=2), data)
        assert dict(os.environ) == before


class TestTelemetry:
    def test_records_one_track_per_worker(self, data):
        from repro.obs.sinks import MemorySink

        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        tokens, targets = data
        model = build_model(SPEC, seed=11)
        sink = MemorySink()
        result = ParallelPipelineRuntime(model, tokens, targets).run(
            schedule, sink)

        spans = [e for e in sink.events if e.kind == "span"]
        assert {e.tid for e in spans} == {0, 1}  # one tid per worker
        assert len(spans) == result.ops_executed
        names = {e.name for e in sink.events if e.kind == "meta"}
        assert "thread_name" in names
        # The parallel executor emits its overlap/wait counter series.
        assert sink.counters("overlap_w_seconds")
        assert sink.counters("wait_seconds")

    def test_worker_peak_rss_is_stamped(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        _m, parallel = run_parallel(schedule, data)
        _m, serial = run_serial(schedule, data)
        assert all(s.peak_rss_bytes > 0 for s in parallel.stage_stats)
        assert all(s.peak_rss_bytes == 0 for s in serial.stage_stats)

    def test_metrics_protocol_unchanged(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        _m, result = run_parallel(schedule, data)
        metrics = result.metrics()
        assert metrics.source == "runtime"
        assert metrics.time_unit == "seconds"
        assert metrics.ops_executed == result.ops_executed
        assert len(metrics.span_table) == result.ops_executed


class TestTraceCLI:
    def test_trace_renders_parallel_next_to_sim(self, tmp_path, capsys):
        """`repro trace --substrate parallel` lays the measured parallel
        iteration alongside the simulated one, same viewer schema."""
        import json

        from repro.cli import main

        out = tmp_path / "trace.json"
        status = main([
            "trace", "mepipe", "--p", "2", "--n", "2", "--s", "2",
            "--wgrad-gemms", "2", "--substrate", "parallel",
            "--out", str(out),
        ])
        assert status == 0
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {0, 2}  # simulated + parallel-executed
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"simulated", "parallel"}
        # One op-span row per stage inside the parallel process group.
        parallel_tids = {
            e["tid"] for e in events if e["pid"] == 2 and e["ph"] == "X"
        }
        assert parallel_tids == {0, 1}
