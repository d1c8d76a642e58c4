"""Bench: serial vs multi-process pipeline executor on one E0 iteration.

Times one MEPipe split-backward iteration (p=2, s=4, deferred W groups)
on both executors.  The parallel timing is the first run of the
process, worker start-up and channel setup included — the honest
end-to-end cost — and the run must exhibit measured comm/wgrad overlap
while staying bit-identical to serial.  ``extra_info`` records the
start-up share (``run()`` wall minus ``wall_seconds``) of that cold run
and of a second, warm one.
"""

import time

from repro.data import token_batches
from repro.model import tiny_spec
from repro.nn import build_model
from repro.pipeline import ParallelPipelineRuntime, PipelineRuntime
from repro.schedules import build_problem, build_schedule

SPEC = tiny_spec(hidden_size=32, num_layers=6, num_heads=4,
                 ffn_hidden_size=64, vocab_size=31, seq_length=16)
N, B = 4, 2


def _setup():
    problem = build_problem("mepipe", 2, N, num_slices=4, wgrad_gemms=3)
    schedule = build_schedule("mepipe", problem)
    tokens, targets = token_batches(SPEC.vocab_size, N, B, SPEC.seq_length,
                                    seed=5)
    return schedule, tokens, targets


def test_bench_runtime_serial(once):
    schedule, tokens, targets = _setup()

    def run():
        model = build_model(SPEC, seed=11)
        return PipelineRuntime(model, tokens, targets).run(schedule)

    result = once(run)
    assert result.executor == "serial"
    assert result.ops_executed == schedule.op_count()


def test_bench_runtime_parallel(once, benchmark):
    schedule, tokens, targets = _setup()

    serial_model = build_model(SPEC, seed=11)
    serial = PipelineRuntime(serial_model, tokens, targets).run(schedule)

    def run():
        model = build_model(SPEC, seed=11)
        runtime = ParallelPipelineRuntime(model, tokens, targets)
        t0 = time.perf_counter()
        result = runtime.run(schedule)
        return result, time.perf_counter() - t0 - result.wall_seconds

    result, cold_spawn_s = once(run)
    warm, warm_spawn_s = run()
    benchmark.extra_info["spawn_s_cold"] = cold_spawn_s
    benchmark.extra_info["spawn_s_warm"] = warm_spawn_s
    assert result.executor == "parallel"
    assert result.loss == serial.loss
    assert warm.loss == serial.loss
    # The point of the exercise: deferred W GEMMs measurably execute
    # while channel receives are pending.
    assert result.overlap_w_seconds > 0.0
    print(f"\nparallel wall {result.wall_seconds * 1e3:.1f} ms, "
          f"overlap_w {result.overlap_w_seconds * 1e3:.2f} ms, "
          f"bubble {result.bubble_ratio:.3f}, "
          f"spawn cold {cold_spawn_s * 1e3:.1f} ms / warm {warm_spawn_s * 1e3:.1f} ms")
