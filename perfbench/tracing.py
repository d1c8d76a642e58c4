"""Layer timing from outside the program.

Each layer is a public function of the program.  :class:`Tracer`
replaces the function in the module namespaces its callers look it up
in, and records one span per call: layer, start, end and the span that
was open when it started (its parent).  A layer's self time is its
spans' duration minus the part their child spans cover, so the self
times of all layers plus the untraced remainder add up to the wall time
of the work that contains them.

Spans stay in memory; the caller writes them out when the work ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Layers of the planner, each with the ``(module, name)`` lookup sites
#: where its callers find it.  ``None`` as the module means every
#: ``repro`` module that bound the function at import time.
PLANNER_SITES: list[tuple[str, str | None, str]] = [
    ("bounds", "repro.planner.search", "config_bounds_batch"),
    ("generate", "repro.planner.evaluate", "build_schedule"),
    # The API handlers import it at call time from the package.
    ("generate", "repro.schedules", "build_schedule"),
    ("compile", None, "compiled_graph"),
    ("verify", "repro.planner.evaluate", "assert_clean"),
    # Imported at call time by the planner, the handlers and the runtime.
    ("capacity", "repro.analysis.capacity", "infer_capacities"),
    ("analytic", "repro.planner.evaluate", "evaluate_schedule"),
    ("analytic", "repro.analysis.evaluate", "evaluate_schedule"),
    ("analytic_batch", "repro.planner.evaluate", "evaluate_schedule_batch"),
    ("confirm", "repro.planner.evaluate", "simulate"),
]

#: The layers above, in report order.
PLANNER_LAYERS = [
    "bounds", "generate", "compile", "verify", "capacity",
    "analytic", "analytic_batch", "confirm",
]

#: Modules imported before wrapping, so every import-time binding of a
#: wrapped function exists when the sites are patched.
PRELOAD = [
    "repro.api",
    "repro.planner",
    "repro.planner.search",
    "repro.planner.evaluate",
    "repro.analysis.capacity",
    "repro.analysis.evaluate",
    "repro.analysis.evaluate.batch",
    "repro.sim.crossval",
    "repro.schedules",
]


class Tracer:
    """Thread-safe span recorder over wrapped functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Durations of each call, by layer and tag (see :meth:`wrap`).
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: ``(layer, start, end, parent span index or -1)``.
        self.spans: list[tuple[str, float, float, int]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        tag: Callable[..., str] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a ``layer`` span per call.  With ``tag``, each
        call's duration is also kept under ``tag(*args)``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            # [start, time covered by child spans, span index]
            with self._lock:
                index = len(self.spans)
                parent = stack[-1][2] if stack else -1
                self.spans.append((layer, 0.0, 0.0, parent))
            frame = [time.perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                with self._lock:
                    self.spans[index] = (layer, frame[0], end, parent)
                    self.self_s[layer] += duration - frame[1]
                    self.calls[layer] += 1
                    if tag is not None:
                        self.durations[tag(*args)].append(duration)

        wrapper.__traced__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self, sites: list[tuple[str, str | None, str]]) -> None:
        """Replace each site's function with a recording wrapper."""
        for name in PRELOAD:
            importlib.import_module(name)
        for layer, module_name, attr in sites:
            if module_name is not None:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(layer, original))
                continue
            modules = [
                m for n, m in sorted(sys.modules.items())
                if n.startswith("repro") and m is not None and hasattr(m, attr)
            ]
            originals = {id(getattr(m, attr)): getattr(m, attr) for m in modules}
            wrappers = {key: self.wrap(layer, fn) for key, fn in originals.items()}
            for module in modules:
                setattr(module, attr, wrappers[id(getattr(module, attr))])

    def table(self) -> dict[str, Any]:
        """Self time and calls per layer, plus tagged durations."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "durations": {k: list(v) for k, v in self.durations.items()},
            }

    def dump_spans(self) -> list[list[Any]]:
        with self._lock:
            return [list(span) for span in self.spans]
