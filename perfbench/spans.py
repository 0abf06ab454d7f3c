"""Spans recorded from outside the program, around calls into its layers.

:class:`SpanTracer` replaces a public method (on an instance, or on a
class so that objects built later are covered too) with a wrapper that
times the call. Spans nest: a span's *self* time is its duration minus
the durations of the wrapped spans that ran inside it, so the self times
of every wrapped layer add up exactly to the time of the outermost
spans. Nothing is written while the benchmark runs; totals stay in
memory and are read at the end of a pass.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable


class SpanTracer:
    """Per-name self time, call count and optional unit count of wrapped calls."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, int] = defaultdict(int)
        #: summed duration of the outermost spans (no wrapped caller)
        self.root_s = 0.0
        # one accumulator of child-span time per open span
        self._open: list[float] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        units: Callable[..., int] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``units`` receives the call's arguments and returns a work count
        (rows predicted, windows fitted) that accumulates in
        :attr:`units`.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if units is not None:
                tracer.units[name] += units(*args, **kwargs)
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.self_s[name] += elapsed - tracer._open.pop()
                tracer.calls[name] += 1
                if tracer._open:
                    tracer._open[-1] += elapsed
                else:
                    tracer.root_s += elapsed

        setattr(owner, attr, timed)
