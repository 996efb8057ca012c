"""Span tracing of qsearch layers from outside the package.

The tracer wraps the public functions listed in LAYER_FUNCTIONS and
rebinds every ``qsearch.*`` module attribute that holds the same function
object, so calls made inside the package are seen too. Spans stay in
memory until the caller writes them out. Standard library only, so the
CLI launcher can install it before ``import qsearch`` is timed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

# (module, function) pairs timed by the traced run; each yields
# <module>.<function>.calls and <module>.<function>.self_s
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("experiments", "run"),
    ("experiments", "sweep"),
    ("experiments", "fit_power_law"),
    ("model", "sample_disorder"),
    ("model", "build_search_hamiltonian"),
    ("spectral", "eigendecompose"),
    ("spectral", "reduce_two_level"),
    ("spectral", "coupling_coefficients"),
    ("unitary", "evolve_closed"),
    ("bath", "rate_S"),
    ("bath", "correlation_finite_T"),
    ("bath", "validate_approximations"),
    ("special", "trigamma"),
    ("redfield", "assemble_redfield"),
    ("redfield", "integrate_master"),
    ("redfield", "steady_state"),
    ("redfield", "solution_population"),
    ("redfield", "secular_rates"),
    ("redfield", "extract_relaxation_time"),
)


class Tracer:
    """Records (id, name, start, end, parent, task) spans of wrapped calls.

    A span opened on a thread with no open span of its own (a sweep
    worker) takes the innermost open span of the installing thread as
    its parent, so the pool's work is a child of ``experiments.sweep``.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.absent: list = []
        self.task = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = threading.get_ident()
        self._rebound: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.task))

        return traced

    def install(self) -> None:
        """Wrap every listed function; a missing one is recorded as absent."""
        modules = [m for k, m in list(sys.modules.items()) if k == "qsearch" or k.startswith("qsearch.")]
        for module_name, func_name in LAYER_FUNCTIONS:
            name = f"{module_name}.{func_name}"
            try:
                original = getattr(importlib.import_module(f"qsearch.{module_name}"), func_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()


def _covered(intervals: list) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_totals(spans, totals: dict) -> dict:
    """Adds each span to totals[name] = [calls, self_s] and returns totals.

    Self time is a span minus the part of it that its children cover.
    """
    children: dict = {}
    for _, _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    for span_id, name, start, end, _, _ in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end]
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - _covered(clipped)
    return totals
