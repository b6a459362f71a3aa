"""Span tracing of the package from outside, by wrapping its functions.

``Tracer`` replaces every attribute of every loaded ``dtiling`` module
that *is* one of the traced function objects, so both ``from .exact
import perfect_tiling_exact`` call sites and module-global calls such as
``exact.quad_catalog`` inside ``exact`` itself go through the wrapper.
Leaving the ``with`` block puts the original objects back; a tracer can
be entered again, and its spans accumulate until ``take``.  A traced
function that the package no longer has is recorded as absent and
skipped, so the benchmark keeps running when a layer is deleted.

Each call becomes a ``Span`` (name, start, end, parent index) kept in
memory; ``layer_table`` turns a list of spans into per-function calls,
inclusive milliseconds and self milliseconds (a span's time minus the
time of its direct children), plus the counts read off returned results.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs, named "<module>.<function>" in the metrics.
TRACED = (
    ("cli", "solve_driver"),
    ("io", "parse_instance"),
    ("io", "format_certificate"),
    ("io", "parse_certificate"),
    ("core", "build"),
    ("core", "induced_subgraph"),
    ("core", "validate_tiling"),
    ("core", "min_codegree"),
    ("exact", "quad_catalog"),
    ("exact", "perfect_tiling_exact"),
    ("exact", "max_D_free_set"),
    ("exact", "four_partite"),
    ("exact", "four_partite_perfect_matching"),
    ("exact", "four_partite_degree_stats"),
    ("extremal", "run_extremal_pipeline"),
    ("extremal", "partition_XYZ"),
    ("extremal", "build_Q"),
    ("extremal", "build_T"),
    ("extremal", "greedy_D_free_set"),
    ("extremal", "extend_to_maximal_D_free"),
    ("localsearch", "near_perfect_tiling"),
    ("absorb", "build_absorbing_family"),
    ("absorb", "estimate_absorber_density"),
    ("absorb", "absorbs"),
    ("absorb", "induced_perfect_tiling"),
    ("absorb", "absorb_leftover"),
)


def _search_info(res) -> dict:
    return {"nodes": res.nodes, "status": res.status}


def _family_info(family) -> dict:
    return {"retries": len(family.stats["attempts"]) - 1}


# Counts read off a traced function's return value.
_RESULT_INFO = {
    "exact.perfect_tiling_exact": _search_info,
    "exact.max_D_free_set": _search_info,
    "exact.four_partite_perfect_matching": _search_info,
    "absorb.induced_perfect_tiling": lambda tiling: {"found": tiling is not None},
    "absorb.build_absorbing_family": _family_info,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info: dict = {}


class Tracer:
    """Context manager that wraps the traced functions of ``package``."""

    def __init__(self, package, targets=TRACED):
        self.package = package.__name__
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.sites = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for module_name, fn_name in self.targets:
            name = f"{module_name}.{fn_name}"
            module = sys.modules.get(f"{self.package}.{module_name}")
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, fn))
        self.sites = len(self._patches)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info_of = _RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    span.info = _safe_info(info_of, result)
                return result
            except Exception as exc:
                span.info = {"error": type(exc).__name__}
                stats = getattr(exc, "stats", None)
                if isinstance(stats, dict) and isinstance(stats.get("attempts"), list):
                    span.info["retries"] = len(stats["attempts"])
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside a traced call")
        out = list(self.spans)
        self.spans.clear()
        return out


def _safe_info(info_of, result) -> dict:
    # A changed result type must not stop the run; its counts read as 0.
    try:
        return info_of(result)
    except (AttributeError, KeyError, TypeError):
        return {}


def layer_table(spans: list[Span], targets=TRACED) -> dict[str, float]:
    """Per-function metrics of one batch of spans.

    Every target gets ``.calls``, ``.ms`` and ``.self_ms`` (0 when never
    called or absent); search results add ``.nodes`` and ``.exhausted``,
    ``induced_perfect_tiling`` adds ``.found_ratio`` and the family
    builder adds ``absorb.family_retries``.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    table: dict[str, float] = {}
    for module_name, fn_name in targets:
        name = f"{module_name}.{fn_name}"
        table.update({f"{name}.calls": 0, f"{name}.ms": 0.0, f"{name}.self_ms": 0.0})
    for name, info_of in _RESULT_INFO.items():
        if info_of is _search_info:
            table.update({f"{name}.nodes": 0, f"{name}.exhausted": 0})
    found = 0
    table["absorb.family_retries"] = 0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        table[f"{s.name}.calls"] += 1
        table[f"{s.name}.ms"] += dur * 1000
        table[f"{s.name}.self_ms"] += (dur - child_time[i]) * 1000
        if "nodes" in s.info:
            table[f"{s.name}.nodes"] += s.info["nodes"]
            table[f"{s.name}.exhausted"] += s.info["status"] == "exhausted"
        found += bool(s.info.get("found"))
        table["absorb.family_retries"] += s.info.get("retries", 0)
    calls = table["absorb.induced_perfect_tiling.calls"]
    table["absorb.induced_perfect_tiling.found_ratio"] = found / calls if calls else 0.0
    return table
