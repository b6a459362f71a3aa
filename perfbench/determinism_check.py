"""Determinism and tracer checks for the solve benchmark.

The file name keeps it out of the repository's default test run (a traced
pass over every workload takes about a minute and a half).  Run it from
the repository root:

    python3 -m pytest -q perfbench/determinism_check.py
"""

from __future__ import annotations

import functools

import pytest

import run
import workloads
from tracer import TRACED, Span, Tracer, layer_table

dt = run.load_package()


@functools.lru_cache(maxsize=None)
def traced_pass(workload: str, seed: int, repeat: int = 0) -> dict:
    """One traced pass over a workload; ``repeat`` only separates cache
    entries so that two passes at one seed really run twice."""
    instances = workloads.generate(dt, workload, seed)
    with Tracer(dt) as tracer:
        outcomes = [run.solve_one(dt, inst) for inst in instances]
        spans = tracer.take()
    table = {**layer_table(spans), **run.report_counts(outcomes)}
    log = run.RunLog(instances, [outcomes], [])
    return {
        "counts": {k: v for k, v in table.items() if not k.endswith("ms")},
        "digest": log.digest(),
        "branch_mix": log.branch_mix(),
        "problems": [(o.id, o.problem) for o in outcomes if o.problem],
        "mismatches": run.fallback_mismatches(spans, outcomes),
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_counts_and_digests(workload):
    a = traced_pass(workload, 0, 0)
    b = traced_pass(workload, 0, 1)
    assert a["problems"] == [] and a["mismatches"] == []
    assert a["counts"] == b["counts"]
    assert a["branch_mix"] == b["branch_mix"]
    assert a["digest"] == b["digest"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_changes_digest_but_not_branch_mix(workload):
    a = traced_pass(workload, 0, 0)
    c = traced_pass(workload, 1, 0)
    assert c["problems"] == [] and c["mismatches"] == []
    assert c["digest"] != a["digest"]
    assert c["branch_mix"] == a["branch_mix"]


def test_tracer_skips_missing_function_and_restores_originals():
    targets = TRACED + (("exact", "no_such_kernel"),)
    original = dt.exact.perfect_tiling_exact
    instances = workloads.generate(dt, "planted", 0)[:2]
    with Tracer(dt, targets) as tracer:
        assert dt.cli.perfect_tiling_exact is not original
        outcomes = [run.solve_one(dt, inst) for inst in instances]
    assert tracer.absent == ["exact.no_such_kernel"]
    assert [o.problem for o in outcomes] == [None, None]
    assert dt.cli.perfect_tiling_exact is original
    assert dt.exact.perfect_tiling_exact is original
    table = layer_table(tracer.spans, targets)
    assert table["exact.no_such_kernel.calls"] == 0
    assert table["cli.solve_driver.calls"] == 2


def test_self_time_subtracts_direct_children_only():
    spans = []
    for name, parent, start, end in (
        ("cli.solve_driver", -1, 0.000, 0.010),
        ("exact.perfect_tiling_exact", 0, 0.001, 0.004),
        ("exact.quad_catalog", 1, 0.001, 0.002),
    ):
        s = Span(name, parent, start)
        s.end = end
        spans.append(s)
    table = layer_table(spans)
    assert table["cli.solve_driver.self_ms"] == pytest.approx(7.0)
    assert table["exact.perfect_tiling_exact.self_ms"] == pytest.approx(2.0)
    assert table["exact.perfect_tiling_exact.ms"] == pytest.approx(3.0)
    assert table["exact.quad_catalog.calls"] == 1
