"""The non-extremal branch of the driver: absorbing family, local search on
the rest of G and absorption.  When absorption fails, auto mode falls
back to the exact search on all of G and forced absorb mode stalls."""

import json
import sys

import pytest

import dtiling
from dtiling import (
    AbsorptionFailure,
    DriverParams,
    format_certificate,
    random_codegree_instance,
    solve_driver,
    validate_tiling,
)
from dtiling import cli


def expected_report(n, edges, codegree, dfree_size, p, leftover):
    """The full driver report of an auto-mode solve that ends in the
    non-extremal branch with one absorbing member."""
    return {
        "attempts": [{"branch": "non-extremal", "outcome": "tiled"}],
        "branch": "non-extremal",
        "dfree": {
            "extremal": False,
            "size": dfree_size,
            "threshold": 27.0 if n == 48 else 36.0,
        },
        "family": {"covered": 8, "members": 1, "p": p},
        "instance": {"edges": edges, "min_codegree": codegree, "n": n},
        "local_search": {"leftover": leftover},
        "params": {
            "alpha": 0.3,
            "eps": 0.25,
            "mode": "auto",
            "seed": 0,
        },
        "verdict": "tiled",
    }


P48, P64 = 2.385060022182012e-09, 2.711150398210788e-10

GOLDEN = [
    (
        (48, 16, 0),
        expected_report(48, 9028, 16, 5, P48, 0),
        "perfect 12\n"
        "0 1 2 5 | 0 1 5 | 0 2 5\n"
        "3 7 8 10 | 3 7 8 | 3 7 10\n"
        "4 6 9 38 | 4 6 9 | 4 6 38\n"
        "11 12 13 14 | 11 12 13 | 11 13 14\n"
        "15 17 18 22 | 15 17 22 | 15 18 22\n"
        "16 19 34 45 | 16 19 34 | 16 19 45\n"
        "20 21 23 24 | 20 21 23 | 20 23 24\n"
        "25 26 27 28 | 25 26 28 | 25 27 28\n"
        "29 30 31 32 | 29 30 31 | 29 31 32\n"
        "33 35 36 42 | 33 35 42 | 33 36 42\n"
        "37 39 40 41 | 37 39 41 | 39 40 41\n"
        "43 44 46 47 | 43 44 46 | 43 44 47\n",
    ),
    (
        (48, 16, 3),
        expected_report(48, 9031, 16, 6, P48, 0),
        "perfect 12\n"
        "0 1 2 3 | 0 1 2 | 0 2 3\n"
        "4 6 9 16 | 4 6 9 | 4 6 16\n"
        "5 7 8 10 | 5 7 8 | 5 7 10\n"
        "11 12 13 14 | 11 12 13 | 11 12 14\n"
        "15 17 18 20 | 15 17 18 | 15 17 20\n"
        "19 34 38 45 | 19 34 45 | 19 38 45\n"
        "21 22 23 24 | 21 23 24 | 22 23 24\n"
        "25 26 27 28 | 25 27 28 | 26 27 28\n"
        "29 30 31 33 | 29 30 33 | 29 31 33\n"
        "32 35 36 40 | 32 35 40 | 32 36 40\n"
        "37 39 41 42 | 37 39 41 | 37 41 42\n"
        "43 44 46 47 | 43 44 46 | 44 46 47\n",
    ),
    (
        # The local search leaves one 4-set, which the member absorbs.
        (48, 16, 8),
        expected_report(48, 9147, 16, 5, P48, 4),
        "perfect 12\n"
        "0 1 2 3 | 0 1 2 | 0 2 3\n"
        "4 6 9 16 | 4 6 9 | 4 6 16\n"
        "5 7 8 11 | 5 7 11 | 5 8 11\n"
        "10 12 13 18 | 10 12 18 | 10 13 18\n"
        "14 15 17 20 | 14 15 20 | 15 17 20\n"
        "19 34 43 44 | 19 34 43 | 19 43 44\n"
        "21 22 23 24 | 21 22 23 | 21 23 24\n"
        "25 26 27 29 | 25 26 27 | 25 26 29\n"
        "28 30 31 32 | 28 30 31 | 28 31 32\n"
        "33 35 36 37 | 33 35 36 | 33 36 37\n"
        "38 45 46 47 | 38 45 46 | 38 46 47\n"
        "39 40 41 42 | 39 40 42 | 39 41 42\n",
    ),
    (
        (64, 22, 0),
        expected_report(64, 20205, 22, 6, P64, 0),
        "perfect 16\n"
        "0 1 2 9 | 0 1 9 | 1 2 9\n"
        "3 4 5 7 | 3 4 5 | 3 5 7\n"
        "6 8 10 15 | 6 8 15 | 8 10 15\n"
        "11 12 13 17 | 11 12 17 | 12 13 17\n"
        "14 18 19 21 | 14 18 21 | 18 19 21\n"
        "16 26 28 33 | 16 26 28 | 16 26 33\n"
        "20 22 23 25 | 20 22 23 | 20 23 25\n"
        "24 27 29 31 | 24 27 29 | 24 27 31\n"
        "30 35 55 61 | 30 35 55 | 30 35 61\n"
        "32 34 36 37 | 32 34 36 | 32 34 37\n"
        "38 39 40 41 | 38 39 40 | 38 40 41\n"
        "42 43 44 45 | 42 43 44 | 42 43 45\n"
        "46 47 48 50 | 46 47 48 | 46 47 50\n"
        "49 51 52 53 | 49 51 53 | 51 52 53\n"
        "54 56 57 59 | 54 56 59 | 54 57 59\n"
        "58 60 62 63 | 58 60 62 | 58 62 63\n",
    ),
]


@pytest.mark.parametrize("args, report, cert", GOLDEN, ids=["48-0", "48-3", "48-8", "64-0"])
def test_golden(args, report, cert):
    # Pinned full report and certificate bytes of the non-extremal branch:
    # family RNG stream, greedy tiling of the rest, leftover, absorption.
    result = solve_driver(random_codegree_instance(*args), DriverParams())
    del result.report["timings_ms"]  # wall clock, not pinned
    assert json.dumps(result.report, sort_keys=True) == json.dumps(report, sort_keys=True)
    assert format_certificate(result.tiling, "perfect") == cert


def refuse_everywhere(monkeypatch, source, names, message):
    """Make the functions ``names`` of module ``source`` raise wherever
    the package holds them."""
    originals = {name: getattr(source, name) for name in names}

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    for modname, module in list(sys.modules.items()):
        if modname == "dtiling" or modname.startswith("dtiling."):
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def no_relabel(monkeypatch):
    """The solve works on vertex masks of G: it never copies or relabels
    a subgraph."""
    refuse_everywhere(
        monkeypatch,
        dtiling.core,
        ("induced_subgraph", "map_copy"),
        "the solve copied or relabelled a subgraph",
    )


@pytest.mark.parametrize("workload", ["threshold", "dense", "planted"])
def test_solve_never_estimates_sigma(monkeypatch, benchmark_workloads, benchmark_instances, workload):
    # The sampling rate does not depend on the absorber density, so no
    # solve estimates it, whatever branch it ends in.
    refuse_everywhere(
        monkeypatch,
        dtiling.absorb,
        ("estimate_absorber_density",),
        "the solve estimated the absorber density",
    )
    for inst in benchmark_instances(workload, 0):
        G = dtiling.parse_instance(inst.text)
        result = solve_driver(G, DriverParams())
        if inst.expect == benchmark_workloads.DECIDED:
            assert result.status in ("tiled", "infeasible"), inst.id
        else:
            assert result.status == inst.expect, inst.id
        if result.tiling is not None:
            assert validate_tiling(G, result.tiling, require_perfect=True).ok, inst.id


@pytest.mark.parametrize("args", [(48, 16, 0), (48, 16, 8), (64, 22, 0)])
def test_solve_builds_no_subgraph(no_relabel, args):
    G = random_codegree_instance(*args)
    result = solve_driver(G, DriverParams())
    assert result.report["branch"] == "non-extremal"
    assert validate_tiling(G, result.tiling, require_perfect=True).ok


@pytest.fixture
def absorption_fails(monkeypatch):
    def fail(G, family, W):
        raise AbsorptionFailure(tuple(W[:4]))

    monkeypatch.setattr(cli, "absorb_leftover", fail)


def test_failed_absorption_falls_back_to_one_whole_graph_search(monkeypatch, absorption_fails):
    calls = []
    search = cli.perfect_tiling_exact

    def spy(G, *args, **kwargs):
        calls.append(G)
        return search(G, *args, **kwargs)

    monkeypatch.setattr(cli, "perfect_tiling_exact", spy)
    G = random_codegree_instance(48, 16, 8)
    result = solve_driver(G, DriverParams())
    assert [a["outcome"] for a in result.report["attempts"]] == ["absorption_failure", "tiled"]
    assert result.report["branch"] == "exact-fallback"
    assert len(calls) == 1 and calls[0] is G
    assert result.status == "tiled"
    assert validate_tiling(G, result.tiling, require_perfect=True).ok


def test_forced_absorb_stalls_without_a_search(monkeypatch, absorption_fails):
    budgets = []

    class RecordedBudget(cli.SearchBudget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append(self)

    monkeypatch.setattr(cli, "SearchBudget", RecordedBudget)
    refuse_everywhere(
        monkeypatch,
        dtiling.exact,
        ("perfect_tiling_exact", "_decide"),
        "forced absorb mode ran an exact search",
    )
    G = random_codegree_instance(48, 16, 8)
    result = solve_driver(G, DriverParams(mode="absorb"))
    assert result.status == "exhausted" and result.tiling is None
    assert result.report["attempts"][-1]["outcome"] == "absorption_failure"
    assert "exact" not in result.report
    assert [b.nodes for b in budgets] == [0]


def test_traced_fallback_nodes_match_the_report(absorption_fails, benchmark_run):
    # The benchmark charges every perfect_tiling_exact span directly under
    # solve_driver to the fallback, so a solve must run no other one.
    run, tracer = benchmark_run
    G = random_codegree_instance(48, 16, 8)
    inst = run.workloads.Instance("random-48-16-8", dtiling.format_instance(G), run.workloads.TILED)
    with tracer.Tracer(dtiling) as trace:
        outcome = run.solve_one(dtiling, inst)
    assert outcome.problem is None
    assert run.fallback_mismatches(trace.take(), [outcome]) == []
    assert outcome.report["branch"] == "exact-fallback"
