"""The non-extremal branch of the driver: absorbing family, local search on
the rest of G, absorption, and the exact search on the family plus the
leftover when absorption fails."""

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
    non-extremal branch with one absorbing member and no local-search move."""
    return {
        "attempts": [{"branch": "non-extremal", "outcome": "tiled"}],
        "branch": "non-extremal",
        "dfree": {
            "extremal": False,
            "method": "greedy",
            "nodes": 0,
            "outcome": "unknown",
            "size": dfree_size,
            "threshold": 27.0 if n == 48 else 36.0,
        },
        "family": {"covered": 8, "members": 1, "omega": 0.00234375, "p": p, "sigma": 1.0},
        "instance": {"edges": edges, "min_codegree": codegree, "n": n},
        "leftover": leftover,
        "local_search": {
            "leftover": leftover,
            "leftover_trajectory": [leftover],
            "moves": {"big_swap": 0, "grow": 0, "split": 0},
            "stopping_reason": "stalled" if leftover else "perfect",
            "target_leftover": 500.0,
            "target_vacuous": True,
        },
        "params": {
            "alpha": 0.3,
            "eps": 0.25,
            "gamma": 0.1,
            "mode": "auto",
            "paper_constants": False,
            "seed": 0,
        },
        "verdict": "tiled",
        "warnings": [],
    }


P48, P64 = 2.385060022182012e-09, 2.711150398210788e-10

GOLDEN = [
    (
        (48, 16, 0),
        expected_report(48, 9028, 16, 5, P48, 0),
        "perfect 12\n"
        "0 1 2 4 | 0 1 4 | 1 2 4\n"
        "3 5 6 7 | 3 5 6 | 5 6 7\n"
        "8 9 10 12 | 8 9 12 | 9 10 12\n"
        "11 13 14 16 | 11 13 14 | 11 13 16\n"
        "15 17 18 30 | 15 17 30 | 15 18 30\n"
        "19 20 21 23 | 19 20 21 | 19 21 23\n"
        "22 24 26 28 | 22 24 26 | 22 24 28\n"
        "25 27 31 33 | 25 27 31 | 25 31 33\n"
        "29 32 34 35 | 29 34 35 | 32 34 35\n"
        "36 37 38 39 | 36 37 38 | 36 37 39\n"
        "40 41 42 45 | 40 41 45 | 40 42 45\n"
        "43 44 46 47 | 43 44 46 | 43 44 47\n",
    ),
    (
        (48, 16, 3),
        expected_report(48, 9031, 16, 6, P48, 0),
        "perfect 12\n"
        "0 1 2 3 | 0 1 2 | 0 2 3\n"
        "4 5 6 7 | 4 5 7 | 4 6 7\n"
        "8 9 10 11 | 8 9 10 | 8 9 11\n"
        "12 13 14 16 | 12 13 14 | 12 13 16\n"
        "15 17 30 31 | 15 17 30 | 15 30 31\n"
        "18 25 27 33 | 18 25 27 | 25 27 33\n"
        "19 20 21 22 | 19 20 21 | 19 20 22\n"
        "23 24 26 28 | 23 24 26 | 23 24 28\n"
        "29 32 34 35 | 29 32 35 | 29 34 35\n"
        "36 37 38 40 | 36 37 40 | 36 38 40\n"
        "39 41 42 47 | 39 41 47 | 39 42 47\n"
        "43 44 45 46 | 43 44 46 | 43 45 46\n",
    ),
    (
        # The local search leaves one 4-set, which the member absorbs.
        (48, 16, 8),
        expected_report(48, 9147, 16, 5, P48, 4),
        "perfect 12\n"
        "0 1 2 3 | 0 1 2 | 0 2 3\n"
        "4 5 6 7 | 4 5 7 | 4 6 7\n"
        "8 9 10 11 | 8 9 10 | 8 9 11\n"
        "12 13 14 16 | 12 13 14 | 12 14 16\n"
        "15 17 18 33 | 15 17 18 | 15 17 33\n"
        "19 20 21 22 | 19 21 22 | 20 21 22\n"
        "23 24 26 28 | 23 24 26 | 23 26 28\n"
        "25 30 31 46 | 25 30 31 | 25 30 46\n"
        "27 44 45 47 | 27 44 45 | 27 44 47\n"
        "29 32 34 35 | 29 32 35 | 29 34 35\n"
        "36 37 38 42 | 36 38 42 | 37 38 42\n"
        "39 40 41 43 | 39 41 43 | 40 41 43\n",
    ),
    (
        (64, 22, 0),
        expected_report(64, 20205, 22, 6, P64, 0),
        "perfect 16\n"
        "0 1 2 9 | 0 1 9 | 1 2 9\n"
        "3 4 5 7 | 3 4 5 | 3 5 7\n"
        "6 8 12 15 | 6 8 15 | 8 12 15\n"
        "10 11 14 16 | 10 11 14 | 11 14 16\n"
        "13 17 18 19 | 13 17 18 | 13 17 19\n"
        "20 21 22 25 | 20 21 25 | 21 22 25\n"
        "23 30 34 50 | 23 30 50 | 23 34 50\n"
        "24 26 27 28 | 24 26 27 | 24 26 28\n"
        "29 31 32 33 | 29 31 33 | 31 32 33\n"
        "35 36 37 38 | 35 36 38 | 36 37 38\n"
        "39 40 41 42 | 39 40 41 | 39 40 42\n"
        "43 44 45 55 | 43 45 55 | 44 45 55\n"
        "46 47 48 52 | 46 47 48 | 46 47 52\n"
        "49 51 53 54 | 49 51 53 | 51 53 54\n"
        "56 57 58 59 | 56 57 59 | 56 58 59\n"
        "60 61 62 63 | 60 61 62 | 60 61 63\n",
    ),
]


@pytest.mark.parametrize("args, report, cert", GOLDEN, ids=["48-0", "48-3", "48-8", "64-0"])
def test_golden(args, report, cert):
    # Pinned full report and certificate bytes of the non-extremal branch:
    # family RNG stream, greedy tiling of the rest, leftover, absorption.
    result = solve_driver(random_codegree_instance(*args), DriverParams(collect_timings=False))
    assert json.dumps(result.report, sort_keys=True) == json.dumps(report, sort_keys=True)
    assert format_certificate(result.tiling, "perfect") == cert


@pytest.fixture
def no_relabel(monkeypatch):
    """Make ``induced_subgraph`` and ``map_copy`` raise wherever the
    package holds them: the solve works on vertex masks of G."""
    originals = {name: getattr(dtiling.core, name) for name in ("induced_subgraph", "map_copy")}

    def refuse(*args, **kwargs):
        raise AssertionError("the solve copied or relabelled a subgraph")

    for modname, module in list(sys.modules.items()):
        if modname == "dtiling" or modname.startswith("dtiling."):
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("args", [(48, 16, 0), (48, 16, 8), (64, 22, 0)])
def test_solve_builds_no_subgraph(no_relabel, args):
    G = random_codegree_instance(*args)
    result = solve_driver(G, DriverParams(collect_timings=False))
    assert result.report["branch"] == "non-extremal"
    assert validate_tiling(G, result.tiling, require_perfect=True).ok


@pytest.fixture
def absorption_fails(monkeypatch):
    def fail(G, family, W):
        raise AbsorptionFailure(tuple(W[:4]))

    monkeypatch.setattr(cli, "absorb_leftover", fail)


def leftover_exact_record(report) -> dict:
    assert [a["outcome"] for a in report["attempts"]][:1] == ["absorption_failure"]
    return report["attempts"][1]


def test_leftover_exact_tiles_the_region(no_relabel, absorption_fails):
    # 8 family vertices plus a leftover 4-set: a 12-vertex exact search.
    G = random_codegree_instance(48, 16, 8)
    result = solve_driver(G, DriverParams(collect_timings=False))
    record = leftover_exact_record(result.report)
    assert record["outcome"] == "tiled_by_leftover_exact"
    assert (record["region"], record["status"]) == (12, "found")
    assert record["nodes"] >= 1
    assert result.status == "tiled" and result.report["branch"] == "non-extremal"
    assert validate_tiling(G, result.tiling, require_perfect=True).ok


def test_leftover_exact_budget_stop_is_not_a_refutation(absorption_fails):
    G = random_codegree_instance(48, 16, 8)
    result = solve_driver(G, DriverParams(mode="absorb", node_limit=1, collect_timings=False))
    record = leftover_exact_record(result.report)
    assert record["outcome"] == "leftover_exact_failed"
    assert (record["region"], record["status"], record["nodes"]) == (12, "exhausted", 2)
    assert result.status == "exhausted"


def test_leftover_exact_skips_a_region_above_the_cap(monkeypatch, absorption_fails):
    monkeypatch.setattr(cli, "LEFTOVER_EXACT_CAP", 8)

    def refuse(*args, **kwargs):
        raise AssertionError("searched a region above the cap")

    monkeypatch.setattr(cli, "perfect_tiling_exact", refuse)
    G = random_codegree_instance(48, 16, 8)
    result = solve_driver(G, DriverParams(mode="absorb", collect_timings=False))
    record = leftover_exact_record(result.report)
    assert record == {
        "branch": "non-extremal",
        "outcome": "leftover_exact_failed",
        "region": 12,
        "status": "skipped",
        "nodes": 0,
    }
    assert result.status == "exhausted"
