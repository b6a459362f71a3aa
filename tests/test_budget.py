"""One search budget per solve: ``solve_driver`` makes a single
``SearchBudget`` and every search it starts ticks that budget, so a solve
spends at most ``node_limit`` nodes plus the one tick past the pool that
stops each search."""

import pytest

from dtiling import (
    DriverParams,
    SearchBudget,
    construct_G0,
    construct_G1,
    planted_extremal,
    random_codegree_instance,
    solve_driver,
)
from dtiling import cli, exact, extremal

INSTANCES = {
    "G0(16)": lambda: construct_G0(16),
    "G1(16)": lambda: construct_G1(16),
    "random(16,4,7)": lambda: random_codegree_instance(16, 4, 7),
    "planted(32)": lambda: planted_extremal(32),
    "random(48,16,8)": lambda: random_codegree_instance(48, 16, 8),
}

# The budgeted searches as the driver and the extremal pipeline call them.
SEARCHES = [
    (cli, "decide_D_free_set"),
    (cli, "perfect_tiling_exact"),
    (extremal, "max_tiling_exact"),
    (extremal, "four_partite_perfect_matching"),
]


@pytest.fixture
def recorded(monkeypatch):
    """The budgets a solve makes, and the (budget, nodes) of each search
    it starts."""
    budgets, searches = [], []

    def make(*args, **kwargs):
        budgets.append(SearchBudget(*args, **kwargs))
        return budgets[-1]

    monkeypatch.setattr(cli, "SearchBudget", make)
    for module, name in SEARCHES:

        def counted(*args, _search=getattr(module, name), **kwargs):
            budget = next(a for a in (*args, *kwargs.values()) if isinstance(a, SearchBudget))
            res = _search(*args, **kwargs)
            searches.append((budget, res.nodes))
            return res

        monkeypatch.setattr(module, name, counted)
    return budgets, searches


@pytest.mark.parametrize("node_limit", [1, 10, 100])
@pytest.mark.parametrize("mode", ["auto", "extremal", "absorb", "exact"])
@pytest.mark.parametrize("make", INSTANCES.values(), ids=INSTANCES.keys())
def test_one_budget_per_solve(recorded, make, mode, node_limit):
    budgets, searches = recorded
    solve_driver(make(), DriverParams(mode=mode, node_limit=node_limit, collect_timings=False))
    assert len(budgets) == 1
    (budget,) = budgets
    assert all(b is budget for b, _ in searches)
    assert budget.nodes == sum(nodes for _, nodes in searches)
    assert budget.nodes <= node_limit + len(searches)


def test_the_fallback_gets_what_the_certificate_left(recorded):
    # Auto mode's one certificate question spends the 1-node budget, so
    # the fallback stops at its first node instead of tiling.
    budgets, searches = recorded
    res = solve_driver(random_codegree_instance(16, 4, 7), DriverParams(node_limit=1))
    assert res.status == "exhausted" and res.report["branch"] == "exact-fallback"
    assert [nodes for _, nodes in searches] == [1, 1]
    assert budgets[0].nodes == 2
    # A forced extremal solve asks two questions, which spend 101 nodes of
    # a 100-node budget, so stage Q stops at its first node.
    searches.clear()
    res = solve_driver(random_codegree_instance(16, 4, 7), DriverParams(mode="extremal", node_limit=100))
    assert res.status == "exhausted" and res.report["branch"] == "extremal"
    assert [nodes for _, nodes in searches] == [1, 100, 1]
    assert budgets[1].nodes == 102
    assert solve_driver(random_codegree_instance(16, 4, 7)).status == "tiled"


def test_a_spent_budget_builds_no_fallback_catalog(monkeypatch):
    # The deadline has passed before the first search: stage T fails on
    # the spent budget, and the fallback stops at its root node without
    # listing the 440k quads of the graph.
    def refuse(*args, **kwargs):
        raise AssertionError("built a quad catalog on a spent budget")

    monkeypatch.setattr(exact, "quad_catalog", refuse)
    res = solve_driver(planted_extremal(64), DriverParams(time_limit=1e-6, collect_timings=False))
    assert res.status == "exhausted" and res.report["branch"] == "exact-fallback"
    assert res.report["exact"] == {"status": "exhausted", "nodes": 1, "optimal": False}
