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
    quad_catalog,
    random_codegree_instance,
    solve_driver,
)
from dtiling import cli, exact, extremal
from dtiling.core import dcopy_from_quad, spanning_quads_at

from test_barrier import sparse_instance

INSTANCES = {
    "G0(16)": lambda: construct_G0(16),
    "G1(16)": lambda: construct_G1(16),
    "random(16,4,7)": lambda: random_codegree_instance(16, 4, 7),
    "random(16,4,2)": lambda: random_codegree_instance(16, 4, 2),
    "planted(32)": lambda: planted_extremal(32),
    "random(48,16,8)": lambda: random_codegree_instance(48, 16, 8),
}

# The budgeted searches as the driver and the extremal pipeline call them.
SEARCHES = [
    (cli, "small_tiling_exact"),
    (cli, "perfect_tiling_exact"),
    (extremal, "_max_packing"),
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
    solve_driver(make(), DriverParams(mode=mode, node_limit=node_limit))
    assert len(budgets) == 1
    (budget,) = budgets
    assert all(b is budget for b, _ in searches)
    assert budget.nodes == sum(nodes for _, nodes in searches)
    assert budget.nodes <= node_limit + len(searches)


def test_the_fallback_gets_the_whole_budget(recorded):
    # Auto mode asks no question before the small-set search, so on a
    # 1-node budget it spends the node and the tick past it, and gives up;
    # no absorbing family fits, and the catalog search stops at its root.
    budgets, searches = recorded
    res = solve_driver(random_codegree_instance(16, 4, 2), DriverParams(node_limit=1))
    assert res.status == "exhausted" and res.report["branch"] == "exact-fallback"
    assert [nodes for _, nodes in searches] == [2, 1]
    assert budgets[0].nodes == 3
    assert res.report["small_search"] == {"status": "exhausted", "nodes": 2}
    # A forced extremal solve spends nothing before stage Q either.
    searches.clear()
    res = solve_driver(random_codegree_instance(16, 4, 7), DriverParams(mode="extremal", node_limit=100))
    assert res.status == "exhausted" and res.report["branch"] == "extremal"
    assert [nodes for _, nodes in searches] == [29]
    assert budgets[1].nodes == 29
    assert solve_driver(random_codegree_instance(16, 4, 2)).status == "tiled"


def test_a_small_search_that_gives_up_leaves_the_catalog_search(recorded):
    # A sparse graph below the extremal threshold whose greedy tiling
    # leaves vertices: the small-set search gives up at G.m = 64 memo
    # entries, no absorbing family fits, and the catalog search tiles in
    # 8 nodes on the same budget.
    budgets, searches = recorded
    G = sparse_instance(16, 64, 118639407)
    res = solve_driver(G)
    assert res.status == "tiled" and res.report["branch"] == "exact-fallback"
    assert res.report["dfree"]["extremal"] is False
    assert res.report["small_search"] == {"status": "exhausted", "nodes": 64}
    assert res.report["exact"] == {"status": "found", "nodes": 8, "optimal": True}
    assert [a["branch"] for a in res.report["attempts"]] == ["small-search", "non-extremal", "exact"]
    assert {"small_search", "exact"} <= set(res.report["timings_ms"])
    assert [nodes for _, nodes in searches] == [64, 8] and budgets[0].nodes == 72


def test_a_spent_budget_builds_no_fallback_catalog(monkeypatch):
    # The deadline has passed before the first search: stage T fails on
    # the spent budget, and the fallback stops at its root node without
    # listing the 440k quads of the graph.
    def refuse(*args, **kwargs):
        raise AssertionError("built a quad catalog on a spent budget")

    monkeypatch.setattr(exact, "quad_catalog", refuse)
    res = solve_driver(planted_extremal(64), DriverParams(time_limit=1e-6))
    assert res.status == "exhausted" and res.report["branch"] == "exact-fallback"
    assert res.report["exact"] == {"status": "exhausted", "nodes": 1, "optimal": False}


class SpentAfter(SearchBudget):
    """A budget whose ``spent`` reads False ``looks`` times, then True,
    whatever its nodes and clock: a deadline that passes at a chosen
    point of the solve."""

    def __init__(self, looks):
        super().__init__(time_limit=600.0)
        self.looks = looks

    @property
    def spent(self):
        self.looks -= 1
        return self.looks < 0


@pytest.fixture
def rows(monkeypatch):
    """The vertex rows the quad catalog lists, in order."""
    listed = []

    def counting(G, v, within):
        listed.append(v)
        return spanning_quads_at(G, v, within)

    monkeypatch.setattr(exact, "spanning_quads_at", counting)
    return listed


def test_the_catalog_stops_on_a_spent_budget(rows):
    # planted_extremal(64) has about 440k quads.  The budget is spent
    # after 3 vertex rows, so the catalog holds those rows' quads, is not
    # complete, and spent no node.
    G = planted_extremal(64)
    budget = SpentAfter(3)
    cat = quad_catalog(G, budget)
    assert rows == [0, 1, 2] and not cat.complete and budget.nodes == 0
    full = (1 << G.n) - 1
    assert cat.quads == tuple(q for v in range(3) for q in spanning_quads_at(G, v, full & -(2 << v)))


@pytest.mark.parametrize("search", ["max_D_free", "max_tiling"])
def test_searches_that_list_their_own_catalog_stop_on_a_spent_budget(monkeypatch, rows, search):
    # Spent after 3 rows of the 440k-quad catalog, each search answers
    # exhausted in its root node; the D-free search asks nothing.
    def refuse(*args, **kwargs):
        raise AssertionError("searched on a spent budget")

    monkeypatch.setattr(exact, "_packing_search", refuse)
    G = planted_extremal(64)
    budget = SpentAfter(3)
    if search == "max_tiling":
        res = exact.max_tiling_exact(G, budget)
    else:
        monkeypatch.setattr(exact, "_greedy_packing", refuse)
        res = exact.max_D_free_set(G, budget)
        assert res.vertices == ()
    assert (res.status, res.nodes, budget.nodes) == ("exhausted", 1, 1)
    assert rows == [0, 1, 2]
    if search == "max_tiling":
        # Its best effort is the greedy packing of the quads listed.
        cat = quad_catalog(G, SpentAfter(3))
        packed = exact._greedy_packing(cat, cat.all_quads)
        assert res.tiling.copies == tuple(dcopy_from_quad(G, cat.quads[i]) for i in packed)


def test_caller_given_incomplete_catalogs_keep_their_rules(rows):
    # The maximum packer packs an incomplete catalog, as stage Q's
    # catalogs are packed.
    G = planted_extremal(32)
    cat = quad_catalog(G, SpentAfter(3))
    assert not cat.complete
    res = exact._max_packing(G, cat, SearchBudget())
    assert res.status == "found" and res.tiling.size == 3


def test_a_budget_spent_while_the_fallback_catalog_is_listed(monkeypatch, rows):
    # The fallback reads the budget at its root, then once per row: spent
    # after 3 rows, it answers exhausted in its root node and lists no
    # more rows.
    monkeypatch.setattr(cli, "SearchBudget", lambda *args: SpentAfter(4))
    res = solve_driver(planted_extremal(64), DriverParams(mode="exact"))
    assert res.status == "exhausted" and res.report["branch"] == "exact-fallback"
    assert res.report["exact"] == {"status": "exhausted", "nodes": 1, "optimal": False}
    assert rows == [0, 1, 2]
