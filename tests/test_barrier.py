"""The space-barrier verdict: a D-free set S with |S| > 3n/4 refutes a
perfect tiling, because each copy needs a vertex outside S.  Every such
verdict is checked here by the independent oracles in ``naive``."""

import itertools
import random
import sys

import pytest

import dtiling
from dtiling import (
    DriverParams,
    SearchBudget,
    build,
    construct_G0,
    construct_G1,
    extend_to_maximal_D_free,
    format_certificate,
    greedy_D_free_set,
    max_D_free_set,
    near_perfect_tiling,
    parse_certificate,
    planted_extremal,
    random_codegree_instance,
    solve_driver,
    validate_tiling,
)

from naive import naive_perfect_partition, naive_space_barrier


def relabelled(G, seed):
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return build(G.n, ([perm[v] for v in e] for e in G.edges))


def solve(G, mode="auto"):
    return solve_driver(G, DriverParams(mode=mode))


def check_barrier_verdict(G, res):
    """A space-barrier verdict must carry an S the naive oracle accepts;
    up to 16 vertices the naive partition search confirms the refutation."""
    report = res.report
    assert report["branch"] == "space-barrier"
    assert res.status == "infeasible" and res.tiling is None
    S = report["dfree"]["vertices"]
    assert report["dfree"]["size"] == len(S)
    edges = sorted(G.edges)
    assert naive_space_barrier(G.n, edges, S)
    if G.n <= 16:
        assert naive_perfect_partition(G.n, edges) is None


G0_ORDERS = list(range(8, 41, 4))
G1_ORDERS = [8, 16, 24, 32, 40]  # n/4 even: the top layer needs a Steiner system


@pytest.mark.parametrize("n", G0_ORDERS)
def test_g0_refuted_at_the_barrier(n):
    G = relabelled(construct_G0(n), seed=n)
    res = solve(G)
    check_barrier_verdict(G, res)
    assert res.report["attempts"] == [{"branch": "space-barrier", "outcome": "infeasible"}]


@pytest.mark.parametrize("n", G1_ORDERS)
def test_g1_refuted_at_the_barrier(n):
    G = relabelled(construct_G1(n), seed=n)
    res = solve(G)
    check_barrier_verdict(G, res)
    # The greedy set already passes 3n/4, so no order asks for a search.
    dfree = res.report["dfree"]
    assert set(dfree) == {"size", "threshold", "extremal", "vertices"} and dfree["extremal"]
    assert "exact" not in res.report


def test_random_near_threshold_barrier_verdicts_hold():
    rng = random.Random(20)
    barriers = 0
    for _ in range(100):
        n = rng.choice([8, 12, 16, 20])
        G = random_codegree_instance(n, n // 4 + rng.choice([-1, 0, 1]), rng.randrange(2**32))
        res = solve(G)
        if res.report["branch"] == "space-barrier":
            barriers += 1
            check_barrier_verdict(G, res)
        else:
            assert 4 * res.report["dfree"]["size"] <= 3 * n
            assert "vertices" not in res.report["dfree"]
    # At codegree n/4 - 1 and above no random instance reaches the barrier.
    assert barriers == 0


def test_sparse_random_barrier_exactly_when_the_optimum_passes_3n_4():
    # On these graphs the greedy set reaches the barrier on every instance
    # that has one.
    rng = random.Random(3)
    barriers = 0
    for _ in range(60):
        n = rng.choice([8, 12, 16])
        G = random_codegree_instance(n, rng.choice([0, 1, 2]), rng.randrange(2**32))
        res = solve(G)
        above = 4 * len(max_D_free_set(G).vertices) > 3 * n
        assert (res.report["branch"] == "space-barrier") == above
        if above:
            barriers += 1
            check_barrier_verdict(G, res)
    assert barriers >= 10


# No node limit moves the set: the driver asks no D-free question.
@pytest.mark.parametrize("node_limit", [10_000_000, 100])
def test_every_budget_routes_on_the_greedy_set(node_limit):
    G = random_codegree_instance(16, 4, 7)
    greedy = extend_to_maximal_D_free(G, greedy_D_free_set(G))
    expected = {"size": len(greedy), "threshold": 9.0, "extremal": False}
    res = solve_driver(G, DriverParams(mode="extremal", node_limit=node_limit))
    assert res.report["dfree"] == expected
    # Seeded by the greedy set, stage R runs out of free Z vertices.
    assert res.status == "exhausted" and res.report["branch"] == "extremal"
    assert res.report["attempts"][-1]["reason"].startswith("stage R:")
    # Auto mode measures the same set, and the small-set search gets the
    # whole budget.  On a graph whose greedy tiling leaves vertices it
    # backtracks and tiles in 5 nodes, with no catalog listed.
    G = random_codegree_instance(16, 4, 2)
    greedy = extend_to_maximal_D_free(G, greedy_D_free_set(G))
    expected = {"size": len(greedy), "threshold": 9.0, "extremal": False}
    res = solve_driver(G, DriverParams(node_limit=node_limit))
    assert res.report["dfree"] == expected
    assert res.status == "tiled" and res.report["branch"] == "small-search"
    assert res.report["small_search"] == {"status": "found", "nodes": 5}
    assert "exact" not in res.report


def test_forced_extremal_mode_stops_at_the_barrier():
    G = construct_G1(16)
    check_barrier_verdict(G, solve(G, mode="extremal"))


def test_exact_mode_still_refutes_by_search():
    res = solve(construct_G0(16), mode="exact")
    assert res.report["branch"] == "exact-fallback"
    assert res.status == "infeasible" and "dfree" not in res.report


def test_tileable_instances_stay_below_the_barrier():
    for n in (16, 24, 40):
        res = solve(planted_extremal(n))
        assert res.status == "tiled" and res.report["branch"] == "extremal"
        assert res.report["dfree"]["size"] == 3 * n // 4


def patch_everywhere(monkeypatch, name, replacement, home=dtiling.exact):
    """Replace ``home.<name>`` in every dtiling module that holds it."""
    original = getattr(home, name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "dtiling" or mod_name.startswith("dtiling."):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, replacement)
    return original


class TestCallCounts:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_codegree_instance(16, 3, 11),
            lambda: random_codegree_instance(16, 5, 2),
            lambda: random_codegree_instance(20, 4, 13),
            lambda: random_codegree_instance(20, 6, 1),
            lambda: relabelled(planted_extremal(24), 3),
        ],
        ids=["random16-3", "random16-5", "random20-4", "random20-6", "planted-24"],
    )
    def test_one_catalog_per_solve(self, make, monkeypatch):
        # Only the exact fallback lists a catalog of G, so a solve lists at
        # most one; the absorption layer's own subgraphs are not G.  The
        # random graphs end in the small-set search, which lists none; the
        # planted one's greedy tiling leaves vertices, so its capped search
        # gives up and it tiles by the extremal branch, listing none.
        G = make()
        calls = []

        def counting(H, *args):
            calls.append(H is G)
            return original(H, *args)

        original = patch_everywhere(monkeypatch, "quad_catalog", counting)
        res = solve(G)
        assert res.status in ("tiled", "infeasible")
        assert sum(calls) == (res.report["branch"] == "exact-fallback")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: relabelled(construct_G0(20), 1),
            lambda: relabelled(construct_G1(24), 2),
            lambda: relabelled(construct_G0(32), 5),
            lambda: relabelled(construct_G1(40), 6),
        ],
        ids=["g0-20", "g1-24", "g0-32", "g1-40"],
    )
    def test_large_witnesses_need_no_search(self, make, monkeypatch):
        # The greedy set is the witness, up to SMALL_SEARCH_MAX_N as above.
        for name in ("quad_catalog", "max_D_free_set", "perfect_tiling_exact"):

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"the barrier solve called {_name}")

            patch_everywhere(monkeypatch, name, refuse)
        G = make()
        check_barrier_verdict(G, solve(G))

    @pytest.mark.parametrize(
        "make",
        [lambda: relabelled(construct_G0(20), 1), lambda: random_codegree_instance(16, 4, 7)],
        ids=["g0-20", "random16-4"],
    )
    def test_one_greedy_set_per_solve(self, make, monkeypatch):
        # The barrier solve and the solve routed on the greedy set both
        # grow it once.
        G = make()
        calls = []

        def counting(H):
            calls.append(H is G)
            return original(H)

        original = patch_everywhere(monkeypatch, "greedy_D_free_set", counting, dtiling.extremal)
        solve(G)
        assert calls == [True]


class TestGreedyTiling:
    """A perfect greedy tiling refutes the barrier, since each copy keeps
    at most 3 of its 4 vertices in a D-free set, and is the answer: it is
    the small-set search's first descent."""

    def test_a_perfect_greedy_tiling_answers_first(self, monkeypatch):
        budgets = []

        def make(*args):
            budgets.append(SearchBudget(*args))
            return budgets[-1]

        monkeypatch.setattr(dtiling.cli, "SearchBudget", make)
        G = random_codegree_instance(16, 4, 7)
        greedy = greedy_D_free_set(G)
        # The first descent spends one node per copy: n/4 = 4 of them.
        res = solve_driver(G, DriverParams(node_limit=4))
        assert res.status == "tiled" and res.report["branch"] == "small-search"
        assert res.report["attempts"] == [{"branch": "small-search", "outcome": "tiled"}]
        assert res.report["dfree"] == {"size": len(greedy), "threshold": 9.0, "extremal": False}
        assert res.report["small_search"] == {"status": "found", "nodes": 4}
        assert res.tiling == near_perfect_tiling(G)
        assert "small_search" in res.report["timings_ms"]
        assert [b.nodes for b in budgets] == [4]
        # One node fewer and the search gives up before its last copy.
        res = solve_driver(G, DriverParams(node_limit=3))
        assert res.status == "exhausted"
        assert res.report["small_search"] == {"status": "exhausted", "nodes": 4}

    def test_it_builds_no_catalog(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a quad catalog")

        monkeypatch.setattr(dtiling.exact, "quad_catalog", refuse)
        for G in (random_codegree_instance(16, 4, 7), random_codegree_instance(20, 6, 14)):
            res = solve(G)
            assert res.report["branch"] == "small-search"
            assert res.report["small_search"] == {"status": "found", "nodes": G.n // 4}

    def test_its_certificate_round_trips(self):
        G = random_codegree_instance(16, 4, 7)
        res = solve(G)
        cert = parse_certificate(format_certificate(res.tiling, "perfect"))
        assert cert.kind == "perfect" and cert.tiling == res.tiling
        assert validate_tiling(G, cert.tiling, require_perfect=True).ok

    @pytest.mark.parametrize("mode", ["extremal", "absorb", "exact"])
    def test_forced_modes_never_take_it(self, mode):
        for seed in range(6):
            res = solve_driver(random_codegree_instance(16, 4, seed), DriverParams(mode=mode))
            assert res.report["branch"] != "small-search" and "small_search" not in res.report
            assert all(a["branch"] != "small-search" for a in res.report["attempts"])
            assert "small_search" not in res.report["timings_ms"]


def sparse_instance(n, m, seed):
    rng = random.Random(seed)
    return build(n, rng.sample(list(itertools.combinations(range(n), 3)), m))


def test_a_barrier_the_greedy_set_misses_is_found_by_search(monkeypatch):
    # Greedy stops at 9 = 3n/4 vertices here and the optimum has 10.  The
    # greedy set routes the solve to the extremal branch, which fails, and
    # the exact fallback refutes G at its root on the solve's one catalog.
    G = sparse_instance(12, 12, 10)
    assert len(greedy_D_free_set(G)) == 9 and len(max_D_free_set(G).vertices) == 10
    assert naive_perfect_partition(G.n, sorted(G.edges)) is None
    calls = []

    def counting(H, *args):
        calls.append(H is G)
        return original(H, *args)

    original = patch_everywhere(monkeypatch, "quad_catalog", counting)
    res = solve(G)
    assert res.status == "infeasible" and res.report["branch"] == "exact-fallback"
    assert res.report["exact"] == {"status": "infeasible", "nodes": 1, "optimal": True}
    assert calls == [True]
    assert res.report["dfree"] == {"size": 9, "threshold": 6.75, "extremal": True}


def verdict_corpus():
    """Instances of at most ``SMALL_SEARCH_MAX_N`` vertices: random ones with
    d in {1, n/4 - 1, n/4, n/4 + 1, n/3}, G0, G1 and planted ones, and
    sparse graphs, some of them infeasible below the barrier."""
    for n in range(8, 25, 4):
        for d in sorted({1, n // 4 - 1, n // 4, n // 4 + 1, n // 3}):
            for seed in range(3):
                yield random_codegree_instance(n, d, seed)
        yield construct_G0(n)
        yield planted_extremal(n)
    for n in G1_ORDERS[:3]:
        yield construct_G1(n)
    rng = random.Random(28)
    for _ in range(40):
        n = rng.choice([8, 12])
        yield sparse_instance(n, rng.randrange(n, 4 * n), rng.randrange(2**32))


def test_auto_and_exact_verdicts_agree_up_to_24_vertices():
    # Auto mode refutes at the barrier, else answers by the small-set
    # search, else routes on the greedy set; whatever branch that picks,
    # the verdict is the exact search's, and up to 12 vertices the naive
    # partition search's.
    verdicts, branches = set(), set()
    for G in verdict_corpus():
        assert G.n <= dtiling.cli.SMALL_SEARCH_MAX_N
        res = solve(G)
        assert res.status == solve(G, mode="exact").status
        if G.n <= 12:
            naive = naive_perfect_partition(G.n, sorted(G.edges))
            assert res.status == ("infeasible" if naive is None else "tiled")
        verdicts.add(res.status)
        branches.add(res.report["branch"])
    assert verdicts == {"tiled", "infeasible"}
    assert branches == {"space-barrier", "small-search", "extremal", "exact-fallback"}


def dfree_corpus():
    """G0 and G1 up to 32 vertices, and random graphs of codegree n/4 - 1
    to n/4 + 1 on 8 to 32 vertices."""
    for n in range(8, 33, 4):
        yield construct_G0(n)
    for n in G1_ORDERS[:4]:
        yield construct_G1(n)
    rng = random.Random(39)
    for n in range(8, 33, 4):
        for _ in range(3):
            yield random_codegree_instance(n, n // 4 + rng.choice([-1, 0, 1]), rng.randrange(2**32))


@pytest.mark.parametrize(
    "mode, ends",
    [
        ("auto", {"space-barrier", "non-extremal", "small-search", "exact-fallback"}),
        ("extremal", {"space-barrier", "extremal"}),
    ],
)
def test_dfree_reports_only_what_the_greedy_set_measured(mode, ends):
    branches = set()
    for G in dfree_corpus():
        res = solve(G, mode)
        dfree, branch = res.report["dfree"], res.report["branch"]
        barrier = {"vertices"} if branch == "space-barrier" else set()
        assert set(dfree) == {"size", "threshold", "extremal"} | barrier
        assert dfree["extremal"] == (dfree["size"] >= dfree["threshold"])
        assert "dfree" in res.report["timings_ms"] and "certificate" not in res.report["timings_ms"]
        branches.add(branch)
    assert branches == ends
