import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtiling import (
    InputError,
    SearchBudget,
    build,
    complete_3graph,
    construct_G0,
    construct_G1,
    induced_perfect_tiling,
    induced_subgraph,
    near_perfect_tiling,
    perfect_tiling_exact,
    random_codegree_instance,
    solve_driver,
    tileable,
)
from dtiling import exact
from dtiling.core import mask_of
from dtiling.exact import small_tiling_exact

from naive import naive_perfect_partition
from test_barrier import sparse_instance, verdict_corpus


def graphs(max_n=12):
    return st.integers(min_value=3, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, n - 1), min_size=3, max_size=3).map(
                    lambda s: tuple(sorted(s))
                ),
                max_size=60,
            ),
        )
    )


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_full_mask_matches_naive(data):
    n, edges = data
    G = build(n, edges)
    assert tileable(G, (1 << n) - 1) == (naive_perfect_partition(n, edges) is not None)


@pytest.mark.parametrize(
    "G",
    [
        random_codegree_instance(48, 16, seed=0),
        random_codegree_instance(64, 22, seed=1),
        construct_G0(24),
        construct_G1(24),
    ],
    ids=["random48", "random64", "G0_24", "G1_24"],
)
def test_agrees_with_exact_search(G):
    # Two independent kernels: the small-set search against the catalog
    # search; the tiling the small-set search emits covers exactly S.
    rng = random.Random(G.n)
    for size, trials in ((8, 30), (12, 20), (16, 4)):
        for _ in range(trials):
            S = rng.sample(range(G.n), size)
            found = perfect_tiling_exact(induced_subgraph(G, S)[0]).status == "found"
            assert tileable(G, mask_of(S)) == found, S
            tiling = induced_perfect_tiling(G, S)
            assert (tiling is not None) == found, S
            if found:
                assert tiling.covered == frozenset(S), S


@pytest.mark.parametrize(
    "G, expected",
    [
        (construct_G0(8), False),
        (construct_G0(12), False),
        (construct_G0(16), False),
        (construct_G1(8), False),
        (construct_G1(16), False),
        (complete_3graph(16), True),
    ],
    ids=["G0_8", "G0_12", "G0_16", "G1_8", "G1_16", "K16"],
)
def test_whole_instance(G, expected):
    assert tileable(G, (1 << G.n) - 1) == expected


class TestEdgeCases:
    def test_empty_mask(self):
        assert tileable(build(5, []), 0)

    def test_size_not_divisible_by_four(self):
        G = complete_3graph(16)
        for size in (1, 2, 3, 5, 7, 9, 15):
            assert not tileable(G, (1 << size) - 1)

    def test_more_than_sixteen_vertices(self):
        G = complete_3graph(20)
        with pytest.raises(InputError):
            tileable(G, (1 << 20) - 1)
        with pytest.raises(InputError):
            tileable(G, (1 << 17) - 1)

    def test_mask_out_of_range(self):
        G = complete_3graph(8)
        with pytest.raises(InputError):
            tileable(G, 1 << 8)
        with pytest.raises(InputError):
            tileable(G, -1)


# The small-set search on all of G, as the driver runs it: on the solve's
# budget, giving up once its memo holds G.m entries.


def seeded_graphs():
    """Random graphs on 8 to 24 vertices at codegree 1, n/4 - 1 to n/4 + 1
    and n/3, and sparse ones with n to min(8n, C(n, 3)) edges."""
    for n in range(8, 25, 4):
        for d in sorted({1, n // 4 - 1, n // 4, n // 4 + 1, n // 3}):
            for seed in range(10):
                yield random_codegree_instance(n, d, seed)
    rng = random.Random(40)
    for _ in range(200):
        n = rng.choice([8, 12, 16, 20, 24])
        yield sparse_instance(n, rng.randrange(n, min(8 * n, math.comb(n, 3))), rng.randrange(2**32))


def test_first_descent_is_the_greedy_tiling():
    # Both take the first spanning quad of the lowest uncovered vertex, so
    # where the greedy tiling is perfect the search never backtracks: one
    # memo entry per copy, and the same copies.
    perfect = 0
    for G in seeded_graphs():
        greedy = near_perfect_tiling(G)
        if 4 * greedy.size != G.n:
            continue
        res = small_tiling_exact(G, SearchBudget())
        assert res.status == "found" and res.nodes == G.n // 4
        assert res.tiling == greedy
        perfect += 1
    assert perfect >= 100


def test_a_cap_of_n_4_keeps_only_the_first_descent():
    # A success expands one set per copy, and any backtrack expands one
    # more, so with n/4 sets allowed the search succeeds exactly when its
    # first descent, the greedy tiling, is perfect.
    perfect = 0
    for G in seeded_graphs():
        greedy = near_perfect_tiling(G)
        res = small_tiling_exact(G, SearchBudget(), G.n // 4)
        assert (res.status == "found") == (4 * greedy.size == G.n)
        assert res.nodes <= G.n // 4
        if res.status == "found":
            assert res.tiling == greedy and res.nodes == G.n // 4
            perfect += 1
    assert perfect >= 100


def test_a_perfect_greedy_tiling_is_the_auto_answer():
    # Extremal graphs included: the driver's capped search keeps their
    # greedy tiling too.
    extremal = 0
    for G in verdict_corpus():
        greedy = near_perfect_tiling(G)
        if 4 * greedy.size != G.n:
            continue
        res = solve_driver(G)
        assert res.report["branch"] == "small-search" and res.tiling == greedy
        extremal += res.report["dfree"]["extremal"]
    assert extremal >= 10


def test_verdicts_agree_with_naive_and_catalog_search():
    verdicts, decided, gave_up = set(), 0, 0
    for G in seeded_graphs():
        res = small_tiling_exact(G, SearchBudget())
        if res.status == "exhausted":
            assert res.nodes == G.m
            gave_up += 1
            continue
        if G.n <= 12:
            expected = naive_perfect_partition(G.n, sorted(G.edges)) is not None
        else:
            expected = perfect_tiling_exact(G).status == "found"
        assert (res.status == "found") == expected
        assert (res.tiling is not None) == expected
        verdicts.add(res.status)
        decided += 1
    assert decided >= 300 and verdicts == {"found", "infeasible"} and gave_up


def counting_quads(monkeypatch):
    """Count the calls to ``spanning_quads_at`` from the small-set search:
    one per new memo entry."""
    calls = []

    def counted(G, v, free, _original=exact.spanning_quads_at):
        calls.append(free)
        return _original(G, v, free)

    monkeypatch.setattr(exact, "spanning_quads_at", counted)
    return calls


class TestBudget:
    def test_one_tick_per_memo_entry(self, monkeypatch):
        calls = counting_quads(monkeypatch)
        budget = SearchBudget()
        budget.nodes = 7  # a budget the solve has spent from already
        res = small_tiling_exact(random_codegree_instance(16, 4, 2), budget)
        assert res.status == "found" and res.nodes == 5
        assert len(calls) == len(set(calls)) == 5 and budget.nodes == 12

    def test_gives_up_at_G_m_memo_entries(self, monkeypatch):
        G = sparse_instance(16, 64, 118639407)
        calls = counting_quads(monkeypatch)
        budget = SearchBudget()
        res = small_tiling_exact(G, budget)
        assert res.status == "exhausted" and res.tiling is None
        assert res.nodes == len(calls) == budget.nodes == G.m == 64

    def test_gives_up_on_a_spent_pool(self, monkeypatch):
        calls = counting_quads(monkeypatch)
        budget = SearchBudget(node_limit=3)
        res = small_tiling_exact(random_codegree_instance(16, 4, 2), budget)
        # Three entries and the tick past the pool, which adds none.
        assert res.status == "exhausted" and res.nodes == 4 and len(calls) == 3

    def test_takes_more_than_sixteen_vertices(self):
        res = small_tiling_exact(complete_3graph(24), SearchBudget())
        assert res.status == "found" and res.tiling.size == 6 and res.nodes == 6
