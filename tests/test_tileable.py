import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtiling import (
    InputError,
    build,
    complete_3graph,
    construct_G0,
    construct_G1,
    induced_perfect_tiling,
    induced_subgraph,
    perfect_tiling_exact,
    random_codegree_instance,
    tileable,
)
from dtiling.core import mask_of

from naive import naive_perfect_partition


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
