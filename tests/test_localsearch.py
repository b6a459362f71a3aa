import itertools
import random

import pytest

from dtiling import (
    DriverParams,
    build,
    complete_3graph,
    induced_subgraph,
    near_perfect_tiling,
    parse_instance,
    perfect_tiling_exact,
    random_codegree_instance,
    solve_driver,
    steiner_triple_system,
    validate_tiling,
)
from dtiling.core import bits_of, mask_of
from dtiling.exact import _greedy_packing, quad_catalog

from naive import naive_copy_pairs


class TestGreedy:
    def test_k8_maximal(self):
        G = complete_3graph(8)
        tiling = near_perfect_tiling(G)
        assert tiling.size == 2
        assert validate_tiling(G, tiling, require_perfect=True).ok

    def test_sts_has_nothing(self):
        G = steiner_triple_system(7)
        assert near_perfect_tiling(G).size == 0


def test_greedy_leaves_no_copy_uncovered():
    # The greedy tiling is maximal: what it leaves of ``within`` spans no
    # copy, so no copy could be added without moving a placed one.
    rng = random.Random(16)
    for _ in range(240):
        n = rng.randint(4, 16)
        density = rng.uniform(0.05, 0.6)
        edges = [t for t in itertools.combinations(range(n), 3) if rng.random() < density]
        G = build(n, edges)
        within = [v for v in range(n) if rng.random() < 0.8]
        tiling = near_perfect_tiling(G, mask_of(within))
        assert validate_tiling(G, tiling).ok
        assert tiling.covered <= set(within)
        uncovered = set(within) - tiling.covered
        assert naive_copy_pairs(G.edges, within=uncovered) == []


def test_greedy_places_the_catalog_first_fit_packing():
    # The greedy tiling of ``within`` is the first-fit packing of the
    # catalog of the subgraph it induces: the same quads, placed in the
    # same order.
    rng = random.Random(19)
    for _ in range(120):
        n = rng.randint(4, 16)
        density = rng.uniform(0.05, 0.6)
        G = build(n, [t for t in itertools.combinations(range(n), 3) if rng.random() < density])
        within = rng.getrandbits(n)
        H, mapping = induced_subgraph(G, bits_of(within))
        cat = quad_catalog(H)
        placed = [c.vertices for c in near_perfect_tiling(G, within).copies]
        assert placed == [tuple(mapping[v] for v in cat.quads[i]) for i in _greedy_packing(cat, cat.all_quads)]


class TestNearPerfect:
    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_complete_reaches_perfect(self, n):
        G = complete_3graph(n)
        tiling = near_perfect_tiling(G)
        assert validate_tiling(G, tiling, require_perfect=True).ok

    def test_sts_stalls_empty(self):
        assert near_perfect_tiling(steiner_triple_system(7)).size == 0

    def test_random_feasible_instances_land_close(self):
        checked = 0
        for seed in range(30):
            if checked == 10:
                break
            G = random_codegree_instance(12, 4, seed=seed)
            if perfect_tiling_exact(G).status != "found":
                continue
            checked += 1
            tiling = near_perfect_tiling(G)
            assert validate_tiling(G, tiling).ok
            assert 12 - len(tiling.covered) <= 8
        assert checked == 10


# The greedy tiling's leftover on each ``dense`` benchmark instance, in
# workload order, per workload seed.
DENSE_LEFTOVERS = {
    0: [0, 0, 4, 4, 0, 0, 4, 0, 0],
    1: [0, 0, 0, 0, 0, 0, 0, 0, 0],
    2: [4, 0, 0, 4, 0, 4, 4, 4, 0],
}


@pytest.mark.parametrize("seed", sorted(DENSE_LEFTOVERS))
def test_dense_reports_stall_without_classifying(benchmark_instances, seed):
    # The report holds the greedy tiling's leftover and nothing else.
    reports = [
        solve_driver(parse_instance(inst.text), DriverParams()).report["local_search"]
        for inst in benchmark_instances("dense", seed)
    ]
    assert reports == [{"leftover": leftover} for leftover in DENSE_LEFTOVERS[seed]]
