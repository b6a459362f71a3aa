"""Searches on part of G.  The greedy tiling and the small-set search
take a vertex mask of G and agree with the same search run on the induced
subgraph and mapped back, by ``induced_subgraph`` plus ``map_copy``.  The
exact tiling search takes a whole graph, so it runs on the induced
subgraph itself."""

import itertools
import random

import pytest

from dtiling import (
    InputError,
    SearchBudget,
    Tiling,
    build,
    complete_3graph,
    construct_G0,
    construct_G1,
    induced_perfect_tiling,
    induced_subgraph,
    map_copy,
    near_perfect_tiling,
    perfect_tiling_exact,
    planted_extremal,
    random_codegree_instance,
)
from dtiling.core import mask_of


def budget() -> SearchBudget:
    """A fresh budget per search, so no search spends another's nodes.
    Exhausted searches are compared too, so it caps them by nodes only: a
    wall clock stop would depend on the machine."""
    return SearchBudget(node_limit=100, time_limit=600.0)


def mapped(tiling, mapping) -> Tiling:
    return Tiling.from_copies(map_copy(c, mapping) for c in tiling.copies)


def source(kind: str, rng: random.Random):
    if kind == "random":
        n = rng.choice([24, 32, 40])
        return random_codegree_instance(n, rng.randint(2, n // 4 + 1), rng.randrange(10**6))
    if kind == "planted":
        return planted_extremal(rng.choice([24, 32, 40]))
    n = rng.choice([24, 32, 40, 48])
    return {"G0": construct_G0, "G1": construct_G1}[kind](n)


def seeded_masks(count: int = 48):
    """(G, sorted vertex list) pairs: 8 to 32 vertices, a multiple of 4,
    drawn from random, G0, G1 and planted extremal instances in turn."""
    rng = random.Random(2011)
    kinds = ("random", "G0", "G1", "planted")
    for i in range(count):
        G = source(kinds[i % 4], rng)
        size = rng.choice(range(8, min(G.n, 32) + 1, 4))
        yield G, sorted(rng.sample(range(G.n), size))


MASKS = list(seeded_masks())


def test_masks_reach_every_outcome():
    # The perfect tiling search on the subgraph each mask induces.
    statuses = {perfect_tiling_exact(induced_subgraph(G, S)[0], budget()).status for G, S in MASKS}
    assert statuses == {"found", "infeasible", "exhausted"}


def test_induced_perfect_tiling_matches_reference():
    # The relabelling keeps vertex order, so the small-set search makes
    # the same choices on G's mask and on the induced copy.
    G = random_codegree_instance(40, 10, 5)
    S = list(range(3, 40, 3))[:12]
    H, mapping = induced_subgraph(G, S)
    ref = induced_perfect_tiling(H, range(len(S)))
    assert ref is not None
    assert induced_perfect_tiling(G, S).copies == mapped(ref, mapping).copies


def embedded(base, extra: int, seed: int):
    """``base`` placed on a random vertex subset of a larger graph, with
    random edges that each touch a vertex outside that subset; returns the
    graph and the subset, on which the induced subgraph is ``base``."""
    rng = random.Random(seed)
    n = base.n + extra
    S = sorted(rng.sample(range(n), base.n))
    outside = set(range(n)) - set(S)
    edges = [tuple(S[v] for v in e) for e in base.edges]
    edges += [t for t in itertools.combinations(range(n), 3) if set(t) & outside and rng.random() < 0.3]
    return build(n, edges), S


LOCAL_CASES = [lambda: random_codegree_instance(20, 4, 3), lambda: complete_3graph(16)]


@pytest.mark.parametrize("make", LOCAL_CASES, ids=["random", "complete"])
@pytest.mark.parametrize("seed", [0, 1])
def test_near_perfect_matches_induced(make, seed):
    G, S = embedded(make(), extra=6, seed=seed)
    H, mapping = induced_subgraph(G, S)
    ref = near_perfect_tiling(H)
    got = near_perfect_tiling(G, within=mask_of(S))
    assert got.copies == mapped(ref, mapping).copies


def hub_instance():
    """Two seeded copies, each carrying one hub that sees every pair of
    the 24 other vertices, and a third copy among the non-hub vertices of
    the two: the greedy tiling takes the first two and strands the third."""
    W = range(8, 32)
    edges = [(0, 1, 2), (0, 1, 3), (4, 5, 6), (4, 5, 7)]
    edges += [(h, a, b) for h in (0, 4) for a, b in itertools.combinations(W, 2)]
    edges += [(1, 2, 5), (1, 2, 6)]
    return build(32, edges)


def test_greedy_matches_induced():
    G, S = embedded(hub_instance(), extra=6, seed=4)
    H, mapping = induced_subgraph(G, S)
    assert near_perfect_tiling(G, mask_of(S)).copies == mapped(near_perfect_tiling(H), mapping).copies


def test_mask_size_not_divisible_by_4():
    with pytest.raises(InputError):
        induced_perfect_tiling(complete_3graph(12), range(6))


@pytest.mark.parametrize("mask", [-1, 1 << 12])
def test_mask_outside_G(mask):
    with pytest.raises(InputError, match="outside"):
        near_perfect_tiling(complete_3graph(12), within=mask)


def test_empty_mask_is_tiled_by_nothing():
    # The empty mask induces the graph with no vertices, complete_3graph(0).
    for H in (induced_subgraph(complete_3graph(8), [])[0], complete_3graph(0)):
        res = perfect_tiling_exact(H)
        assert res.status == "found" and res.tiling.size == 0
