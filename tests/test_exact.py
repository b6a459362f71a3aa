import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dtiling

from dtiling import (
    InputError,
    SearchBudget,
    build,
    complete_3graph,
    construct_G0,
    construct_G1,
    four_partite,
    four_partite_degree_stats,
    four_partite_of,
    four_partite_perfect_matching,
    induced_subgraph,
    is_D_free,
    max_D_free_set,
    max_tiling_exact,
    perfect_tiling_exact,
    planted_extremal,
    quad_catalog,
    quad_spans_D,
    random_codegree_instance,
    steiner_triple_system,
    validate_tiling,
)
from dtiling.core import bits_of, mask_of, spanning_quads_at
from dtiling.exact import QuadCatalog, _counts, _decide, _greedy_hitting, _greedy_packing, _max_packing

from test_tileable import graphs

from naive import (
    _spanning_quads,
    naive_four_partite_matching,
    naive_is_D_free,
    naive_max_D_free,
    naive_max_tiling_size,
    naive_perfect_partition,
)


class TestCatalog:
    def test_complete_k8(self):
        cat = quad_catalog(complete_3graph(8))
        assert len(cat.quads) == 70

    def test_sts_empty(self):
        assert quad_catalog(steiner_triple_system(9)).quads == ()

    def test_g0_quads_meet_a(self):
        cat = quad_catalog(construct_G0(8))
        assert cat.quads
        assert all(0 in q for q in cat.quads)

    def test_incidence_index(self):
        cat = quad_catalog(complete_3graph(6))
        assert len(cat.inc) == 6
        for v, bits in enumerate(cat.inc):
            assert bits_of(bits) == [i for i, q in enumerate(cat.quads) if v in q]


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=12), st.integers(0, 2**12 - 1))
def test_catalog_matches_naive_on_masks(data, bits):
    n, edges = data
    G = build(n, edges)
    S = [v for v in range(n) if (bits >> v) & 1]
    local = [tuple(S.index(v) for v in e) for e in G.edges if set(e) <= set(S)]
    naive = sorted(_spanning_quads(len(S), local))
    cat = quad_catalog(induced_subgraph(G, S)[0])
    assert cat.quads == tuple(naive)
    assert [bits_of(x) for x in cat.inc] == [[i for i, q in enumerate(cat.quads) if v in q] for v in range(len(S))]
    # On G's mask, the one enumerator lists each vertex's quads, the naive
    # ones with that lowest vertex, in order.
    for i, v in enumerate(S):
        expected = [tuple(S[u] for u in q) for q in naive if q[0] == i]
        assert list(spanning_quads_at(G, v, mask_of(S) & -(2 << v))) == expected


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=12), st.integers(0, 2**12 - 1))
@example((5, [(0, 1, 4), (0, 2, 4), (1, 2, 3)]), 0b11111)
def test_enumerator_lists_every_quad_through_v(data, bits):
    # With vertices on both sides of v in the mask, and v in it or not, the
    # enumerator lists the naive spanning 4-sets through v whose other three
    # lie in the mask, as (v, a, b, c) with a < b < c, in order.
    n, edges = data
    G = build(n, edges)
    S = {v for v in range(n) if (bits >> v) & 1}
    naive = _spanning_quads(n, G.edges)
    for v in range(n):
        expected = [(v, *(u for u in q if u != v)) for q in naive if v in q and set(q) - {v} <= S]
        assert list(spanning_quads_at(G, v, mask_of(S))) == expected


class TestPerfect:
    def test_k8_found(self):
        res = perfect_tiling_exact(complete_3graph(8))
        assert res.status == "found"
        assert res.tiling.size == 2
        # independent brute force agrees a partition exists
        assert naive_perfect_partition(8, complete_3graph(8).edges) is not None

    def test_g1_8_infeasible(self):
        res = perfect_tiling_exact(construct_G1(8))
        assert res.status == "infeasible"
        assert res.tiling is None

    def test_unique_cover(self):
        G = build(8, [(0, 1, 2), (0, 1, 3), (4, 5, 6), (4, 5, 7)])
        res = perfect_tiling_exact(G)
        assert res.status == "found"
        assert [c.vertices for c in res.tiling.copies] == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_divisibility(self):
        with pytest.raises(InputError):
            perfect_tiling_exact(complete_3graph(6))

    def test_budget_exhaustion_flagged(self):
        res = perfect_tiling_exact(complete_3graph(16), SearchBudget(node_limit=1))
        assert res.status == "exhausted"

    def test_time_limit_is_read_at_every_node(self):
        # Unbudgeted, this search takes 541 nodes; a node on a large
        # catalog can cost a good part of a second, so the clock must not
        # wait for a count of nodes before it stops the search.
        res = perfect_tiling_exact(planted_extremal(32), SearchBudget(time_limit=1e-9))
        assert (res.status, res.nodes) == ("exhausted", 1)

    def test_dense_planted_mask_nodes_pinned(self):
        # 8 of the 10 side vertices of planted_extremal(40) and 24 bulk
        # vertices: tileable, and dense enough that the catalog has tens of
        # thousands of quads, so a node must not rescan it.
        H, _ = induced_subgraph(planted_extremal(40), list(range(8)) + list(range(10, 34)))
        res = perfect_tiling_exact(H, SearchBudget(node_limit=400, time_limit=600.0))
        assert (res.status, res.nodes) == ("exhausted", 401)

    @pytest.mark.parametrize("make, n", [(construct_G0, 52), (construct_G1, 56)], ids=["G0", "G1"])
    def test_tight_families_refuted_at_the_root(self, make, n):
        # Over 170,000 quads, each meeting the side of n/4 - 1 vertices:
        # the greedy hitting set is that side, so the root is refuted.
        res = perfect_tiling_exact(make(n), SearchBudget(node_limit=5))
        assert (res.status, res.nodes) == ("infeasible", 1)

    def test_hitting_bound_on_a_large_random_catalog(self):
        # 185,126 quads; the bound does not fire here.
        res = perfect_tiling_exact(random_codegree_instance(52, 17, 0), SearchBudget(node_limit=100))
        assert (res.status, res.nodes) == ("found", 14)


class TestMaxTiling:
    def test_g0_8(self):
        res = max_tiling_exact(construct_G0(8))
        assert res.status == "found"
        assert res.optimal
        assert res.tiling.size == 1

    def test_k8(self):
        assert max_tiling_exact(complete_3graph(8)).tiling.size == 2

    def test_sts_zero(self):
        assert max_tiling_exact(steiner_triple_system(7)).tiling.size == 0

    def test_exhaustion_keeps_the_best(self):
        # greedy start grabs (0,1,2,3) and stalls at one copy, so proving
        # the 2-copy optimum needs search nodes the budget does not allow
        G = build(8, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (2, 3, 6), (2, 3, 7)])
        res = max_tiling_exact(G, SearchBudget(node_limit=1))
        assert res.status == "exhausted"
        assert not res.optimal
        assert [c.vertices for c in res.tiling.copies] == [(0, 1, 2, 3)]
        assert validate_tiling(G, res.tiling).ok
        full = max_tiling_exact(G)
        assert full.optimal and full.tiling.size == 2

    def test_matches_naive_dp(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.choice([8, 12])
            G = random_codegree_instance(n, rng.randint(0, n // 4), rng.randint(0, 10**6))
            res = max_tiling_exact(G)
            assert res.optimal
            assert res.tiling.size == naive_max_tiling_size(n, G.edges)

    def test_packs_a_catalog_of_part_of_the_graph(self):
        # The maximum packer, as stage Q runs it: a catalog of G's quads
        # inside part of G, listed from the induced subgraph's catalog,
        # packs as many as that subgraph holds.
        G = random_codegree_instance(16, 4, 3)
        H, mapping = induced_subgraph(G, range(4, 16))
        kept = [tuple(mapping[v] for v in q) for q in quad_catalog(H).quads]
        res = _max_packing(G, QuadCatalog.of(G, kept), SearchBudget())
        assert res.tiling.size == max_tiling_exact(H).tiling.size

    def test_packs_only_the_catalog_quads(self):
        # The maximum packer's packing of a random subset of the quads,
        # checked against a brute force over every family of them.
        rng = random.Random(8)
        for _ in range(20):
            G = random_codegree_instance(12, rng.randint(1, 3), rng.randrange(10**6))
            kept = [quad for quad in quad_catalog(G).quads if rng.random() < 0.05]
            res = _max_packing(G, QuadCatalog.of(G, kept), SearchBudget())
            assert {c.vertices for c in res.tiling.copies} <= set(kept)
            masks = [mask_of(quad) for quad in kept]

            def best(j, used):
                if j == len(masks):
                    return 0
                skip = best(j + 1, used)
                return skip if masks[j] & used else max(skip, 1 + best(j + 1, used | masks[j]))

            assert res.optimal and res.tiling.size == best(0, 0)

    def test_perfect_agrees_with_max(self):
        rng = random.Random(5)
        for _ in range(12):
            n = rng.choice([8, 12, 16])
            G = random_codegree_instance(n, rng.randint(1, n // 4 + 1), rng.randint(0, 10**6))
            perfect = perfect_tiling_exact(G).status == "found"
            assert perfect == (max_tiling_exact(G).tiling.size == n // 4)
        # Both run one packing search: on the subgraph a vertex set
        # induces, the perfect search finds a tiling iff the maximum one
        # packs a quarter of its vertices in quads, and up to 12 vertices
        # the brute force agrees.  G0 gives infeasible sets of more than
        # 12 vertices.
        outcomes = set()
        for _ in range(40):
            n = rng.choice([12, 16, 20])
            if rng.random() < 0.3:
                G = construct_G0(n)
            else:
                G = random_codegree_instance(n, rng.randint(0, n // 4 + 1), rng.randrange(10**6))
            verts = sorted(rng.sample(range(n), 4 * rng.randint(1, n // 4)))
            H, _ = induced_subgraph(G, verts)
            perfect = perfect_tiling_exact(H)
            packed = max_tiling_exact(H)
            assert perfect.optimal and packed.optimal
            found = perfect.status == "found"
            assert found == (packed.tiling.size == len(verts) // 4)
            if len(verts) <= 12:
                assert found == (naive_perfect_partition(len(verts), H.edges) is not None)
            outcomes.add((found, len(verts) <= 12))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestRelabelInvariance:
    def test_feasibility_and_size(self):
        rng = random.Random(3)
        for seed in range(6):
            G = random_codegree_instance(12, 2, seed)
            perm = list(range(12))
            rng.shuffle(perm)
            H = build(12, [tuple(sorted(perm[v] for v in e)) for e in G.edges])
            assert perfect_tiling_exact(G).status == perfect_tiling_exact(H).status
            assert max_tiling_exact(G).tiling.size == max_tiling_exact(H).tiling.size


class TestMaxDFree:
    def test_planted_8(self):
        res = max_D_free_set(planted_extremal(8))
        assert res.status == "found"
        assert len(res.vertices) == 6

    def test_k8(self):
        assert len(max_D_free_set(complete_3graph(8)).vertices) == 3

    def test_edgeless(self):
        assert len(max_D_free_set(build(8, [])).vertices) == 8

    def test_result_is_d_free(self):
        G = random_codegree_instance(12, 3, 9)
        res = max_D_free_set(G)
        assert is_D_free(G, res.vertices)

    def test_matches_naive(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(6, 9)
            G = random_codegree_instance(n, rng.randint(0, 2), rng.randint(0, 10**6))
            res = max_D_free_set(G)
            assert res.status == "found"
            assert len(res.vertices) == len(naive_max_D_free(n, G.edges))

    def test_one_budget_for_all_questions(self):
        # Every decision question spends the same 50 nodes; the last one
        # may tick once past them before it reports the stop.
        G = random_codegree_instance(20, 5, 1)
        res = max_D_free_set(G, SearchBudget(node_limit=50))
        assert res.status == "exhausted"
        assert res.nodes <= 51
        assert is_D_free(G, res.vertices)
        assert len(res.vertices) >= 5


class TestGreedyBounds:
    def test_hitting_hits_and_packing_stays_below(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(8, 20)
            cat = quad_catalog(random_codegree_instance(n, rng.randint(1, n // 4 + 1), rng.randrange(10**6)))
            masks = [mask_of(q) for q in cat.quads]
            hit = _greedy_hitting(cat, cat.all_quads, range(n))
            assert all(m & hit for m in masks)
            packing = _greedy_packing(cat, cat.all_quads)
            assert len(packing) <= hit.bit_count()
            used = 0
            for i in packing:
                assert not masks[i] & used
                used |= masks[i]
            # the caps cut the same greedy runs short
            cap = rng.randint(1, 4)
            assert _greedy_hitting(cat, cat.all_quads, range(n), cap).bit_count() == min(cap, hit.bit_count())
            blocked = rng.getrandbits(n) & rng.getrandbits(n)
            free = [i for i, m in enumerate(masks) if not m & blocked]
            alive = sum(1 << i for i in free)
            capped = _greedy_packing(cat, alive, cap)
            assert capped == _greedy_packing(cat, alive)[:cap]
            assert capped[:1] == free[:1]

    def test_bitset_helpers_match_list_scans(self):
        """Counts, greedy hitting set and first-fit packing on the live int
        agree with plain scans over a list of live quad ids."""

        def counts(quads, live, verts):
            return [sum(v in quads[i] for i in live) for v in verts]

        def hitting(quads, live, n, cap):
            hit = set()
            while live and len(hit) != cap:
                c = counts(quads, live, range(n))
                v = c.index(max(c))
                hit.add(v)
                live = [i for i in live if v not in quads[i]]
            return mask_of(hit)

        def packing(quads, live, cap):
            out, used = [], set()
            for i in live:
                if not used & set(quads[i]):
                    out.append(i)
                    if len(out) == cap:
                        break
                    used |= set(quads[i])
            return out

        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(8, 16)
            cat = quad_catalog(random_codegree_instance(n, rng.randint(1, n // 4 + 1), rng.randrange(10**6)))
            live = [i for i in range(len(cat.quads)) if rng.random() < 0.6]
            alive = sum(1 << i for i in live)
            verts = sorted(rng.sample(range(n), rng.randint(1, n)))
            cap = rng.choice([None, 1, 2, 3])
            assert _counts(cat, alive, verts) == counts(cat.quads, live, verts)
            assert _greedy_hitting(cat, alive, range(n), cap) == hitting(cat.quads, live, n, cap)
            assert _greedy_packing(cat, alive, cap) == packing(cat.quads, live, cap)


# (status, nodes, witness) of the perfect and maximum tiling searches and
# of the maximum D-free set (nodes summed over its decision questions) on
# seeded instances, with perfect and D-free searches capped at 1,100 nodes
# and maximum tiling at 250.  Any change to branching order, bounds or
# node accounting moves these figures.
PINNED_SEARCHES = [
    (
        ("random", 8, 1, 0),
        {
            "perfect": ("found", 3, ((0, 1, 3, 4), (2, 5, 6, 7))),
            "max": ("found", 18, ((0, 1, 3, 4), (2, 5, 6, 7))),
            "dfree": ("found", 15, (0, 2, 3, 4, 7)),
        },
    ),
    (
        ("random", 8, 2, 1),
        {
            "perfect": ("found", 3, ((0, 1, 2, 5), (3, 4, 6, 7))),
            "max": ("found", 1, ((0, 1, 2, 3), (4, 5, 6, 7))),
            "dfree": ("found", 35, (3, 4, 5, 7)),
        },
    ),
    (
        ("random", 10, 2, 2),
        {
            "max": ("found", 1, ((0, 1, 2, 4), (3, 5, 6, 8))),
            "dfree": ("found", 74, (2, 4, 6, 7, 8)),
        },
    ),
    (
        ("random", 12, 2, 3),
        {
            "perfect": ("found", 4, ((0, 1, 2, 3), (4, 5, 6, 10), (7, 8, 9, 11))),
            "max": ("found", 1, ((0, 1, 2, 3), (4, 5, 6, 10), (7, 8, 9, 11))),
            "dfree": ("found", 286, (0, 2, 6, 7, 10, 11)),
        },
    ),
    (
        ("random", 12, 3, 4),
        {
            "perfect": ("found", 4, ((0, 1, 2, 11), (3, 4, 5, 7), (6, 8, 9, 10))),
            "max": ("found", 128, ((0, 1, 2, 11), (3, 4, 5, 7), (6, 8, 9, 10))),
            "dfree": ("found", 215, (3, 4, 5, 10, 11)),
        },
    ),
    (
        ("random", 13, 3, 5),
        {
            "max": ("found", 1, ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))),
            "dfree": ("found", 357, (3, 6, 7, 8, 9)),
        },
    ),
    (
        ("random", 16, 4, 7),
        {
            "perfect": ("found", 5, ((0, 1, 2, 6), (3, 4, 8, 15), (5, 7, 9, 11), (10, 12, 13, 14))),
            "max": ("found", 1, ((0, 1, 2, 3), (4, 5, 6, 8), (7, 9, 10, 11), (12, 13, 14, 15))),
            "dfree": ("found", 1045, (6, 7, 8, 9, 13)),
        },
    ),
    (
        ("random", 16, 5, 8),
        {
            "perfect": ("found", 5, ((0, 1, 2, 7), (3, 4, 6, 11), (5, 8, 9, 12), (10, 13, 14, 15))),
            "max": ("found", 1, ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))),
            "dfree": ("found", 1034, (1, 5, 8, 10, 13)),
        },
    ),
    (
        ("random", 20, 4, 9),
        {
            "perfect": (
                "found",
                6,
                ((0, 1, 3, 15), (2, 4, 7, 16), (5, 6, 9, 10), (8, 11, 12, 13), (14, 17, 18, 19)),
            ),
            "max": (
                "exhausted",
                251,
                ((0, 1, 3, 15), (2, 4, 7, 16), (5, 6, 9, 10), (8, 11, 12, 13), (14, 17, 18, 19)),
            ),
            "dfree": ("exhausted", 1101, (2, 8, 13, 15, 16, 17, 18)),
        },
    ),
    (
        ("random", 24, 6, 12),
        {
            "perfect": (
                "found",
                7,
                ((0, 1, 5, 10), (2, 3, 4, 6), (7, 8, 9, 18), (11, 12, 14, 20), (13, 15, 16, 17), (19, 21, 22, 23)),
            ),
            "max": (
                "found",
                1,
                ((0, 1, 2, 4), (3, 5, 6, 7), (8, 9, 10, 12), (11, 13, 14, 16), (15, 17, 18, 19), (20, 21, 22, 23)),
            ),
            "dfree": ("exhausted", 1101, (10, 15, 18, 20, 21, 22)),
        },
    ),
    (
        ("G0", 8),
        {
            "perfect": ("infeasible", 1, None),
            "max": ("found", 1, ((0, 1, 2, 3),)),
            "dfree": ("found", 1, (1, 2, 3, 4, 5, 6, 7)),
        },
    ),
    (
        ("G0", 12),
        {
            "perfect": ("infeasible", 1, None),
            "max": ("found", 99, ((0, 2, 3, 4), (1, 5, 6, 7))),
            "dfree": ("found", 5, (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
        },
    ),
    (
        ("G0", 16),
        {
            "perfect": ("infeasible", 1, None),
            "max": ("exhausted", 251, ((0, 3, 4, 5), (1, 6, 7, 8), (2, 9, 10, 11))),
            "dfree": ("found", 15, (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
        },
    ),
    (
        ("G0", 20),
        {
            "perfect": ("infeasible", 1, None),
            "max": ("exhausted", 251, ((0, 1, 4, 5), (2, 6, 7, 8), (3, 9, 10, 11))),
            "dfree": ("found", 35, (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)),
        },
    ),
    (
        ("G0", 24),
        {
            "perfect": ("infeasible", 1, None),
            "max": ("exhausted", 251, ((0, 1, 2, 5), (3, 6, 7, 8), (4, 9, 10, 11))),
            "dfree": (
                "found",
                70,
                (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23),
            ),
        },
    ),
    (
        ("G1", 8),
        {
            "perfect": ("infeasible", 1, None),
            "max": ("found", 1, ((0, 1, 2, 3),)),
            "dfree": ("found", 1, (1, 2, 3, 4, 5, 6, 7)),
        },
    ),
    (
        ("G1", 16),
        {
            "perfect": ("infeasible", 1, None),
            "max": ("exhausted", 251, ((0, 3, 4, 5), (1, 6, 7, 8), (2, 9, 10, 11))),
            "dfree": ("found", 15, (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
        },
    ),
    (
        ("G1", 24),
        {
            "perfect": ("infeasible", 1, None),
            "max": ("exhausted", 251, ((0, 1, 2, 5), (3, 6, 7, 8), (4, 9, 10, 11))),
            "dfree": (
                "found",
                70,
                (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23),
            ),
        },
    ),
    (
        ("planted", 16),
        {
            "perfect": (
                "found",
                63,
                ((0, 4, 5, 6), (1, 7, 8, 9), (2, 10, 11, 12), (3, 13, 14, 15)),
            ),
            "max": (
                "exhausted",
                251,
                ((0, 4, 5, 6), (1, 7, 8, 9), (2, 10, 11, 12), (3, 13, 14, 15)),
            ),
            "dfree": ("found", 35, (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
        },
    ),
    (
        ("planted", 24),
        {
            "perfect": (
                "found",
                222,
                ((0, 6, 7, 8), (1, 9, 10, 11), (2, 12, 13, 14), (3, 15, 16, 17), (4, 18, 19, 20), (5, 21, 22, 23)),
            ),
            "max": (
                "exhausted",
                251,
                ((0, 1, 2, 6), (3, 7, 8, 9), (4, 10, 11, 12), (5, 13, 14, 15)),
            ),
            "dfree": (
                "found",
                126,
                (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23),
            ),
        },
    ),
]


def _pinned_graph(case):
    kind, n, *rest = case
    if kind == "random":
        return random_codegree_instance(n, *rest)
    return {"G0": construct_G0, "G1": construct_G1, "planted": planted_extremal}[kind](n)


@pytest.mark.parametrize("case, expected", PINNED_SEARCHES, ids=[str(c) for c, _ in PINNED_SEARCHES])
def test_pinned_searches(case, expected):
    G = _pinned_graph(case)
    got = {}
    if G.n % 4 == 0:
        res = perfect_tiling_exact(G, SearchBudget(node_limit=1100))
        got["perfect"] = (res.status, res.nodes, res.tiling and tuple(c.vertices for c in res.tiling.copies))
    res = max_tiling_exact(G, SearchBudget(node_limit=250))
    got["max"] = (res.status, res.nodes, tuple(c.vertices for c in res.tiling.copies))
    res = max_D_free_set(G, SearchBudget(node_limit=1100))
    got["dfree"] = (res.status, res.nodes, res.vertices)
    assert got == expected


# (status, nodes, witness) of the D-free decision on the pinned instances,
# at the driver's two questions: ceil(t) for t = (1 - 0.25) * 3n/4, and
# floor(3n/4) + 1, the space barrier.
PINNED_DECISIONS = {
    ("random", 8, 1, 0): {
        "threshold": ("found", 27, (0, 2, 3, 4, 7)),
        "barrier": ("infeasible", 5, ()),
    },
    ("random", 8, 2, 1): {
        "threshold": ("infeasible", 35, ()),
        "barrier": ("infeasible", 1, ()),
    },
    ("random", 10, 2, 2): {
        "threshold": ("infeasible", 74, ()),
        "barrier": ("infeasible", 5, ()),
    },
    ("random", 12, 2, 3): {
        "threshold": ("infeasible", 86, ()),
        "barrier": ("infeasible", 1, ()),
    },
    ("random", 12, 3, 4): {
        "threshold": ("infeasible", 105, ()),
        "barrier": ("infeasible", 5, ()),
    },
    ("random", 13, 3, 5): {
        "threshold": ("infeasible", 70, ()),
        "barrier": ("infeasible", 5, ()),
    },
    ("random", 16, 4, 7): {
        "threshold": ("infeasible", 210, ()),
        "barrier": ("infeasible", 1, ()),
    },
    ("random", 16, 5, 8): {
        "threshold": ("infeasible", 210, ()),
        "barrier": ("infeasible", 1, ()),
    },
    ("random", 20, 4, 9): {
        "threshold": ("infeasible", 210, ()),
        "barrier": ("infeasible", 5, ()),
    },
    ("random", 24, 6, 12): {
        "threshold": ("infeasible", 353, ()),
        "barrier": ("infeasible", 1, ()),
    },
    ("G0", 8): {
        "threshold": ("found", 2, (1, 2, 3, 4, 5, 6, 7)),
        "barrier": ("found", 2, (1, 2, 3, 4, 5, 6, 7)),
    },
    ("G0", 12): {
        "threshold": ("found", 3, (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
        "barrier": ("found", 3, (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    },
    ("G0", 16): {
        "threshold": ("found", 4, (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
        "barrier": ("found", 4, (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
    },
    ("G0", 20): {
        "threshold": ("found", 5, (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)),
        "barrier": ("found", 5, (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)),
    },
    ("G0", 24): {
        "threshold": ("found", 6, (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)),
        "barrier": ("found", 6, (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)),
    },
    ("G1", 8): {
        "threshold": ("found", 2, (1, 2, 3, 4, 5, 6, 7)),
        "barrier": ("found", 2, (1, 2, 3, 4, 5, 6, 7)),
    },
    ("G1", 16): {
        "threshold": ("found", 4, (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
        "barrier": ("found", 4, (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
    },
    ("G1", 24): {
        "threshold": ("found", 6, (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)),
        "barrier": ("found", 6, (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)),
    },
    ("planted", 16): {
        "threshold": ("found", 5, (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
        "barrier": ("infeasible", 35, ()),
    },
    ("planted", 24): {
        "threshold": ("found", 7, (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)),
        "barrier": ("infeasible", 126, ()),
    },
}


def decide(G, size, budget=None):
    """The D-free decision on the catalog of G listed on ``budget``."""
    budget = budget or SearchBudget()
    return _decide(G, quad_catalog(G, budget), size, budget)


def decision_sizes(n):
    return {"threshold": math.ceil(0.75 * 3 * n / 4), "barrier": 3 * n // 4 + 1}


@pytest.mark.parametrize("case", list(PINNED_DECISIONS), ids=str)
def test_pinned_decisions(case):
    G = _pinned_graph(case)
    got = {}
    for name, size in decision_sizes(G.n).items():
        res = decide(G, size, SearchBudget(node_limit=1100))
        got[name] = (res.status, res.nodes, res.vertices)
    assert got == PINNED_DECISIONS[case]
    # The witnesses agree with the optimum pinned beside them.
    optimum = len(dict(PINNED_SEARCHES)[case]["dfree"][2])
    for name, size in decision_sizes(G.n).items():
        assert (got[name][0] == "found") == (optimum >= size)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12))
def test_decision_matches_the_optimum(data):
    n, edges = data
    G = build(n, edges)
    optimum = len(naive_max_D_free(n, G.edges))
    for size in range(n + 2):
        res = decide(G, size)
        assert res.status == ("found" if optimum >= size else "infeasible")
        if res.status == "found":
            assert len(res.vertices) >= size
            assert naive_is_D_free(sorted(G.edges), res.vertices)
        else:
            assert res.vertices == ()


class TestDecision:
    def test_size_above_n_is_refuted_at_once(self):
        res = decide(build(8, []), 9)
        assert (res.status, res.nodes, res.vertices) == ("infeasible", 0, ())

    def test_edgeless_has_every_size(self):
        res = decide(build(8, []), 8)
        assert (res.status, res.vertices) == ("found", tuple(range(8)))

    def test_budget_exhaustion_flagged(self):
        G = random_codegree_instance(20, 5, 1)
        res = decide(G, 12, SearchBudget(node_limit=3))
        assert (res.status, res.nodes, res.vertices) == ("exhausted", 4, ())

    def test_catalog_is_reused(self, monkeypatch):
        # max_D_free_set lists one catalog of G and asks every question on
        # it: here the greedy start has 5 vertices, a set of 6 is found and
        # one of 7 refuted.
        G = random_codegree_instance(12, 2, 3)
        listed, asked = [], []
        list_catalog, decide = dtiling.exact.quad_catalog, dtiling.exact._decide

        def counting_list(H, budget):
            listed.append(H)
            return list_catalog(H, budget)

        def counting_decide(H, cat, size, budget):
            asked.append(cat)
            return decide(H, cat, size, budget)

        monkeypatch.setattr(dtiling.exact, "quad_catalog", counting_list)
        monkeypatch.setattr(dtiling.exact, "_decide", counting_decide)
        res = max_D_free_set(G)
        assert (res.status, len(res.vertices)) == ("found", 6)
        assert listed == [G]
        assert len(asked) == 2 and asked[0] is asked[1]


def complete_four_partite(m):
    parts = [range(i * m, (i + 1) * m) for i in range(4)]
    edges = list(itertools.product(*parts))
    return four_partite(parts, edges)


class TestFourPartite:
    def test_complete_m3(self):
        res = four_partite_perfect_matching(complete_four_partite(3))
        assert res.status == "found"
        assert len(res.matching) == 3

    def test_isolated_vertex(self):
        H = complete_four_partite(2)
        edges = [e for e in H.edges if e[0] != 0]
        res = four_partite_perfect_matching(four_partite(H.parts, edges))
        assert res.status == "infeasible"

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(20):
            m = 4
            parts = [range(i * m, (i + 1) * m) for i in range(4)]
            pool = list(itertools.product(*parts))
            edges = rng.sample(pool, k=rng.randint(0, 48))
            H = four_partite(parts, edges)
            res = four_partite_perfect_matching(H)
            brute = naive_four_partite_matching(parts, edges)
            assert (res.status == "found") == (brute is not None)
            if res.status == "found":
                assert set(res.matching) <= set(H.edges)
                for i in range(4):
                    assert {e[i] for e in res.matching} == set(parts[i])

    def test_unequal_parts(self):
        with pytest.raises(InputError):
            four_partite([range(2), range(2, 4), range(4, 6), range(6, 9)], [])

    def test_overlapping_parts(self):
        with pytest.raises(InputError):
            four_partite([range(2), range(1, 3), range(4, 6), range(6, 8)], [])

    def test_non_transversal_edge(self):
        with pytest.raises(InputError):
            four_partite(
                [range(2), range(2, 4), range(4, 6), range(6, 8)], [(0, 1, 4, 6)]
            )

    def test_degree_stats_complete(self):
        stats = four_partite_degree_stats(complete_four_partite(3))
        # every V1 vertex sits in 27 edges; every transversal triple of
        # V2 x V3 x V4 extends by all 3 V1 vertices
        assert stats["m"] == 3
        assert stats["min_degree_part1"] == 27
        assert stats["min_degree_triple"] == 3
        assert stats["lhs"] == 3 * 27 + 27 * 3
        assert stats["rhs"] == 1.5 * 81
        assert stats["condition_met"]


# (status, nodes, matching) of each search in test_pinned_search_order.
PINNED_MATCHINGS = [
    ("infeasible", 5, None),
    ("found", 25, ((25, 2, 3, 31), (24, 11, 5, 16), (22, 10, 19, 8), (21, 27, 9, 20))),
    ("infeasible", 23, None),
    ("found", 22,
     ((30, 7, 0, 12), (20, 4, 8, 26), (14, 15, 1, 9), (18, 29, 3, 31), (25, 21, 5, 10), (17, 11, 19, 23))),
    ("found", 6, ((6, 10, 1, 15), (12, 11, 19, 13), (3, 25, 7, 20))),
    ("found", 14, ((20, 8, 6, 11), (0, 2, 16, 15), (19, 9, 4, 17), (23, 18, 22, 3))),
    ("found", 7, ((2, 9, 4, 1), (16, 15, 25, 7), (24, 17, 8, 14), (19, 21, 12, 20), (10, 27, 26, 5))),
    ("found", 36,
     ((14, 4, 3, 1), (12, 8, 0, 6), (20, 15, 7, 16), (11, 13, 10, 22), (23, 17, 9, 19), (2, 21, 5, 18))),
    ("infeasible", 8, None),
    ("found", 7, ((7, 0, 17, 3), (5, 9, 24, 26), (22, 10, 25, 8), (4, 23, 6, 19))),
    ("infeasible", 61, None),
    ("found", 106,
     ((5, 8, 6, 1), (2, 12, 4, 7), (23, 19, 22, 15), (17, 18, 10, 0), (3, 13, 16, 14), (21, 20, 9, 11))),
    ("found", 4, ((9, 14, 15, 3), (25, 18, 12, 8), (27, 22, 21, 24))),
    ("found", 11, ((14, 1, 25, 8), (15, 11, 21, 29), (28, 24, 7, 9), (20, 5, 13, 27))),
    ("found", 16, ((17, 10, 16, 11), (9, 14, 2, 20), (0, 18, 13, 19), (5, 15, 4, 7), (6, 21, 22, 3))),
    ("found", 22,
     ((25, 3, 16, 7), (21, 8, 17, 10), (15, 12, 0, 4), (1, 14, 19, 11), (22, 5, 18, 27), (2, 9, 24, 20))),
    ("found", 6, ((17, 7, 0, 12), (10, 27, 15, 18), (14, 22, 1, 20))),
    ("infeasible", 5, None),
    ("found", 9, ((3, 2, 0, 13), (8, 12, 5, 19), (22, 11, 20, 18), (21, 10, 23, 1), (7, 17, 6, 15))),
    ("found", 58,
     ((6, 1, 2, 4), (24, 14, 8, 17), (18, 23, 0, 15), (10, 22, 5, 27), (13, 12, 9, 19), (26, 20, 7, 25))),
]


def random_parts(rng, n, m):
    """Four disjoint m-sets of 0..n-1, each in shuffled order."""
    pool = rng.sample(range(n), 4 * m)
    return [pool[i * m : (i + 1) * m] for i in range(4)]


def quad_sweep(G, parts):
    return {e for e in itertools.product(*parts) if quad_spans_D(G, e)}


def naive_degree_stats(parts, edges):
    deg1 = {v: 0 for v in parts[0]}
    deg234 = {t: 0 for t in itertools.product(*parts[1:])}
    for e in edges:
        deg1[e[0]] += 1
        deg234[e[1:]] += 1
    return min(deg1.values(), default=0), min(deg234.values(), default=0)


class TestFourPartiteOf:
    def test_matches_quad_sweep_on_random(self):
        rng = random.Random(29)
        for _ in range(12):
            n = rng.choice([16, 20, 24, 32])
            G = random_codegree_instance(n, rng.randint(1, n // 3), rng.randint(0, 10**6))
            parts = random_parts(rng, n, rng.randint(1, n // 4))
            H = four_partite_of(G, parts)
            assert H.parts == tuple(tuple(p) for p in parts)
            assert H.edges == quad_sweep(G, parts)

    def test_matches_quad_sweep_on_planted_48(self):
        G = planted_extremal(48)
        z = list(range(12, 48))
        parts = [list(range(12)), z[:12], z[12:24], z[24:]]
        H = four_partite_of(G, parts)
        assert H.edges == quad_sweep(G, parts)
        # the D-free bulk alone spans nothing
        assert four_partite_of(G, [z[:9], z[9:18], z[18:27], z[27:]]).edges == frozenset()

    def test_decoded_edges_are_transversal(self):
        rng = random.Random(4)
        G = random_codegree_instance(24, 7, 3)
        parts = random_parts(rng, 24, 5)
        H = four_partite_of(G, parts)
        edges = H.edges
        assert edges
        for e in edges:
            assert all(e[i] in parts[i] for i in range(4))
        assert sum(row.bit_count() for row in H.links) == len(edges)

    def test_single_vertex_parts(self):
        G = complete_3graph(8)
        for parts in ([[5], [1], [7], [0]], [[0], [6], [2], [4]]):
            H = four_partite_of(G, parts)
            assert H.edges == quad_sweep(G, parts) == {tuple(p[0] for p in parts)}
            stats = four_partite_degree_stats(H)
            assert (stats["m"], stats["min_degree_part1"], stats["min_degree_triple"]) == (1, 1, 1)
            res = four_partite_perfect_matching(H)
            assert res.matching == (tuple(p[0] for p in parts),) and res.nodes == 2
        H = four_partite_of(steiner_triple_system(9), [[0], [1], [2], [3]])
        assert H.edges == frozenset() and four_partite_perfect_matching(H).status == "infeasible"

    def test_pinned_search_order(self):
        # Status, node count and matching of the search on seeded graphs
        # read off random instances, as the (a, b, dmask) tuple links
        # produced them; five are infeasible.  The bitset links must try
        # edges in the same order.
        rng = random.Random(44)
        got = []
        for trial in range(20):
            m = 3 + trial % 4
            n = rng.choice([24, 28, 32])
            G = random_codegree_instance(n, rng.randint(1, 4), rng.randint(0, 10**6))
            res = four_partite_perfect_matching(four_partite_of(G, random_parts(rng, n, m)))
            got.append((res.status, res.nodes, res.matching))
        assert got == PINNED_MATCHINGS

    def test_agrees_with_edge_list_adapter(self):
        rng = random.Random(8)
        G = random_codegree_instance(20, 5, 1)
        parts = random_parts(rng, 20, 4)
        H = four_partite_of(G, parts)
        assert four_partite(parts, quad_sweep(G, parts)) == H

    def test_rejects_bad_parts(self):
        G = complete_3graph(8)
        with pytest.raises(InputError):
            four_partite_of(G, [[0, 1], [2, 3], [4, 5], [6, 8]])
        with pytest.raises(InputError):
            four_partite_of(G, [[0, 1], [2, 3], [4, 5], [6]])
        with pytest.raises(InputError):
            four_partite_of(G, [[0, 1], [1, 3], [4, 5], [6, 7]])


class TestFourPartiteLinks:
    def test_edge_list_round_trip(self):
        rng = random.Random(12)
        parts = [rng.sample(range(i * 5, (i + 1) * 5), 5) for i in range(4)]
        edges = set(rng.sample(list(itertools.product(*parts)), 150))
        assert four_partite(parts, edges).edges == edges

    def test_sparse_shuffled_ids(self):
        # Parts drawn from 0..200 in shuffled order: the part-2 and part-4
        # ids set the block width, and part-1 and part-3 ids may exceed it.
        rng = random.Random(53)
        for trial in range(30):
            m = 1 + trial % 5
            ids = rng.sample(range(201), 4 * m)
            parts = [ids[i * m : (i + 1) * m] for i in range(4)]
            pool = list(itertools.product(*parts))
            k = rng.randint(0, len(pool)) if trial % 3 else len(pool) - rng.randint(0, m)
            edges = set(rng.sample(pool, k=k))
            H = four_partite(parts, edges)
            assert H.edges == edges
            stats = four_partite_degree_stats(H)
            assert (stats["min_degree_part1"], stats["min_degree_triple"]) == naive_degree_stats(parts, edges)
            res = four_partite_perfect_matching(H)
            if res.status == "found":
                assert set(res.matching) <= edges
                for i in range(4):
                    assert {e[i] for e in res.matching} == set(parts[i])
            if m <= 4:  # the brute force takes seconds to refute m = 5
                assert (res.status == "found") == (naive_four_partite_matching(parts, edges) is not None)

    def test_rejects_negative_vertex(self):
        with pytest.raises(InputError):
            four_partite([[-1], [1], [2], [3]], [])

    def test_degree_stats_match_naive_recount(self):
        rng = random.Random(31)
        for trial in range(25):
            m = rng.randint(1, 5)
            parts = random_parts(rng, 4 * m + 3, m)
            pool = list(itertools.product(*parts))
            # dense trials leave every triple covered, sparse ones miss some
            k = len(pool) - rng.randint(0, m) if trial % 2 else rng.randint(0, len(pool))
            edges = rng.sample(pool, k=k)
            stats = four_partite_degree_stats(four_partite(parts, edges))
            d1, d234 = naive_degree_stats(parts, edges)
            assert (stats["min_degree_part1"], stats["min_degree_triple"]) == (d1, d234)
            assert stats["lhs"] == m * d1 + m**3 * d234

    def test_degree_stats_missing_triple(self):
        H = complete_four_partite(3)
        edges = [e for e in H.edges if e[1:] != (3, 6, 9)]
        stats = four_partite_degree_stats(four_partite(H.parts, edges))
        assert stats["min_degree_part1"] == 26
        assert stats["min_degree_triple"] == 0
        assert not stats["condition_met"]

    def test_degree_stats_empty_parts(self):
        stats = four_partite_degree_stats(four_partite([(), (), (), ()], []))
        assert (stats["m"], stats["min_degree_part1"], stats["min_degree_triple"]) == (0, 0, 0)
        assert stats["lhs"] == 0 and stats["condition_met"]
        res = four_partite_perfect_matching(four_partite([(), (), (), ()], []))
        assert res.status == "found" and res.matching == () and res.nodes == 1

    def test_matching_nodes_pinned(self):
        # Status, node count and degree minima of the edge-sorted
        # backtracking on seeded random 4-partite graphs, as the edge-set
        # representation produced them.  The link order must reproduce its
        # search exactly.
        rng = random.Random(23)
        got = []
        for _ in range(12):
            m = 5
            parts = [range(i * m, (i + 1) * m) for i in range(4)]
            pool = list(itertools.product(*parts))
            H = four_partite(parts, rng.sample(pool, k=rng.randint(20, 320)))
            res = four_partite_perfect_matching(H)
            stats = four_partite_degree_stats(H)
            got.append((res.status, res.nodes, stats["min_degree_part1"], stats["min_degree_triple"]))
        assert got == [
            ("found", 11, 30, 0),
            ("found", 7, 39, 0),
            ("found", 6, 28, 0),
            ("found", 9, 21, 0),
            ("found", 8, 41, 0),
            ("found", 8, 42, 0),
            ("found", 69, 6, 0),
            ("infeasible", 48, 4, 0),
            ("found", 6, 25, 0),
            ("found", 9, 35, 0),
            ("found", 9, 54, 0),
            ("found", 16, 9, 0),
        ]

    def test_budget_exhaustion_flagged(self):
        res = four_partite_perfect_matching(complete_four_partite(3), SearchBudget(node_limit=2))
        assert res.status == "exhausted" and res.matching is None


class TestBudget:
    def test_validation(self):
        with pytest.raises(InputError):
            SearchBudget(node_limit=0)
        with pytest.raises(InputError):
            SearchBudget(time_limit=-1)
        with pytest.raises(InputError):
            SearchBudget(time_limit=float("nan"))
        with pytest.raises(InputError):
            SearchBudget(node_limit=float("nan"))

    def test_searches_share_one_pool(self):
        # Each search reports its own nodes and the budget counts them all:
        # the decision stops one tick past the 3 nodes of the pool, and a
        # search handed the spent budget stops at its first tick.
        G = random_codegree_instance(20, 5, 1)
        budget = SearchBudget(node_limit=3, time_limit=600.0)
        res = decide(G, 12, budget)
        assert (res.status, res.nodes, budget.nodes, budget.spent) == ("exhausted", 4, 4, True)
        res = max_tiling_exact(G, budget)
        assert (res.status, res.nodes, budget.nodes) == ("exhausted", 1, 5)
        assert budget == SearchBudget(node_limit=3, time_limit=600.0)

    def test_deadline_runs_from_when_the_budget_is_made(self):
        budget = SearchBudget(time_limit=1e-9)
        assert budget.spent and budget.nodes == 0

    def test_witnesses_validate(self):
        G = random_codegree_instance(12, 3, 4)
        res = max_tiling_exact(G)
        assert validate_tiling(G, res.tiling).ok
