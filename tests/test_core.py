import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtiling import (
    DCopy,
    InputError,
    Tiling,
    build,
    codegree,
    complete_3graph,
    construct_G0,
    dcopy_from_quad,
    enumerate_D_copies,
    induced_subgraph,
    is_D_free,
    link_of_vertex_on_set,
    map_copy,
    min_codegree,
    quad_spans_D,
    steiner_triple_system,
    validate_tiling,
)
from dtiling.core import bits_of, mask_of

from naive import naive_copy_pairs, naive_is_D_free


def triples_strategy(max_n=10):
    return st.integers(min_value=3, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, n - 1), min_size=3, max_size=3).map(
                    lambda s: tuple(sorted(s))
                ),
                max_size=40,
            ),
        )
    )


class TestBuild:
    def test_complete_k4(self):
        G = build(4, itertools.combinations(range(4), 3))
        assert len(G.edges) == 4
        assert G.n == 4

    def test_dedup(self):
        G = build(4, [(0, 1, 2), (2, 1, 0), (0, 1, 2)])
        assert len(G.edges) == 1

    def test_out_of_range(self):
        with pytest.raises(InputError, match="0, 1, 3"):
            build(3, [(0, 1, 3)])

    def test_degenerate(self):
        with pytest.raises(InputError):
            build(4, [(0, 0, 1)])

    def test_pair_bits_consistency(self):
        G = build(5, [(0, 1, 2), (0, 2, 3), (1, 3, 4)])
        for u, v in itertools.combinations(range(5), 2):
            thirds = [w for w in range(5) if tuple(sorted((u, v, w))) in G.edges]
            assert G.pair_bits(u, v) == mask_of(thirds)


class TestCodegree:
    def test_complete_k6(self):
        G = complete_3graph(6)
        for u, v in itertools.combinations(range(6), 2):
            assert codegree(G, u, v) == 4

    def test_g0_codegree_floor(self):
        # delta_2(G0) = n/4 - 1
        assert min_codegree(construct_G0(8)) == 1

    def test_fano_pairs(self):
        G = steiner_triple_system(7)
        for u, v in itertools.combinations(range(7), 2):
            assert codegree(G, u, v) == 1

    def test_errors(self):
        G = complete_3graph(4)
        with pytest.raises(InputError):
            codegree(G, 1, 1)
        with pytest.raises(InputError):
            codegree(G, 0, 4)

    def test_tiny_orders(self):
        assert min_codegree(build(0, [])) == 0
        assert min_codegree(build(1, [])) == 0


class TestLink:
    def test_complete(self):
        G = complete_3graph(5)
        assert link_of_vertex_on_set(G, 0, {1, 2, 3}) == {(1, 2), (1, 3), (2, 3)}

    def test_edgeless(self):
        G = build(6, [])
        assert link_of_vertex_on_set(G, 0, {1, 2, 3, 4}) == set()

    def test_direct_read_off(self):
        G = build(4, [(0, 1, 2), (0, 2, 3)])
        assert link_of_vertex_on_set(G, 0, {1, 2, 3}) == {(1, 2), (2, 3)}

    def test_v_in_w(self):
        G = complete_3graph(5)
        with pytest.raises(InputError):
            link_of_vertex_on_set(G, 1, {1, 2})


class TestCopies:
    def test_k4_count(self):
        # oracle: all C(4,2) = 6 pairs of K4's edges share 2 vertices
        G = complete_3graph(4)
        copies = enumerate_D_copies(G)
        assert len(copies) == 6
        assert len(copies) == len(naive_copy_pairs(G.edges))
        assert all(c.well_formed() for c in copies)

    def test_sts_no_copies(self):
        assert enumerate_D_copies(steiner_triple_system(9)) == []

    def test_disjoint_edges(self):
        assert enumerate_D_copies(build(6, [(0, 1, 2), (3, 4, 5)])) == []

    def test_within_restriction(self):
        G = complete_3graph(6)
        within = enumerate_D_copies(G, within={0, 1, 2, 3})
        assert len(within) == 6
        assert all(set(c.vertices) <= {0, 1, 2, 3} for c in within)

    def test_quad_spans(self):
        G = build(5, [(0, 1, 2), (0, 1, 3)])
        assert quad_spans_D(G, (0, 1, 2, 3))
        assert not quad_spans_D(G, (0, 1, 2, 4))
        copy = dcopy_from_quad(G, (0, 1, 2, 3))
        assert copy.well_formed()
        with pytest.raises(InputError):
            dcopy_from_quad(G, (0, 1, 2, 4))


class TestDFree:
    def test_g0_b_side(self):
        G = construct_G0(8)
        assert is_D_free(G, range(1, 8))

    def test_k4_not_free(self):
        assert not is_D_free(complete_3graph(4), range(4))

    def test_small_sets_always_free(self):
        G = complete_3graph(6)
        for S in itertools.combinations(range(6), 3):
            assert is_D_free(G, S)


class TestValidate:
    def _k8_tiling(self):
        G = complete_3graph(8)
        copies = [dcopy_from_quad(G, (0, 1, 2, 3)), dcopy_from_quad(G, (4, 5, 6, 7))]
        return G, Tiling.from_copies(copies)

    def test_valid_perfect(self):
        G, T = self._k8_tiling()
        assert validate_tiling(G, T, require_perfect=True).ok

    def test_overlap_flagged(self):
        G = complete_3graph(8)
        a = dcopy_from_quad(G, (0, 1, 2, 3))
        b = dcopy_from_quad(G, (3, 4, 5, 6))
        bad = Tiling(copies=(a, b), covered=frozenset(range(7)))
        verdict = validate_tiling(G, bad)
        assert not verdict.ok
        assert any("overlap" in v for v in verdict.violations)

    def test_missing_edge_flagged(self):
        G = build(4, [(0, 1, 2)])
        fake = DCopy(vertices=(0, 1, 2, 3), edge_a=(0, 1, 2), edge_b=(0, 1, 3))
        verdict = validate_tiling(G, Tiling.from_copies([fake]))
        assert not verdict.ok
        assert any("missing edge" in v for v in verdict.violations)

    def test_not_perfect_flagged(self):
        G = complete_3graph(8)
        T = Tiling.from_copies([dcopy_from_quad(G, (0, 1, 2, 3))])
        verdict = validate_tiling(G, T, require_perfect=True)
        assert any("not perfect" in v for v in verdict.violations)

    @pytest.mark.parametrize("bad", [-1, -2, 8, 9])
    def test_out_of_range_vertex_is_a_violation(self, bad):
        # K8 has every triple, so a vertex read modulo n (-1 as 7) would
        # make the witness edges look present.
        G = complete_3graph(8)
        quad = tuple(sorted((bad, 0, 1, 2)))
        copy = DCopy(vertices=quad, edge_a=quad[:3], edge_b=quad[:2] + quad[3:])
        verdict = validate_tiling(G, Tiling.from_copies([copy]))
        assert f"copy 0: out-of-range vertex {bad}" in verdict.violations
        assert any("missing edge" in v for v in verdict.violations)

    def test_from_copies_rejects_overlap(self):
        G = complete_3graph(8)
        with pytest.raises(InputError):
            Tiling.from_copies(
                [dcopy_from_quad(G, (0, 1, 2, 3)), dcopy_from_quad(G, (3, 4, 5, 6))]
            )


class TestEdgeReaders:
    def test_has_edge(self):
        G = build(5, [(0, 1, 4), (1, 2, 3)])
        assert all(G.has_edge(*t) for t in itertools.permutations((0, 1, 4)))
        assert G.has_edge(3, 2, 1)
        # repeated vertices, and vertices outside 0..4: -1 must not read as 4
        for t in [(0, 1, 2), (0, 0, 1), (1, 1, 4), (4, 4, 4), (0, 1, -1), (-1, 0, 1),
                  (1, -1, 0), (0, 1, 5), (5, 0, 1), (0, 1, 9)]:
            assert G.has_edge(*t) is False

    def test_readers_of_an_edgeless_vertex(self):
        G = build(6, [(0, 1, 2)])
        assert G.degree(4) == 0 and G.degree(-1) == 0 and G.degree(6) == 0
        assert G.pair_bits(3, 4) == 0 and G.pair_bits(0, 0) == 0 and G.pair_bits(-1, 0) == 0


@settings(max_examples=60, deadline=None)
@given(triples_strategy())
def test_edges_and_degrees_from_the_index(data):
    n, triples = data
    G = build(n, triples)
    assert G.edges == frozenset(triples) and G.m == len(G.edges)
    assert G.edges is G.edges
    assert list(G.triples()) == sorted(set(triples))
    for v in range(n):
        assert G.degree(v) == sum(v in t for t in set(triples))


class TestInduced:
    def test_induced_subgraph_and_map_back(self):
        G = complete_3graph(8)
        H, mapping = induced_subgraph(G, [2, 3, 5, 7])
        assert H.n == 4
        assert len(H.edges) == 4
        copy = dcopy_from_quad(H, (0, 1, 2, 3))
        back = map_copy(copy, mapping)
        assert set(back.vertices) == {2, 3, 5, 7}
        assert validate_tiling(G, Tiling.from_copies([back])).ok


class TestBitHelpers:
    @given(st.sets(st.integers(0, 60), max_size=12))
    def test_round_trip(self, vertices):
        assert bits_of(mask_of(vertices)) == sorted(vertices)


@settings(max_examples=60, deadline=None)
@given(triples_strategy())
def test_rebuild_preserves_codegrees(data):
    n, triples = data
    G = build(n, triples)
    H = build(n, G.edges)
    for u, v in itertools.combinations(range(n), 2):
        assert codegree(G, u, v) == codegree(H, u, v)


@settings(max_examples=60, deadline=None)
@given(triples_strategy())
def test_codegree_sum_is_three_m(data):
    n, triples = data
    G = build(n, triples)
    total = sum(codegree(G, u, v) for u, v in itertools.combinations(range(n), 2))
    assert total == 3 * len(G.edges)


@settings(max_examples=40, deadline=None)
@given(triples_strategy(), st.randoms(use_true_random=False))
def test_copy_count_relabel_invariant(data, rnd):
    n, triples = data
    G = build(n, triples)
    perm = list(range(n))
    rnd.shuffle(perm)
    relabeled = build(n, [tuple(sorted(perm[v] for v in e)) for e in G.edges])
    assert len(enumerate_D_copies(G)) == len(enumerate_D_copies(relabeled))


@settings(max_examples=60, deadline=None)
@given(triples_strategy(), st.data())
def test_is_d_free_matches_naive(data, draw):
    n, triples = data
    G = build(n, triples)
    S = draw.draw(st.sets(st.integers(0, n - 1), max_size=n))
    assert is_D_free(G, S) == naive_is_D_free(G.edges, S)


def test_enumeration_matches_naive_on_random_instances():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(4, 9)
        pool = list(itertools.combinations(range(n), 3))
        triples = rng.sample(pool, k=min(len(pool), rng.randint(0, 20)))
        G = build(n, triples)
        assert len(enumerate_D_copies(G)) == len(naive_copy_pairs(G.edges))
