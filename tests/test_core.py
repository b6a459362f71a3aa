import gc
import itertools
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dtiling.core
from dtiling import (
    DCopy,
    Hypergraph3,
    InputError,
    Tiling,
    build,
    codegree,
    complete_3graph,
    construct_G0,
    dcopy_from_quad,
    induced_subgraph,
    is_D_free,
    map_copy,
    min_codegree,
    planted_extremal,
    quad_spans_D,
    random_codegree_instance,
    steiner_triple_system,
    validate_tiling,
)
from dtiling.core import _DIGIT_READ_MIN_BITS, MAX_N, _fill, bits_of, mask_of
from dtiling.io import _parse_canonical, _parse_lines

from naive import naive_is_D_free, naive_pair_index


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

    @pytest.mark.parametrize("at", [0, 255, 256, 700])
    def test_errors_name_the_first_offending_triple(self, at):
        # Valid triples in both vertex orders around two bad ones: the
        # message names the first bad one, wherever its chunk begins.
        good = [(0, 1, 2), (3, 1, 2), (1, 2, 3)] * 300
        for bad, message in (((2, 2, 1), r"triple \(1, 2, 2\) does not have 3 distinct"),
                             ((9, 1, 0), r"triple \(0, 1, 9\) has a vertex outside 0..4"),
                             ((0, 1), r"triple \(0, 1\) does not have 3 distinct"),
                             ((0, 1.0, 2), r"triple \(0, 1\.0, 2\) has a non-integer vertex"),
                             (("0", "1", "2"), r"triple \('0', '1', '2'\) has a non-integer vertex")):
            triples = good[:at] + [bad, (4, 3, 3)] + good[at:]
            with pytest.raises(InputError, match=message):
                build(5, triples)
            with pytest.raises(InputError, match=message):
                build(5, iter(triples))

    @pytest.mark.parametrize("bound", [3, 256, 300])
    def test_more_than_max_edges_triples_are_refused(self, monkeypatch, bound):
        # Triples are counted as given, duplicates included, so even an
        # endless stream of one triple is refused once it passes the bound.
        monkeypatch.setattr(dtiling.core, "MAX_EDGES", bound)
        assert build(4, [(0, 1, 2)] * bound).m == 1
        for triples in ([(0, 1, 2)] * (bound + 1), itertools.repeat((2, 1, 0))):
            with pytest.raises(InputError, match=f"more than {bound} triples.*MAX_EDGES"):
                build(4, triples)

    @pytest.mark.parametrize("at", [0, 255, 256, 700])
    def test_a_stream_is_read_up_to_the_first_bad_triple(self, at):
        def stream():
            yield from [(0, 1, 2), (3, 1, 2)] * (at // 2) + [(1, 2, 3)] * (at % 2)
            yield (4, 3, 3)
            pytest.fail("build read past the bad triple")

        with pytest.raises(InputError, match=r"triple \(3, 3, 4\) does not have 3 distinct"):
            build(5, stream())

    @pytest.mark.parametrize("bound", [3, 256, 300])
    def test_an_endless_stream_is_read_once_past_max_edges(self, monkeypatch, bound):
        monkeypatch.setattr(dtiling.core, "MAX_EDGES", bound)
        reads = 0

        def endless():
            nonlocal reads
            while True:
                reads += 1
                yield (2, 1, 0)

        with pytest.raises(InputError, match=f"more than {bound} triples"):
            build(4, endless())
        assert reads == bound + 1

    @pytest.mark.parametrize("member", [5, None, 2.5])
    def test_a_member_that_is_not_iterable_is_named(self, member):
        for triples in ([member], [(0, 1, 2), member, (0, 1, 2)], iter([(2, 1, 0), member])):
            with pytest.raises(InputError, match=rf"^triple {member!r} is not an iterable of vertices$"):
                build(3, triples)

    def test_a_type_error_of_the_stream_itself_propagates(self):
        # The caller's generator fails, before any triple and after one;
        # so does an iterable triple that fails while it is read.
        def stream(head):
            yield from head
            raise TypeError("the stream's own fault")

        def failing_triple():
            yield 0
            raise TypeError("the triple's own fault")

        for head in ([], [(0, 1, 2)]):
            with pytest.raises(TypeError, match="the stream's own fault"):
                build(3, stream(head))
        with pytest.raises(TypeError, match="the triple's own fault"):
            build(3, [(0, 1, 2), failing_triple()])

    def test_any_iterable_triples(self):
        G = build(5, [iter((2, 1, 0)), {1, 2, 3}, [4, 3, 2], (0, 1, 2)])
        assert G.edges == {(0, 1, 2), (1, 2, 3), (2, 3, 4)}
        assert G.m == 3

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

    @pytest.mark.parametrize("pair", [(0, 1.5), (1.0, 2), (0, "1"), (None, 1)])
    def test_non_integer_vertex_is_refused(self, pair):
        # A float passed the range check and read as a pair with no edge.
        with pytest.raises(InputError, match="integer vertices"):
            codegree(complete_3graph(4), *pair)

    def test_tiny_orders(self):
        assert min_codegree(build(0, [])) == 0
        assert min_codegree(build(1, [])) == 0
        assert min_codegree(complete_3graph(3)) == 1
        assert min_codegree(build(3, [])) == 0
        assert min_codegree(complete_3graph(4)) == 2
        assert min_codegree(build(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])) == 1  # pair {1, 2}: only 0

    def test_matches_every_pair(self):
        rng = random.Random(4)
        graphs = [complete_3graph(n) for n in range(2, 9)] + [construct_G0(n) for n in (8, 12, 16)]
        graphs += [random_codegree_instance(n, rng.randint(0, n // 3), rng.randrange(10**6)) for n in range(5, 30)]
        for G in graphs:
            pairs = itertools.combinations(range(G.n), 2)
            assert min_codegree(G) == min(codegree(G, u, v) for u, v in pairs)


class TestCopies:
    def test_sts_no_copies(self):
        # Two triples of a Steiner triple system share at most one vertex.
        G = steiner_triple_system(9)
        assert is_D_free(G, range(G.n))

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

    @pytest.mark.parametrize("triple", [(0, 1, 2.0), (0, 1.0, 2), (0.0, 1, 2), ("0", 1, 2), (0, 1, None)])
    def test_has_edge_refuses_a_non_integer_vertex(self, triple):
        # (0, 1, 2.0) raised a bare TypeError, and (0, 1.0, 2) answered True.
        with pytest.raises(InputError, match="has_edge needs integer vertices"):
            complete_3graph(6).has_edge(*triple)

    @pytest.mark.parametrize("v", [1.5, 1.0, "1", None])
    def test_degree_refuses_a_non_integer_vertex(self, v):
        # 1.5 answered 0, and 1.0 the degree of vertex 1.
        with pytest.raises(InputError, match="degree needs integer vertices"):
            complete_3graph(6).degree(v)

    def test_integer_like_vertices_are_read_as_their_ints(self):
        G = complete_3graph(6)
        assert G.has_edge(True, 2, operator.index(3)) and G.degree(True) == 10


@settings(max_examples=60, deadline=None)
@given(triples_strategy())
def test_edges_and_degrees_from_the_index(data):
    n, triples = data
    G = build(n, triples)
    assert G.edges == frozenset(triples) and G.m == len(G.edges)
    # Each read makes a fresh view; views of one graph are equal.
    assert G.edges is not G.edges and G.edges == G.edges
    assert list(G.edges) == sorted(set(triples))
    for v in range(n):
        assert G.degree(v) == sum(v in t for t in set(triples))
    # The edges are a set view over the index that answers as the
    # frozenset of the triples does.
    E, F = G.edges, frozenset(triples)
    assert frozenset(triples) == E and E == F and not E != F
    assert hash(E) == hash(F) and len(E) == G.m
    members = [(0, 1, 2), (2, 1, 0), (1, 0, 2), (0, 1, n), (-1, 0, 1), (0, 1), (0, 1, 2, 3),
               (0, 1, 2.0), (0.0, 1, 2), ("0", "1", "2"), [0, 1, 2], {0, 1, 2}, None, 7, "012"]
    members += list(itertools.combinations(range(n), 3))
    members += [t[::-1] for t in triples]
    for t in members:
        expected = isinstance(t, tuple) and all(type(v) is int for v in t) and t in F
        assert (t in E) is expected, t
    other = frozenset(itertools.islice(itertools.combinations(range(n), 3), 5))
    for op in (operator.or_, operator.and_, operator.sub, operator.xor):
        for got in (op(E, other), op(other, E)):
            assert type(got) is frozenset
        assert op(E, other) == op(F, other) and op(other, E) == op(other, F)


def test_edge_view_holds_no_triples_and_no_graph():
    # Reading the edges of a large graph lists no triple set, and the view
    # holds the index, not the graph, so it makes no reference cycle.
    G = planted_extremal(96)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert len(G.edges) == G.m == 83_240
        assert ((0, 1, 2) in G.edges) == G.has_edge(0, 1, 2)
        assert sum(1 for _ in G.edges) == G.m
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1_000_000
    assert not any(isinstance(r, Hypergraph3) for r in gc.get_referents(G.edges))


def index_as_sets(links):
    return {u: {v: set(bits_of(bits)) for v, bits in row.items()} for u, row in links.items()}


def reference_fault(t: tuple, n: int) -> str | None:
    """``build``'s message for the triple ``t`` of ints and floats, by the
    rules it has always applied one triple at a time: sort the vertices,
    refuse fewer or more than 3 distinct, then a vertex below 0 or at
    least n; a triple that passes both but holds a float, even one
    between n - 1 and n, is non-integer."""
    s = tuple(sorted(t))
    if len(s) != 3 or len(set(s)) != 3:
        return f"triple {s} does not have 3 distinct vertices"
    if min(s) < 0 or max(s) >= n:
        return f"triple {s} has a vertex outside 0..{n - 1}"
    if any(isinstance(v, float) for v in s):
        return f"triple {t} has a non-integer vertex"
    return None


@st.composite
def salted_triples(draw):
    """A vertex count and a list of (container, vertices) pairs: mostly
    sound triples in any vertex order, a few with a repeated vertex, a
    negative id, an id past n - 1, 2 or 4 vertices, or a float."""
    n = draw(st.integers(3, 12))
    vertex = st.integers(0, n - 1)
    sound = st.lists(vertex, min_size=3, max_size=3, unique=True)
    bad = st.one_of(
        st.tuples(vertex, vertex).map(lambda p: [p[0], p[0], p[1]]),
        st.tuples(st.integers(-3, -1), sound).map(lambda p: [p[0], *p[1][1:]]),
        st.tuples(st.integers(n, n + 3), sound).map(lambda p: [p[0], *p[1][1:]]),
        st.lists(vertex, min_size=2, max_size=2),
        st.lists(vertex, min_size=4, max_size=4),
        st.tuples(sound, st.sampled_from([0.0, 0.5, 1.0])).map(lambda p: [p[0][0] + p[1], *p[0][1:]]),
    ).flatmap(st.permutations)  # the fault at any position
    containers = st.sampled_from([tuple, list, set, iter])
    triple = st.tuples(containers, st.one_of(*[sound] * 7, bad))  # about one in eight bad
    return n, draw(st.lists(triple, max_size=20))


class TestFill:
    # n up to 80 puts third vertices past one machine word.
    @settings(max_examples=150, deadline=None)
    @given(triples_strategy(max_n=80), st.randoms(use_true_random=False))
    def test_matches_naive_pair_index(self, data, rnd):
        n, triples = data
        triples = triples + [t for t in triples if rnd.random() < 0.5]
        rnd.shuffle(triples)
        links, m, _ = _fill(n, triples)
        assert m == len(set(triples))
        assert index_as_sets(links) == naive_pair_index(triples)

    def test_ascending_report_matches_a_per_triple_check(self):
        # Lists of mixed vertex order, some with a repeated vertex: the
        # fill's one check per pair must agree with u < v < w per triple.
        for seed in range(300):
            rnd = random.Random(seed)
            n = rnd.randint(3, 40)
            misordered = rnd.choice((0.0, 0.002, 0.02, 0.2))
            triples = []
            for _ in range(rnd.randint(0, 200)):
                t = sorted(rnd.sample(range(n), 3))
                if rnd.random() < misordered:
                    t = rnd.choice((rnd.sample(t, 3), [t[0], t[0], t[2]], [t[0], t[1], t[1]]))
                triples.append(tuple(t))
            _, _, ascending = _fill(n, triples)
            assert ascending == all(u < v < w for u, v, w in triples), seed

    @settings(max_examples=100, deadline=None)
    @given(triples_strategy(max_n=80), st.randoms(use_true_random=False))
    def test_build_collapses_repeats_in_any_vertex_order(self, data, rnd):
        # build hands the triples to the fill unsorted, as tuples, lists,
        # sets or frozensets, so the fill merges both orders of each pair.
        n, triples = data
        fed = [
            rnd.choice((tuple, list, set, frozenset))(rnd.sample(t, 3))
            for t in triples + [t for t in triples if rnd.random() < 0.5]
        ]
        G = build(n, fed)
        assert G.m == len(set(triples))
        assert index_as_sets(G._links) == naive_pair_index(triples)

    @settings(max_examples=200, deadline=None)
    @given(salted_triples())
    @example((5, [(tuple, t) for t in itertools.permutations((1, 1, 2))]))
    @example((5, [(list, (3, 2, 1)), (list, (0, 4, -1))]))
    @example((5, [(tuple, (0, 1, 2)), (iter, (5, 1, 2)), (tuple, (0, 1, 2))]))
    @example((5, [(tuple, (1, 5, 2))]))
    @example((5, [(tuple, (1, 2, 5))]))
    @example((4, [(tuple, (3.5, 0, 1))]))
    def test_build_refuses_the_first_bad_triple_or_fills_as_fill_does(self, data):
        # Each triple is fed as a tuple, list, set or one-shot iterator,
        # made afresh for each call from the drawn (container, vertices).
        n, specs = data
        expected = next(filter(None, (reference_fault(tuple(make(vs)), n) for make, vs in specs)), None)
        fed = [make(vs) for make, vs in specs]
        if expected is not None:
            with pytest.raises(InputError) as refused:
                build(n, fed)
            assert str(refused.value) == expected
        else:
            G = build(n, fed)
            links, m, _ = _fill(n, [tuple(make(vs)) for make, vs in specs])
            assert (G._links, G.m) == (links, m)

    @settings(max_examples=100, deadline=None)
    @given(triples_strategy(max_n=80), st.data())
    def test_induced_subgraph_index(self, data, draw):
        n, triples = data
        S = sorted(draw.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        H, mapping = induced_subgraph(build(n, triples), S)
        local = {v: i for i, v in enumerate(S)}
        inside = {tuple(local[v] for v in t) for t in triples if set(t) <= set(S)}
        assert mapping == tuple(S) and (H.n, H.m) == (len(S), len(inside))
        assert index_as_sets(H._links) == naive_pair_index(inside)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _parse_canonical("10000 1\n0 1 9999\n"),
            lambda: _parse_lines("10000 1\n0 1 9999\n"),
            lambda: build(10_000, [(0, 1, 9_999)]),
        ],
        ids=["canonical-text", "line-reader", "build"],
    )
    def test_max_n_table_is_per_call(self, make):
        # At n = MAX_N the fill's rows and table of powers take 7.9 MB at
        # their peak (8.9 MB with the bulk reader's table of ids), and
        # nothing of them outlives the call.
        assert MAX_N == 10_000
        tracemalloc.start()
        try:
            G = make()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (G.n, G.m) == (10_000, 1) and G.has_edge(0, 1, 9_999)
        assert peak < 10_000_000 and kept < 20_000

    def test_build_ids_stop_below_max_n(self):
        # As in parsed text, so a large n does not size the table of powers.
        with pytest.raises(InputError, match=f"outside 0..{MAX_N - 1}"):
            build(MAX_N + 1, [(0, 1, MAX_N)])
        assert build(MAX_N + 1, [(0, 1, MAX_N - 1)]).m == 1


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


def reference_bits(x: int) -> list[int]:
    """``[i for i in range(x.bit_length()) if x >> i & 1]``, read one
    64-bit word at a time so that a 10^6-bit mask takes linear time."""
    words = x.to_bytes((x.bit_length() + 63) // 64 * 8, "little")
    out = []
    for j in range(0, len(words), 8):
        w = int.from_bytes(words[j : j + 8], "little")
        out.extend(8 * j + i for i in range(w.bit_length()) if w >> i & 1)
    return out


def random_mask(width: int, k: int, seed: int) -> int:
    """A ``width``-bit mask (top bit set) with ``k`` set bits, 1 <= k <= width."""
    rng = random.Random(seed)
    buf = bytearray((width + 7) // 8)
    for p in [width - 1, *rng.sample(range(width - 1), k - 1)]:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


@st.composite
def masks(draw):
    """Masks of up to 10^6 bits whose popcount is 0, 1, half or all of the
    width, or sits at or next to the bar where ``bits_of`` switches from
    the low-bit loop to reading the digits."""
    width = draw(st.one_of(st.integers(1, 256), st.integers(257, 20_000), st.integers(20_001, 10**6)))
    bar = _DIGIT_READ_MIN_BITS
    k = min(width, draw(st.sampled_from([0, 1, bar - 1, bar, bar + 1, width // 2, width])))
    return 0 if k == 0 else random_mask(width, k, draw(st.integers(0, 2**32 - 1)))


class TestBitHelpers:
    @given(st.sets(st.integers(0, 60), max_size=12))
    def test_round_trip(self, vertices):
        assert bits_of(mask_of(vertices)) == sorted(vertices)

    @settings(max_examples=60, deadline=None)
    @given(masks())
    # One set bit short of the bar (the loop) and at it (the digit read),
    # on a narrow and a wide mask; and the root of the n = 76 boundary
    # catalog's search, 38,266 live quads of 858,759.
    @example(random_mask(96, _DIGIT_READ_MIN_BITS - 1, 0))
    @example(random_mask(96, _DIGIT_READ_MIN_BITS, 0))
    @example(random_mask(10**5, _DIGIT_READ_MIN_BITS - 1, 0))
    @example(random_mask(10**5, _DIGIT_READ_MIN_BITS, 0))
    @example(random_mask(858_759, 38_266, 0))
    def test_matches_reference(self, x):
        assert bits_of(x) == reference_bits(x)

    def test_negative_mask_raises(self):
        # A child process with a timeout: a loop that never ends on a
        # negative mask fails the test instead of hanging the suite.  -1
        # has one set bit (the loop's side), -(2^100 - 1) has 100 (the
        # digit read's side).
        code = (
            "from dtiling.core import InputError, bits_of\n"
            "for x in (-1, -(2**100 - 1)):\n"
            "    try:\n"
            "        bits_of(x)\n"
            "    except InputError:\n"
            "        continue\n"
            "    raise SystemExit(f'no InputError for {x}')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code], env=env, timeout=20, check=True)


class TestTriples:
    @settings(max_examples=80, deadline=None)
    @given(triples_strategy(max_n=40))
    def test_sorted_distinct_input(self, data):
        n, triples = data
        assert list(build(n, triples).edges) == sorted(set(triples))

    @pytest.mark.parametrize(
        "n, triples",
        [
            (0, []),
            (9, []),
            (MAX_N + 5, [(0, 1, MAX_N - 1)]),
            # Every triple of 90..119: the pair rows hold 28 third vertices
            # down to 1, on both sides of the digit-read bar.
            (120, list(itertools.combinations(range(90, 120), 3))),
        ],
        ids=["n0", "no-edges", "beyond-max-n", "dense-window"],
    )
    def test_edge_cases(self, n, triples):
        assert list(build(n, triples).edges) == triples


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


@settings(max_examples=60, deadline=None)
@given(triples_strategy(), st.data())
def test_is_d_free_matches_naive(data, draw):
    n, triples = data
    G = build(n, triples)
    S = draw.draw(st.sets(st.integers(0, n - 1), max_size=n))
    assert is_D_free(G, S) == naive_is_D_free(G.edges, S)
