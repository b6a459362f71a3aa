import hashlib
import itertools
import math
import tracemalloc

import pytest

from dtiling import (
    MAX_EDGES,
    MAX_N,
    InputError,
    UnsupportedOrderError,
    build_instance,
    codegree,
    complete_3graph,
    construct_G0,
    construct_G1,
    is_D_free,
    main,
    max_tiling_exact,
    min_codegree,
    perfect_tiling_exact,
    planted_extremal,
    random_codegree_instance,
    steiner_triple_system,
)
from dtiling.core import bits_of
from dtiling.io import format_instance

from naive import naive_pair_index


def assert_is_sts(G, m):
    assert G.n == m
    assert len(G.edges) == m * (m - 1) // 6
    for u, v in itertools.combinations(range(m), 2):
        assert codegree(G, u, v) == 1, f"pair ({u},{v}) at m={m}"


class TestSTS:
    def test_fano(self):
        assert_is_sts(steiner_triple_system(7), 7)

    def test_order_9(self):
        G = steiner_triple_system(9)
        assert len(G.edges) == 12
        assert_is_sts(G, 9)

    def test_order_5_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            steiner_triple_system(5)

    def test_order_below_3_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            steiner_triple_system(1)

    def test_all_valid_orders_to_99(self):
        for m in range(7, 100):
            if m % 6 in (1, 3):
                G = steiner_triple_system(m)
                assert_is_sts(G, m)
                assert is_D_free(G, range(m))

    def test_is_d_free_small(self):
        assert is_D_free(steiner_triple_system(13), range(13))


class TestLowerBoundConstructions:
    def test_g0_profile(self):
        G = construct_G0(8)
        assert min_codegree(G) == 1
        # B = {1..7} induces nothing
        assert all(e[0] == 0 for e in G.edges)

    def test_g1_profile(self):
        G = construct_G1(8)
        assert min_codegree(G) == 2

    def test_g1_odd_quarter_rejected(self):
        with pytest.raises(InputError):
            construct_G1(12)

    def test_g0_too_small(self):
        with pytest.raises(InputError):
            construct_G0(4)

    def test_every_copy_meets_a(self):
        for G, a in [(construct_G0(12), 2), (construct_G1(8), 1)]:
            assert is_D_free(G, range(a, G.n))

    def test_g1_max_tiling_short_of_perfect(self):
        for n in (8, 16):
            res = max_tiling_exact(construct_G1(n))
            assert res.status == "found"
            assert res.tiling.size <= n // 4 - 1


class TestPlanted:
    def test_profile_and_tileable(self):
        G = planted_extremal(8)
        assert min_codegree(G) == 2
        assert perfect_tiling_exact(G).status == "found"

    def test_b_side_is_free(self):
        G = planted_extremal(8)
        assert is_D_free(G, range(2, 8))

    def test_bad_order(self):
        with pytest.raises(InputError):
            planted_extremal(6)

    def test_tileable_through_24(self):
        for n in (12, 16, 20, 24):
            assert perfect_tiling_exact(planted_extremal(n)).status == "found"


class TestRandom:
    def test_codegree_floor(self):
        G = random_codegree_instance(40, 10, 1)
        assert min_codegree(G) >= 10

    def test_zero_target(self):
        G = random_codegree_instance(12, 0, 3)
        assert len(G.edges) == 0

    def test_deterministic(self):
        a = random_codegree_instance(20, 5, 42)
        b = random_codegree_instance(20, 5, 42)
        assert a.edges == b.edges

    def test_seed_changes_output(self):
        a = random_codegree_instance(20, 5, 1)
        b = random_codegree_instance(20, 5, 2)
        assert a.edges != b.edges

    @pytest.mark.parametrize(
        "n, d, seed, digest",
        [
            (8, 1, 0, "b5dcb907df8fd67ea4ef3c885df4de0bd481a6dce8102375f6cc7c8d5a2c0e14"),
            (20, 5, 1, "5ad1edc8c0fabc7d5d71a0214b61417fa137f9c31e34f0a6d5e09b96894ecb5c"),
            (24, 6, 12, "380b455e023a565d21d0c383be856f2e0a0f1204375bf49b21b27b6be10d00a5"),
            (48, 16, 0, "08f0ded855b510dc59826f01585b55ef2652e10534480ec0aa394399bb825f05"),
            (64, 22, 3, "813b78970f6a058e30e2e21d9357ba44cacc94a1df44247d1c4b15972c02f104"),
            (96, 32, 7, "6ef193d0244eedda97c1158cc9d7eda15cd877c2435bc5b8eda1c87a1dcb67e7"),
        ],
    )
    def test_output_pinned(self, n, d, seed, digest):
        # The instance text of seeded instances: the random draws, their
        # order and the repair pools must not move.
        text = format_instance(random_codegree_instance(n, d, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestComplete:
    def test_complete_count(self):
        assert len(complete_3graph(6).edges) == 20


class TestDispatch:
    def test_kinds_route(self):
        assert build_instance("g0", 8).n == 8
        assert build_instance("g1", 8).n == 8
        assert build_instance("sts", 9).n == 9
        assert build_instance("complete", 6).n == 6
        assert build_instance("planted", 8).n == 8

    def test_random_kind_uses_target(self):
        G = build_instance("random", 16, seed=1, d=4)
        assert min_codegree(G) >= 4

    def test_random_kind_defaults_to_a_quarter(self):
        # Without d, the random kind aims at d = n // 4, as `gen` does.
        assert build_instance("random", 20, seed=1).edges == random_codegree_instance(20, 5, 1).edges

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            build_instance("mystery", 8)

    @pytest.mark.parametrize("kind", ["g0", "g1", "sts", "complete", "random", "planted"])
    def test_order_above_max_n(self, kind):
        with pytest.raises(InputError, match=f"at most {MAX_N}"):
            build_instance(kind, MAX_N + 3)


def meeting_first_triples(n, a):
    """Every triple of 0..n-1 with a vertex below ``a``, listed from all
    C(n, 3)."""
    return [t for t in itertools.combinations(range(n), 3) if t[0] < a]


def g1_triples(n):
    a = n // 4 - 1
    sts = steiner_triple_system(n - a)
    return meeting_first_triples(n, a) + [tuple(v + a for v in t) for t in sts.edges]


# Each closed-form construction next to its triples listed by brute force.
FAMILIES = {
    "g0": (construct_G0, lambda n: meeting_first_triples(n, n // 4 - 1), range(8, 49, 4)),
    "g1": (construct_G1, g1_triples, range(8, 49, 8)),
    "planted": (planted_extremal, lambda n: meeting_first_triples(n, n // 4), range(4, 49, 4)),
    "complete": (
        complete_3graph,
        lambda n: list(itertools.combinations(range(n), 3)),
        [0, 1, 2, 3, 5, *range(4, 49, 4)],
    ),
}


class TestMeetingFirstWriter:
    @pytest.mark.parametrize(
        "kind, n", [(kind, n) for kind, (_, _, orders) in FAMILIES.items() for n in orders]
    )
    def test_pair_index_matches_brute_force(self, kind, n):
        make, triples_of, _ = FAMILIES[kind]
        G, triples = make(n), triples_of(n)
        index = {u: {v: set(bits_of(bits)) for v, bits in row.items()} for u, row in G._links.items()}
        assert index == naive_pair_index(triples)
        assert G.n == n and G.m == len(G.edges) == len(set(triples))

    @pytest.mark.parametrize(
        "make, n, digest",
        [
            (construct_G0, 52, "904203fe299dfcdc487526765c795912a43f70933c63739da9ddf1b6fc9fbdde"),
            (construct_G1, 56, "39f19db9163de87879c7ec98af3e99994ebf3418269255d7b328aa4069b50254"),
            (planted_extremal, 96, "55df3de2a20c27c3a3b0b38670532ffc497d1c4143e1ecaafe0b33ebaea2552e"),
            (complete_3graph, 24, "3ed6624e20a77f1ad8f20a8e457750f310be77fa551898cf2edef2c7671dfbc9"),
        ],
    )
    def test_instance_text_pinned(self, make, n, digest):
        # Digests of the texts built by filtering all C(n, 3) triples,
        # before the pair index was written in closed form.
        text = format_instance(make(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "m, digest",
        [
            (45, "09907fad1a00c9bb7a8c4b2764fae8545c87a41622bfe47edf074dbbb9f818e8"),  # Bose: 3 | m
            (43, "e4aaaf1099c68ee85973da89e91de8fd19eba8365bb4237e14a651834fda8a3c"),  # Skolem: m = 1 (mod 6)
        ],
    )
    def test_steiner_text_pinned(self, m, digest):
        # Digests of the texts built by the separate Bose and Skolem
        # routines, before one quasigroup routine made both.
        text = format_instance(steiner_triple_system(m))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_g0_200_header(self):
        assert format_instance(construct_G0(200)).startswith("200 750925\n")


# The largest order whose complete 3-graph is within MAX_EDGES (229).
COMPLETE_MAX = max(n for n in range(MAX_N) if math.comb(n, 3) <= MAX_EDGES)


class TestEdgeBound:
    @pytest.mark.parametrize(
        "kind, n",
        [
            ("sts", 9997),
            ("g0", 10000),
            ("g1", 10000),
            ("planted", 10000),
            ("complete", COMPLETE_MAX + 1),
            ("random", COMPLETE_MAX + 1),
        ],
    )
    def test_refused_before_anything_is_allocated(self, kind, n):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="MAX_EDGES"):
                build_instance(kind, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_sts_order_past_the_bound(self):
        # 3,463 points give 1,998,151 triples and 3,469 give 2,005,082:
        # the first admissible order past the bound is refused.
        assert 3463 * 3462 // 6 <= MAX_EDGES < 3469 * 3468 // 6
        with pytest.raises(InputError, match="order 3469 gives up to 2005082 edges"):
            steiner_triple_system(3469)

    def test_complete_at_the_bound(self):
        G = complete_3graph(COMPLETE_MAX)
        assert G.m == math.comb(COMPLETE_MAX, 3) <= MAX_EDGES
        assert G.pair_bits(0, 1).bit_count() == COMPLETE_MAX - 2

    def test_gen_exits_64(self, capsys):
        assert main(["gen", "--kind", "sts", "--n", "9997"]) == 64
        assert "MAX_EDGES" in capsys.readouterr().err
