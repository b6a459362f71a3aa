import itertools
import random
import sys

import pytest

import dtiling.core

from dtiling import (
    InputError,
    StageFailure,
    build,
    complete_3graph,
    construct_G0,
    construct_G1,
    extend_to_maximal_D_free,
    format_certificate,
    greedy_D_free_set,
    is_D_free,
    partition_XYZ,
    planted_extremal,
    run_extremal_pipeline,
    validate_tiling,
)
from dtiling.extremal import PipelineState, build_Q, build_R, build_S, build_T

from naive import naive_is_D_free


def z_full_link_edges(xs, zs):
    """Every pair of zs joined to every x: guarantees eq.-style X membership."""
    return [tuple(sorted((x, a, b))) for x in xs for a, b in itertools.combinations(zs, 2)]


class TestExtend:
    def test_planted_b_is_maximal(self):
        G = planted_extremal(8)
        assert extend_to_maximal_D_free(G, range(2, 8)) == tuple(range(2, 8))

    def test_edgeless_extends_to_all(self):
        assert extend_to_maximal_D_free(build(6, []), ()) == tuple(range(6))

    def test_k8_stops_at_three(self):
        Z = extend_to_maximal_D_free(complete_3graph(8), (0, 1, 2))
        assert len(Z) == 3

    def test_rejects_non_free_seed(self):
        with pytest.raises(InputError):
            extend_to_maximal_D_free(complete_3graph(8), (0, 1, 2, 3))


class TestGreedySet:
    def test_planted_40_recovers_b(self):
        G = planted_extremal(40)
        Z = greedy_D_free_set(G)
        assert Z == tuple(range(10, 40))
        assert is_D_free(G, Z)

    def test_always_d_free_and_maximal(self):
        for n, d, seed in [(12, 3, 0), (16, 4, 5)]:
            from dtiling import random_codegree_instance

            G = random_codegree_instance(n, d, seed)
            Z = greedy_D_free_set(G)
            assert is_D_free(G, Z)
            assert extend_to_maximal_D_free(G, Z) == Z

    def test_matches_naive_degree_order(self):
        # Insert vertices by ascending (edge degree, id), keeping each one
        # that leaves the set pattern-free, all recounted from the triples.
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(5, 12)
            triples = rng.sample(list(itertools.combinations(range(n), 3)), rng.randint(0, 3 * n))
            degree = [sum(v in t for t in triples) for v in range(n)]
            Z = []
            for v in sorted(range(n), key=lambda v: (degree[v], v)):
                if naive_is_D_free(triples, Z + [v]):
                    Z.append(v)
            assert greedy_D_free_set(build(n, triples)) == tuple(sorted(Z))


class TestPartition:
    def test_planted_8(self):
        G = planted_extremal(8)
        part = partition_XYZ(G, range(2, 8), alpha=0.3)
        assert part.x == (0, 1)
        assert part.y == ()
        assert part.z == tuple(range(2, 8))

    def test_g0_8(self):
        G = construct_G0(8)
        part = partition_XYZ(G, range(1, 8), alpha=0.3)
        assert part.x == (0,)
        assert part.y == ()

    def test_all_vertices_in_z(self):
        G = build(8, [])
        part = partition_XYZ(G, range(8), alpha=0.3)
        assert part.x == () and part.y == ()

    def test_alpha_range(self):
        G = planted_extremal(8)
        with pytest.raises(InputError):
            partition_XYZ(G, range(2, 8), alpha=1.5)

    def test_rejects_non_maximal_z(self):
        G = planted_extremal(8)
        with pytest.raises(InputError):
            partition_XYZ(G, range(3, 8), alpha=0.3)

    def test_diagnostics_emitted(self):
        part = partition_XYZ(planted_extremal(8), range(2, 8), alpha=0.3)
        names = {d["name"] for d in part.diagnostics}
        assert {"partition_size_bounds", "z_pair_x_link"} <= names


class TestPipelinePlanted:
    @pytest.mark.parametrize("n", [8, 16, 24, 40])
    def test_perfect_with_pure_t(self, n):
        G = planted_extremal(n)
        Z = tuple(range(n // 4, n))
        tiling, report = run_extremal_pipeline(G, Z)
        assert validate_tiling(G, tiling, require_perfect=True).ok
        assert report["stages"] == {
            "q": 0,
            "r": 0,
            "s": 0,
            "t": n // 4,
            "q_mode": "exact",
        }
        assert report["counts"] == {"q": 0, "ell": 0, "m": n // 4}

    def test_bookkeeping_diagnostics_pass(self):
        _, report = run_extremal_pipeline(planted_extremal(16), range(4, 16))
        by_name = {d["name"]: d for d in report["diagnostics"]}
        for key in ("stage_s_bookkeeping", "q_covers_deficit", "deficit_range", "surplus_range"):
            assert by_name[key]["ok"], key
        assert "matching_degree_condition" in by_name

    def test_deterministic(self):
        G = planted_extremal(16)
        t1, _ = run_extremal_pipeline(G, range(4, 16))
        t2, _ = run_extremal_pipeline(G, range(4, 16))
        assert t1 == t2


def r_stage_gadget():
    """n = 12 with X = {2,3} on full Z-links, Y = {0,1} both pointing at
    the same Z-triple, and bridge edges letting stage R finish whichever
    y stage Q leaves over."""
    zs = range(4, 12)
    edges = z_full_link_edges((2, 3), zs)
    edges += [(0, 4, 5), (0, 4, 6), (1, 4, 5), (1, 4, 6)]
    edges += [(0, 2, 7), (1, 2, 7)]
    return build(12, edges)


def s_stage_gadget():
    """n = 12 with X = {1,2,3}, one Y vertex: q = 1 exceeds the deficit
    ell = 0, so stage S must burn two X vertices."""
    zs = range(4, 12)
    edges = z_full_link_edges((1, 2, 3), zs)
    edges += [(0, 4, 5), (0, 4, 6)]
    return build(12, edges)


class TestStageShapes:
    def test_r_stage_copy(self):
        G = r_stage_gadget()
        Z = tuple(range(4, 12))
        tiling, report = run_extremal_pipeline(G, Z)
        assert validate_tiling(G, tiling, require_perfect=True).ok
        assert report["stages"]["q"] == 1
        assert report["stages"]["r"] == 1
        assert report["stages"]["s"] == 0
        assert report["stages"]["t"] == 1
        r_copy = next(
            c for c in tiling.copies if len(set(c.vertices) & {0, 1}) == 1 and len(set(c.vertices) & {2, 3}) == 1
        )
        assert len(set(r_copy.vertices) & set(Z)) == 2

    def test_s_stage_copy(self):
        G = s_stage_gadget()
        Z = tuple(range(4, 12))
        tiling, report = run_extremal_pipeline(G, Z)
        assert validate_tiling(G, tiling, require_perfect=True).ok
        assert report["stages"] == {"q": 1, "r": 0, "s": 1, "t": 1, "q_mode": "exact"}
        assert report["counts"] == {"q": 1, "ell": 0, "m": 1}
        s_copy = next(c for c in tiling.copies if set(c.vertices) & {1, 2, 3})
        assert len(set(s_copy.vertices) & {1, 2, 3}) == 2

    def test_r_stage_failure_names_y(self):
        zs = range(4, 12)
        edges = z_full_link_edges((2, 3), zs)
        edges += [(0, 4, 5), (0, 4, 6), (1, 4, 5), (1, 4, 6)]
        G = build(12, edges)  # no bridge edges: leftover y cannot be finished
        with pytest.raises(StageFailure) as exc:
            run_extremal_pipeline(G, tuple(range(4, 12)))
        assert exc.value.stage == "R"

    def test_s_stage_failure_on_thin_pair(self):
        zs = range(4, 12)
        edges = [e for e in z_full_link_edges((1, 2, 3), zs) if not (e[1:] == (7, 8) and e[0] in (1, 2))]
        edges += [(0, 4, 5), (0, 4, 6)]
        G = build(12, edges)
        with pytest.raises(StageFailure) as exc:
            run_extremal_pipeline(G, tuple(range(4, 12)))
        assert exc.value.stage == "S"
        assert "joint X neighbours" in str(exc.value)


class TestInfeasibleInstance:
    def test_g1_8_books_fail(self):
        G = construct_G1(8)
        with pytest.raises(StageFailure) as exc:
            run_extremal_pipeline(G, tuple(range(1, 8)))
        assert exc.value.stage == "S"
        assert "books" in str(exc.value)

    def test_pipeline_needs_divisible_order(self):
        with pytest.raises(InputError):
            run_extremal_pipeline(build(6, []), tuple(range(6)))


def relabelled_planted(n, seed):
    """planted_extremal(n) under a seeded vertex permutation, with the
    image of its pattern-free bulk."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    G = build(n, ([perm[v] for v in e] for e in planted_extremal(n).edges))
    return G, tuple(sorted(perm[v] for v in range(n // 4, n)))


def run_stages(G, Z):
    state = PipelineState(partition=partition_XYZ(G, Z, alpha=0.3))
    build_Q(G, state)
    build_R(G, state)
    build_S(G, state)
    return state, build_T(G, state)


CERT_48 = (
    "perfect 12\n"
    "0 12 24 36 | 0 12 24 | 0 12 36\n"
    "1 13 25 37 | 1 13 25 | 1 13 37\n"
    "2 14 26 38 | 2 14 26 | 2 14 38\n"
    "3 15 27 39 | 3 15 27 | 3 15 39\n"
    "4 16 28 40 | 4 16 28 | 4 16 40\n"
    "5 17 29 41 | 5 17 29 | 5 17 41\n"
    "6 18 30 42 | 6 18 30 | 6 18 42\n"
    "7 19 31 43 | 7 19 31 | 7 19 43\n"
    "8 20 32 44 | 8 20 32 | 8 20 44\n"
    "9 21 33 45 | 9 21 33 | 9 21 45\n"
    "10 22 34 46 | 10 22 34 | 10 22 46\n"
    "11 23 35 47 | 11 23 35 | 11 23 47\n"
)

T_COPIES_64 = [
    (0, 1, 24, 46), (2, 3, 25, 47), (4, 5, 26, 48), (6, 8, 30, 50),
    (7, 9, 33, 51), (10, 17, 34, 52), (11, 20, 35, 53), (12, 21, 36, 54),
    (13, 27, 37, 56), (14, 28, 38, 57), (15, 29, 39, 58), (16, 31, 40, 59),
    (18, 32, 42, 60), (19, 41, 43, 61), (22, 44, 49, 62), (23, 45, 55, 63),
]

CERT_64 = (
    "perfect 16\n"
    "0 1 24 46 | 0 1 24 | 0 1 46\n"
    "2 3 25 47 | 2 3 25 | 2 3 47\n"
    "4 5 26 48 | 4 5 26 | 4 5 48\n"
    "6 8 30 50 | 6 8 30 | 6 8 50\n"
    "7 9 33 51 | 7 9 33 | 7 9 51\n"
    "10 17 34 52 | 10 17 34 | 10 17 52\n"
    "11 20 35 53 | 11 20 35 | 11 20 53\n"
    "12 21 36 54 | 12 21 36 | 12 21 54\n"
    "13 27 37 56 | 13 27 37 | 13 27 56\n"
    "14 28 38 57 | 14 28 38 | 14 28 57\n"
    "15 29 39 58 | 15 29 39 | 15 29 58\n"
    "16 31 40 59 | 16 31 40 | 16 31 59\n"
    "18 32 42 60 | 18 32 42 | 18 32 60\n"
    "19 41 43 61 | 19 41 43 | 19 41 61\n"
    "22 44 49 62 | 22 44 49 | 22 49 62\n"
    "23 45 55 63 | 23 45 55 | 23 55 63\n"
)


class TestStageT:
    @pytest.mark.parametrize(
        "instance, t_copies, matching, cert",
        [
            (
                lambda: (planted_extremal(48), tuple(range(12, 48))),
                [(i, 12 + i, 24 + i, 36 + i) for i in range(12)],
                {"m": 12, "min_degree_part1": 1728, "min_degree_triple": 12, "lhs": 41472, "rhs": 31104.0, "nodes": 13},
                CERT_48,
            ),
            (
                lambda: relabelled_planted(64, 3),
                T_COPIES_64,
                {"m": 16, "min_degree_part1": 4096, "min_degree_triple": 16, "lhs": 131072, "rhs": 98304.0, "nodes": 17},
                CERT_64,
            ),
        ],
        ids=["planted48", "relabelled64"],
    )
    def test_golden(self, instance, t_copies, matching, cert):
        # Pinned output of the stage T matching as the edge-set
        # representation produced it: which 4-sets are matched, the degree
        # statistics, the search's node count and the certificate bytes.
        state, tiling = run_stages(*instance())
        assert [c.vertices for c in state.t_copies] == t_copies
        assert state.matching_stats == dict(matching, gamma=0.5, condition_met=True)
        assert format_certificate(tiling, "perfect") == cert

    def test_no_quad_sweep(self, monkeypatch):
        # Stage T reads its 4-partite graph off the pair index; testing the
        # m^4 transversal 4-sets one at a time is what it replaced.
        original = dtiling.core.quad_spans_D

        def refuse(G, quad):
            raise AssertionError("stage T tested a 4-set with quad_spans_D")

        for name, module in list(sys.modules.items()):
            if name == "dtiling" or name.startswith("dtiling."):
                if getattr(module, "quad_spans_D", None) is original:
                    monkeypatch.setattr(module, "quad_spans_D", refuse)
        tiling, report = run_extremal_pipeline(planted_extremal(64), range(16, 64))
        assert validate_tiling(planted_extremal(64), tiling, require_perfect=True).ok
        assert report["stages"]["t"] == 16
