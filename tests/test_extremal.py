import itertools
import random
import sys

import pytest

import dtiling.core
import dtiling.exact
import dtiling.extremal

from dtiling import (
    DriverParams,
    InputError,
    SearchBudget,
    StageFailure,
    Tiling,
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
    random_codegree_instance,
    run_extremal_pipeline,
    solve_driver,
    validate_tiling,
)
from dtiling.core import dcopy_from_quad
from dtiling.exact import EXHAUSTED
from dtiling.extremal import (
    XYZPartition,
    _one_y_catalog,
    build_Q,
    build_R,
    build_S,
    build_T,
)

from naive import naive_is_D_free, naive_max_y_packing


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

    @pytest.mark.parametrize("n", [48, 64, 80, 96])
    def test_pinned_on_relabelled_planted(self, n):
        # Recorded before the grower kept a blocked mask: the greedy set
        # is the image of the bulk under both relabellings.
        for seed in (0, 1):
            G, bulk = relabelled_planted(n, seed)
            assert greedy_D_free_set(G) == bulk

    @pytest.mark.parametrize(
        "args, Z",
        [
            ((28, 2, 28), (2, 4, 7, 11, 12, 15, 19, 25, 26, 27)),
            ((36, 3, 36), (0, 4, 6, 12, 18, 19, 23, 26, 27)),
            ((44, 3, 44), (7, 16, 17, 18, 20, 23, 37, 39, 41, 43)),
            ((52, 4, 52), (1, 2, 15, 26, 27, 35, 36, 40, 44, 47)),
            ((64, 4, 64), (3, 16, 20, 24, 32, 36, 49, 54, 57, 58)),
        ],
    )
    def test_pinned_on_random_instances(self, args, Z):
        # Recorded before the grower kept a blocked mask.
        assert greedy_D_free_set(random_codegree_instance(*args)) == Z


def random_triples(rng, n):
    pool = list(itertools.combinations(range(n), 3))
    return rng.sample(pool, rng.randint(0, min(3 * n, len(pool))))


def naive_extension(triples, n, seed):
    """``seed`` grown in id order by every vertex that keeps it
    pattern-free, each step recounted from the triples."""
    Z = sorted(seed)
    for v in range(n):
        if v not in Z and naive_is_D_free(triples, Z + [v]):
            Z.append(v)
    return tuple(sorted(Z))


def naive_is_maximal(triples, n, S):
    return naive_is_D_free(triples, S) and all(
        not naive_is_D_free(triples, list(S) + [v]) for v in range(n) if v not in S
    )


class TestGrowerMatchesNaive:
    def test_extension_of_a_random_free_seed(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(5, 12)
            triples = random_triples(rng, n)
            # a random subset of a pattern-free set is pattern-free
            free = naive_extension(triples, n, ())
            seed = [v for v in rng.sample(range(n), n) if v in free and rng.random() < 0.5]
            assert extend_to_maximal_D_free(build(n, triples), seed) == naive_extension(triples, n, seed)

    def test_partition_accepts_exactly_the_maximal_sets(self):
        rng = random.Random(13)
        verdicts = []
        for _ in range(60):
            n = rng.randint(5, 12)
            triples = random_triples(rng, n)
            G = build(n, triples)
            free = naive_extension(triples, n, rng.sample(range(n), 1))
            for S in (
                free,
                free[1:],
                tuple(sorted(set(free) | {rng.randrange(n)})),
                tuple(sorted(rng.sample(range(n), rng.randint(0, n)))),
            ):
                maximal = naive_is_maximal(triples, n, S)
                try:
                    part = partition_XYZ(G, S, alpha=0.3)
                except InputError:
                    assert not maximal
                else:
                    assert maximal and part.z == S
                verdicts.append(maximal)
        assert 0 < sum(verdicts) < len(verdicts)


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


def gadget_report(x, y, ell, yz_link, s):
    """The pinned pipeline report of the R and S gadgets: n = 12, |Z| = 8,
    Q places one copy, T one, and R or S the third."""
    matching = {"m": 1, "min_degree_part1": 1, "min_degree_triple": 1, "lhs": 2, "rhs": 1.5}
    matching.update(gamma=0.5, condition_met=True)
    return {
        "alpha": 0.3,
        "sizes": {"n": 12, "k": 3, "x": x, "y": y, "z": 8},
        "stages": {"q": 1, "r": 1 - s, "s": s, "t": 1, "q_mode": "exact"},
        "counts": {"q": 1, "ell": ell, "m": 1},
        "diagnostics": [
            {
                "name": "partition_size_bounds",
                "ok": False,
                "detail": {"x": x, "y": y, "z": 8, "k": 3.0, "eps0": 0.3**3},
            },
            {"name": "z_pair_x_link", "ok": True, "detail": {"threshold": (1 - 0.3) * x}},
            {
                "name": "q_covers_deficit",
                "ok": True,
                "detail": {"q": 1, "ell": ell, "mode": "exact", "nodes": 1},
            },
            {"name": "deficit_range", "ok": True, "detail": {"ell": ell, "k": 3}},
            *yz_link,
            {
                "name": "stage_s_bookkeeping",
                "ok": True,
                "detail": {"m": 1, "expected_m": 1, "z_left": 3, "expected_z_left": 3},
            },
            {"name": "z_remainder_ratio", "ok": False, "detail": {"z_left": 3, "z": 8}},
            {"name": "surplus_range", "ok": True, "detail": {"q": 1, "ell": ell}},
            {"name": "matching_degree_condition", "ok": True, "detail": dict(matching)},
        ],
        "matching": dict(matching, nodes=2),
    }


YZ_LINK = {"threshold": 1.4, "pairs_checked": 3}


class TestPinnedPipeline:
    # Recorded while the stages still shared a mutable pipeline state.
    # Stages Q, R and S place no copy in the benchmark workloads, so these
    # pins guard their reports and copies.
    @pytest.mark.parametrize(
        "gadget, report, cert",
        [
            (
                r_stage_gadget,
                gadget_report(2, 2, 1, [{"name": "yz_pair_x_link", "ok": False, "detail": YZ_LINK}], 0),
                "perfect 3\n0 4 5 6 | 0 4 5 | 0 4 6\n1 2 7 8 | 1 2 7 | 2 7 8\n3 9 10 11 | 3 9 10 | 3 9 11\n",
            ),
            (
                s_stage_gadget,
                gadget_report(3, 1, 0, [], 1),
                "perfect 3\n0 4 5 6 | 0 4 5 | 0 4 6\n1 2 7 8 | 1 7 8 | 2 7 8\n3 9 10 11 | 3 9 10 | 3 9 11\n",
            ),
        ],
        ids=["R", "S"],
    )
    def test_gadget_report(self, gadget, report, cert):
        tiling, got = run_extremal_pipeline(gadget(), range(4, 12))
        assert got == report
        assert [c.vertices for c in tiling.copies] == [(0, 4, 5, 6), (1, 2, 7, 8), (3, 9, 10, 11)]
        assert format_certificate(tiling, "perfect") == cert

    def test_stage_R_failure_text(self):
        G, part = many_poor_vertices()
        with pytest.raises(StageFailure) as exc:
            run_extremal_pipeline(G, part.z)
        assert str(exc.value) == "stage R: fewer than two free Z vertices for y=1"

    def test_books_failure_text(self):
        with pytest.raises(StageFailure) as exc:
            run_extremal_pipeline(construct_G1(8), range(1, 8))
        assert str(exc.value) == "stage S: books do not balance: m=1 expected 3, z remainder 7 expected 9"


def assert_canonical(G, tiling):
    for c in tiling.copies:
        assert c == dcopy_from_quad(G, c.vertices), c


class TestCanonicalWitnesses:
    # Every copy carries the witness edges dcopy_from_quad picks for its
    # 4-set, whichever stage placed it.
    @pytest.mark.parametrize("mode", ["auto", "extremal"])
    def test_driver_copies(self, mode):
        staged = 0
        graphs = [
            random_codegree_instance(n, d, seed)
            for n in range(8, 45, 4)
            for d in sorted({1, n // 4, n // 3})
            for seed in range(4)
        ]
        for G in graphs + [s_stage_gadget()]:
            res = solve_driver(G, DriverParams(mode=mode))
            if res.tiling is not None:
                assert_canonical(G, res.tiling)
                if res.report["branch"] == "extremal":
                    stages = res.report["extremal"]["stages"]
                    staged += stages["r"] + stages["s"]
        # The S gadget tiles with one stage S copy in both modes, and
        # random_codegree_instance(8, 1, 1) with one stage R copy when forced.
        assert staged > 0

    def test_gadgets(self):
        for G in (r_stage_gadget(), s_stage_gadget()):
            assert_canonical(G, run_extremal_pipeline(G, range(4, 12))[0])
            for mode in ("auto", "extremal"):
                res = solve_driver(G, DriverParams(mode=mode))
                if res.tiling is not None:
                    assert_canonical(G, res.tiling)


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


class TestInternalFaults:
    """Only a ``StageFailure`` is a stage failure; any other fault in the
    pipeline leaves the driver instead of becoming a fallback."""

    def test_invalid_tiling_raises(self, monkeypatch):
        # A stage T that places nothing leaves 48 vertices uncovered.
        monkeypatch.setattr(dtiling.extremal, "build_T", lambda G, part, free, budget: ([], {}))
        with pytest.raises(AssertionError, match="invalid tiling"):
            solve_driver(planted_extremal(48), DriverParams(mode="extremal"))

    @pytest.mark.parametrize("mode", ["auto", "extremal"])
    def test_input_error_propagates(self, monkeypatch, mode):
        def refuse(G, Z, alpha):
            raise InputError("raised inside partition_XYZ")

        monkeypatch.setattr(dtiling.extremal, "partition_XYZ", refuse)
        with pytest.raises(InputError, match="inside partition_XYZ"):
            solve_driver(planted_extremal(16), DriverParams(mode=mode))


def y_quads(G, ys, zs):
    """The 4-sets of one y and three zs inducing at least two edges, in
    lexicographic order."""
    return sorted(
        tuple(sorted((y,) + trio))
        for y in ys
        for trio in itertools.combinations(zs, 3)
        if sum(G.has_edge(*t) for t in itertools.combinations(sorted((y,) + trio), 3)) >= 2
    )


def y_quads_first_fit(G, ys, zs):
    """The 4-sets of ``y_quads``, taken first-fit."""
    used, out = set(), []
    for quad in y_quads(G, ys, zs):
        if not used & set(quad):
            out.append(quad)
            used |= set(quad)
    return out


def many_poor_vertices():
    """random_codegree_instance(28, 2, 5) around its greedy D-free set: 19
    poor vertices and 9 in Z, so X is empty."""
    G = random_codegree_instance(28, 2, 5)
    return G, partition_XYZ(G, greedy_D_free_set(G), alpha=0.3)


class TestStageQ:
    def test_matches_naive_packing(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.choice([8, 12, 16])
            G = random_codegree_instance(n, rng.randint(1, n // 4 + 1), rng.randrange(10**6))
            ys = sorted(rng.sample(range(n), rng.randint(1, min(6, n - 3))))
            rest = [v for v in range(n) if v not in ys]
            zs = sorted(rng.sample(rest, rng.randint(3, len(rest))))
            xs = tuple(v for v in rest if v not in zs)
            assert _one_y_catalog(G, ys, zs).quads == tuple(y_quads(G, ys, zs))
            res = build_Q(G, XYZPartition(z=tuple(zs), x=xs, y=tuple(ys)))
            assert res.optimal
            assert res.tiling.size == naive_max_y_packing(n, G.edges, ys, zs)
            assert validate_tiling(G, res.tiling).ok

    def test_beats_first_fit_above_twelve(self):
        # 19 poor vertices, beyond the old exact range of 12 Y vertices.
        # The per-Y first-fit used there placed 2 copies, as does the
        # lexicographic first-fit; the maximum is 3, which covers Z.
        G, part = many_poor_vertices()
        assert (len(part.x), len(part.y), len(part.z)) == (0, 19, 9)
        assert len(y_quads_first_fit(G, part.y, part.z)) == 2
        res = build_Q(G, part)
        assert [c.vertices for c in res.tiling.copies] == [(0, 5, 9, 24), (6, 7, 12, 15), (8, 13, 16, 18)]
        assert res.optimal and res.nodes == 361
        assert res.tiling.size == naive_max_y_packing(G.n, G.edges, part.y, part.z)

    def test_hitting_bound_closes_a_large_catalog_at_the_root(self):
        # One Y vertex whose link is every pair of 87 Z vertices: all
        # C(87, 3) quads hold it.  The hitting-set bound is {y}, one quad,
        # which the warm start already packs, so the maximum search ends
        # at its root.
        zs = tuple(range(1, 88))
        G = build(88, [(0, a, b) for a, b in itertools.combinations(zs, 2)])
        assert len(_one_y_catalog(G, (0,), zs).quads) == 105_995
        res = build_Q(G, XYZPartition(z=zs, x=(), y=(0,)))
        assert (res.tiling.size, res.optimal, res.nodes) == (1, True, 1)

    def test_budget_stop_keeps_the_warm_start(self):
        G, part = many_poor_vertices()
        budget = SearchBudget(node_limit=1)
        res = build_Q(G, part, budget)
        assert budget.spent and res.status == EXHAUSTED and res.nodes == 2
        assert [c.vertices for c in res.tiling.copies] == y_quads_first_fit(G, part.y, part.z)

    def test_stage_T_searches_on_what_stage_Q_spent(self):
        # Stage Q's search spends 361 nodes of the budget.  Stage T of
        # planted_extremal(32) then matches its m = 8 X vertices in m + 1
        # nodes on the same budget, and stops when the pool is one short.
        for node_limit, tiles in ((361 + 9, True), (361 + 8, False)):
            G, part = many_poor_vertices()
            budget = SearchBudget(node_limit=node_limit, time_limit=600.0)
            build_Q(G, part, budget)
            assert budget.nodes == 361
            G = planted_extremal(32)
            part = partition_XYZ(G, range(8, 32), alpha=0.3)
            assert build_Q(G, part, budget).tiling.size == 0  # Y is empty: no search
            assert budget.nodes == 361
            free = (1 << G.n) - 1
            assert build_R(G, part, free) == build_S(G, part, free, 0) == []
            if tiles:
                copies, matching = build_T(G, part, free, budget)
                assert validate_tiling(G, Tiling.from_copies(copies), require_perfect=True).ok
                assert matching["nodes"] == 9
            else:
                with pytest.raises(StageFailure, match="4-partite matching exhausted"):
                    build_T(G, part, free, budget)

    @pytest.mark.parametrize("node_limit", [1, 3])
    def test_pipeline_under_a_tiny_budget(self, node_limit):
        # Stages Q and T share the budget: each run tiles, revalidated, or
        # raises StageFailure.
        poor, part = many_poor_vertices()
        for G, Z in [(r_stage_gadget(), range(4, 12)), (s_stage_gadget(), range(4, 12)), (poor, part.z)]:
            try:
                tiling, _ = run_extremal_pipeline(G, Z, budget=SearchBudget(node_limit=node_limit))
            except StageFailure:
                continue
            assert validate_tiling(G, tiling, require_perfect=True).ok

    def test_no_catalog_without_y(self, monkeypatch):
        # With Y empty stage Q places nothing, so it builds no catalog and
        # runs no search.
        original = dtiling.exact.quad_catalog

        def refuse(*args, **kwargs):
            raise AssertionError("stage Q built a catalog or searched with Y empty")

        for name, module in list(sys.modules.items()):
            if name == "dtiling" or name.startswith("dtiling."):
                if getattr(module, "quad_catalog", None) is original:
                    monkeypatch.setattr(module, "quad_catalog", refuse)
        monkeypatch.setattr(dtiling.extremal, "_one_y_catalog", refuse)
        monkeypatch.setattr(dtiling.extremal, "_max_packing", refuse)
        G = planted_extremal(64)
        tiling, report = run_extremal_pipeline(G, range(16, 64))
        assert validate_tiling(G, tiling, require_perfect=True).ok
        assert report["stages"]["q"] == 0 and report["stages"]["q_mode"] == "exact"


def relabelled_planted(n, seed):
    """planted_extremal(n) under a seeded vertex permutation, with the
    image of its pattern-free bulk."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    G = build(n, ([perm[v] for v in e] for e in planted_extremal(n).edges))
    return G, tuple(sorted(perm[v] for v in range(n // 4, n)))


def run_stages(G, Z):
    """The pipeline's tiling and report, where stage T places every copy."""
    tiling, report = run_extremal_pipeline(G, Z)
    assert report["stages"] == {"q": 0, "r": 0, "s": 0, "t": G.n // 4, "q_mode": "exact"}
    return tiling, report


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
        tiling, report = run_stages(*instance())
        assert [c.vertices for c in tiling.copies] == t_copies
        assert report["matching"] == dict(matching, gamma=0.5, condition_met=True)
        assert format_certificate(tiling, "perfect") == cert

    def test_planted_96(self):
        # Measured with the (a, b, dmask) tuple links: one matching step
        # per X vertex along the planted diagonal.
        tiling, report = run_stages(planted_extremal(96), tuple(range(24, 96)))
        assert [c.vertices for c in tiling.copies] == [(i, 24 + i, 48 + i, 72 + i) for i in range(24)]
        stats = report["matching"]
        assert {k: stats[k] for k in ("m", "min_degree_part1", "min_degree_triple", "nodes")} == {
            "m": 24,
            "min_degree_part1": 13824,
            "min_degree_triple": 24,
            "nodes": 25,
        }

    def test_no_graph_without_budget(self, monkeypatch):
        # With the shared budget spent stage T fails before building its
        # 4-partite graph.
        def refuse(*args, **kwargs):
            raise AssertionError("stage T built its graph with no budget left")

        monkeypatch.setattr(dtiling.extremal, "four_partite_of", refuse)
        budget = SearchBudget(node_limit=1)
        budget.tick()
        with pytest.raises(StageFailure, match="the budget is already spent"):
            run_extremal_pipeline(planted_extremal(32), range(8, 32), budget=budget)

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
