import itertools

import pytest

from dtiling import (
    AugmentationMove,
    DCopy,
    DriverParams,
    InputError,
    Tiling,
    apply_move,
    build,
    classify_big_small,
    complete_3graph,
    steiner_triple_system,
    find_big_swap_move,
    find_grow_move,
    find_split_move,
    find_two_path,
    greedy_tiling,
    near_perfect_tiling,
    parse_instance,
    perfect_tiling_exact,
    random_codegree_instance,
    solve_driver,
    validate_tiling,
)
from dtiling import localsearch


def seed_copy(quad, ea, eb):
    ea, eb = tuple(sorted(ea)), tuple(sorted(eb))
    return DCopy(vertices=tuple(sorted(quad)), edge_a=min(ea, eb), edge_b=max(ea, eb))


class TestGreedy:
    def test_k8_maximal(self):
        G = complete_3graph(8)
        tiling = greedy_tiling(G)
        assert tiling.size == 2
        assert validate_tiling(G, tiling, require_perfect=True).ok
        assert find_grow_move(G, tiling) is None

    def test_sts_has_nothing(self):
        G = steiner_triple_system(7)
        assert greedy_tiling(G).size == 0


class TestClassify:
    def test_perfect_tiling_all_big(self):
        G = complete_3graph(8)
        split = classify_big_small(G, greedy_tiling(G))
        assert split.uncovered == frozenset()
        assert split.threshold == 0
        assert split.small == frozenset()
        assert split.big == frozenset(range(8))

    def test_k20_two_copies_all_small(self):
        G = complete_3graph(20)
        copies = [
            seed_copy((0, 1, 2, 3), (0, 1, 2), (0, 1, 3)),
            seed_copy((4, 5, 6, 7), (4, 5, 6), (4, 5, 7)),
        ]
        split = classify_big_small(G, Tiling.from_copies(copies))
        # 12 uncovered vertices: 66 available pairs per vertex, under 120
        assert split.threshold == 120
        assert split.big == frozenset()
        assert split.small == frozenset(range(8))

    def test_k28_one_copy_all_big(self):
        G = complete_3graph(28)
        split = classify_big_small(
            G, Tiling.from_copies([seed_copy((0, 1, 2, 3), (0, 1, 2), (0, 1, 3))])
        )
        assert split.threshold == 240
        assert split.big == frozenset({0, 1, 2, 3})


class TestTwoPath:
    def test_star_goes_through_center(self):
        assert find_two_path([(0, 1), (0, 2), (0, 3)], forbidden=()) == (1, 0, 2)

    def test_matching_has_none(self):
        assert find_two_path([(0, 1), (2, 3)], forbidden=()) is None

    def test_forbidden_kills_triangle(self):
        assert find_two_path([(0, 1), (0, 2), (1, 2)], forbidden={0}) is None


class TestMoves:
    def test_grow_on_k8(self):
        G = complete_3graph(8)
        tiling = Tiling.from_copies([seed_copy((0, 1, 2, 3), (0, 1, 2), (0, 1, 3))])
        move = find_grow_move(G, tiling)
        assert move is not None and move.kind == "grow"
        assert apply_move(G, tiling, move).size == 2

    def test_split_on_k28(self):
        G = complete_3graph(28)
        tiling = Tiling.from_copies([seed_copy((0, 1, 2, 3), (0, 1, 2), (0, 1, 3))])
        split = classify_big_small(G, tiling)
        move = find_split_move(G, tiling, split)
        assert move is not None and move.kind == "split"
        assert move.removed == (0,)
        assert len(move.added) == 2
        grown = apply_move(G, tiling, move)
        assert grown.size == 2
        assert validate_tiling(G, grown).ok

    def test_apply_rejects_non_growing_move(self):
        G = complete_3graph(8)
        c = seed_copy((0, 1, 2, 3), (0, 1, 2), (0, 1, 3))
        tiling = Tiling.from_copies([c])
        with pytest.raises(InputError, match="grow"):
            apply_move(G, tiling, AugmentationMove(kind="grow", removed=(0,), added=(c,)))


def big_swap_instance():
    """Two seeded copies each carrying one hub with a huge link on the
    uncovered set; a third copy hides inside the small vertices and can
    only be reached by rebuilding both elements around their hubs."""
    W = range(8, 32)
    edges = [(0, 1, 2), (0, 1, 3), (4, 5, 6), (4, 5, 7)]
    edges += [(h, a, b) for h in (0, 4) for a, b in itertools.combinations(W, 2)]
    edges += [(1, 2, 5), (1, 2, 6)]
    return build(32, edges)


class TestBigSwap:
    def test_move_rebuilds_two_elements(self):
        G = big_swap_instance()
        tiling = Tiling.from_copies(
            [
                seed_copy((0, 1, 2, 3), (0, 1, 2), (0, 1, 3)),
                seed_copy((4, 5, 6, 7), (4, 5, 6), (4, 5, 7)),
            ]
        )
        split = classify_big_small(G, tiling)
        assert split.big == frozenset({0, 4})
        assert find_grow_move(G, tiling) is None
        assert find_split_move(G, tiling, split) is None
        move = find_big_swap_move(G, tiling, split)
        assert move is not None and move.kind == "big_swap"
        assert move.removed == (0, 1)
        assert len(move.added) == 3
        grown = apply_move(G, tiling, move)
        assert grown.size == 3
        assert validate_tiling(G, grown).ok

    def test_near_perfect_takes_the_swap(self):
        result = near_perfect_tiling(big_swap_instance(), gamma=0.1)
        assert result.report["moves"]["big_swap"] == 1
        assert result.tiling.size == 3
        assert result.report["stopping_reason"] == "stalled"


class TestNearPerfect:
    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_complete_reaches_perfect(self, n):
        G = complete_3graph(n)
        result = near_perfect_tiling(G, gamma=0.1)
        assert result.report["stopping_reason"] == "perfect"
        assert result.report["leftover"] == 0
        assert validate_tiling(G, result.tiling, require_perfect=True).ok

    def test_sts_stalls_empty(self):
        result = near_perfect_tiling(steiner_triple_system(7), gamma=0.1)
        assert result.tiling.size == 0
        assert result.report["leftover"] == 7
        assert result.report["stopping_reason"] == "stalled"
        assert result.report["target_vacuous"] is True

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -2.0])
    def test_gamma_range(self, gamma):
        with pytest.raises(InputError):
            near_perfect_tiling(complete_3graph(8), gamma=gamma)

    def test_large_gamma_target_binds(self):
        result = near_perfect_tiling(complete_3graph(60), gamma=0.9)
        assert result.report["target_vacuous"] is False
        assert result.report["stopping_reason"] == "perfect"

    def test_trajectory_decreases(self):
        result = near_perfect_tiling(complete_3graph(16), gamma=0.1)
        traj = result.report["leftover_trajectory"]
        assert traj == sorted(traj, reverse=True)
        assert traj[-1] == result.report["leftover"]

    def test_random_feasible_instances_land_close(self):
        checked = 0
        for seed in range(30):
            if checked == 10:
                break
            G = random_codegree_instance(12, 4, seed=seed)
            if perfect_tiling_exact(G).status != "found":
                continue
            checked += 1
            result = near_perfect_tiling(G, gamma=0.1)
            assert validate_tiling(G, result.tiling).ok
            assert result.report["leftover"] % 4 == 0
            assert result.report["leftover"] <= 8
        assert checked == 10


# The local search's leftover on each ``dense`` benchmark instance, in
# workload order, per workload seed.
DENSE_LEFTOVERS = {
    0: [0, 0, 4, 4, 0, 0, 4, 0, 0],
    1: [0, 0, 0, 0, 0, 0, 0, 0, 0],
    2: [4, 0, 0, 4, 0, 4, 4, 4, 0],
}


@pytest.mark.parametrize("seed", sorted(DENSE_LEFTOVERS))
def test_dense_reports_stall_without_classifying(monkeypatch, benchmark_instances, seed):
    # Nothing is W-big while |W| <= 20, so a stall at leftover 4 ends the
    # search without classifying the covered vertices.
    def refuse(*args, **kwargs):
        raise AssertionError("classified big and small vertices at a small leftover")

    monkeypatch.setattr(localsearch, "classify_big_small", refuse)
    reports = [
        solve_driver(parse_instance(inst.text), DriverParams(collect_timings=False)).report["local_search"]
        for inst in benchmark_instances("dense", seed)
    ]
    assert reports == [
        {
            "moves": {"grow": 0, "split": 0, "big_swap": 0},
            "leftover_trajectory": [leftover],
            "leftover": leftover,
            "stopping_reason": "stalled" if leftover else "perfect",
            "target_leftover": 500.0,
            "target_vacuous": True,
        }
        for leftover in DENSE_LEFTOVERS[seed]
    ]
