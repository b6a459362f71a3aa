"""Greedy tiling plus augmentation moves toward a near-perfect tiling.

The search runs on a vertex mask ``within`` of G (the driver passes all
vertices outside the absorbing family) and places copies in G's own ids.
It starts from the canonical greedy maximal tiling and repeatedly applies
the first applicable move, each of which grows the tiling by one copy:

* grow: place a fresh copy entirely inside the uncovered set W;
* split: a placed copy holding two W-big vertices u, v is traded for two
  copies: u plus a 2-path in u's link on W, and v plus a 2-path in what
  remains of W;
* big_swap: a copy found among the W-small vertices of big-containing
  elements replaces those elements, whose big vertices each ride out on
  their own disjoint 2-path in W.

A covered vertex is W-big when its link graph on W has at least 10 * |W|
pairs.  That threshold (and the 50/gamma stopping bound) is deliberately
loose at small orders; when the stopping bound is vacuous (>= |within|) the
search simply runs until perfect, stalled, or out of budget, and the
report says so rather than claiming success.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DCopy,
    Hypergraph3,
    InputError,
    Tiling,
    bits_of,
    dcopy_from_quad,
    iter_D_copies,
    link_of_vertex_on_set,
    mask_of,
    validate_tiling,
    vertex_mask,
)

BIG_LINK_FACTOR = 10


@dataclass(frozen=True)
class BigSmallSplit:
    uncovered: frozenset[int]
    big: frozenset[int]
    small: frozenset[int]
    threshold: int


@dataclass(frozen=True)
class AugmentationMove:
    kind: str  # grow / split / big_swap
    removed: tuple[int, ...]  # indices into the current tiling's copies
    added: tuple[DCopy, ...]


def classify_big_small(G: Hypergraph3, tiling: Tiling, within: int | None = None) -> BigSmallSplit:
    """Split covered vertices by link size on the uncovered part of ``within``."""
    wmask = vertex_mask(G, within) & ~mask_of(tiling.covered)
    uncovered = bits_of(wmask)
    threshold = BIG_LINK_FACTOR * len(uncovered)
    big, small = [], []
    for v in sorted(tiling.covered):
        pairs = sum((G.pair_bits(v, w) & wmask).bit_count() for w in uncovered) // 2
        (big if pairs >= threshold else small).append(v)
    return BigSmallSplit(
        uncovered=frozenset(uncovered),
        big=frozenset(big),
        small=frozenset(small),
        threshold=threshold,
    )


def find_two_path(link_pairs, forbidden) -> tuple[int, int, int] | None:
    """Lexicographically-first path w1-c-w3 in a pair graph, avoiding
    forbidden vertices; returns (w1, c, w3) or None."""
    forbidden = set(forbidden)
    adj: dict[int, set[int]] = {}
    for a, b in link_pairs:
        if a in forbidden or b in forbidden:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for center in sorted(adj):
        nbrs = sorted(adj[center])
        if len(nbrs) >= 2:
            return (nbrs[0], center, nbrs[1])
    return None


def _copy_from_hub_path(hub: int, path: tuple[int, int, int]) -> DCopy:
    w1, c, w3 = path
    ea = tuple(sorted((hub, w1, c)))
    eb = tuple(sorted((hub, c, w3)))
    return DCopy(
        vertices=tuple(sorted((hub, w1, c, w3))),
        edge_a=min(ea, eb),
        edge_b=max(ea, eb),
    )


def greedy_tiling(G: Hypergraph3, within: int | None = None) -> Tiling:
    """Maximal tiling of ``within`` taking the canonical-first available 4-set each time.

    The lowest uncovered vertex owning a spanning 4-set is found by
    scanning candidate triples in ascending order, so no quad catalog is
    materialized.
    """
    within = vertex_mask(G, within)
    covered = 0
    copies = []
    for v in bits_of(within):
        if (covered >> v) & 1:
            continue
        quad = _first_quad_at(G, v, within & ~covered)
        if quad is not None:
            copies.append(dcopy_from_quad(G, quad))
            covered |= mask_of(quad)
    return Tiling.from_copies(copies)


def _first_quad_at(G: Hypergraph3, v: int, free: int) -> tuple | None:
    """Lexicographically smallest spanning 4-set inside ``free`` with minimum v."""
    above_v = free & ~((1 << (v + 1)) - 1)
    for a in bits_of(above_v):
        above_a = above_v & ~((1 << (a + 1)) - 1)
        for b in bits_of(above_a):
            nva, nvb, nab = G.pair_bits(v, a), G.pair_bits(v, b), G.pair_bits(a, b)
            if (nab >> v) & 1:  # {v,a,b} is an edge: any second edge works
                cands = nva | nvb | nab
            else:  # need two edges among the three triples through c
                cands = (nva & nvb) | (nva & nab) | (nvb & nab)
            cands &= above_a & ~((1 << (b + 1)) - 1)
            if cands:
                c = (cands & -cands).bit_length() - 1
                return (v, a, b, c)
    return None


def find_grow_move(G: Hypergraph3, tiling: Tiling, within: int | None = None) -> AugmentationMove | None:
    uncovered = bits_of(vertex_mask(G, within) & ~mask_of(tiling.covered))
    for copy in iter_D_copies(G, within=uncovered):
        return AugmentationMove(kind="grow", removed=(), added=(copy,))
    return None


def find_split_move(
    G: Hypergraph3, tiling: Tiling, split: BigSmallSplit
) -> AugmentationMove | None:
    W = sorted(split.uncovered)
    if len(W) < 6:
        return None
    for idx, copy in enumerate(tiling.copies):
        bigs = sorted(set(copy.vertices) & split.big)
        if len(bigs) < 2:
            continue
        for i, u in enumerate(bigs):
            link_u = link_of_vertex_on_set(G, u, W)
            path_u = find_two_path(link_u, forbidden=())
            if path_u is None:
                continue
            for v in bigs[i + 1 :]:
                link_v = link_of_vertex_on_set(G, v, W)
                remaining = [p for p in link_v if not set(p) & set(path_u)]
                path_v = find_two_path(link_v, forbidden=set(path_u))
                if path_v is None and len(remaining) > len(W) / 2:
                    # Pigeonhole: more than |W|/2 surviving pairs cannot
                    # form a perfect matching on W, so a 2-path exists.
                    raise AssertionError("guaranteed 2-path missing")
                if path_v is None:
                    continue
                return AugmentationMove(
                    kind="split",
                    removed=(idx,),
                    added=(_copy_from_hub_path(u, path_u), _copy_from_hub_path(v, path_v)),
                )
    return None


def find_big_swap_move(
    G: Hypergraph3, tiling: Tiling, split: BigSmallSplit
) -> AugmentationMove | None:
    W = sorted(split.uncovered)
    element_of = {}
    for idx, copy in enumerate(tiling.copies):
        for v in copy.vertices:
            element_of[v] = idx
    big_elements = {idx for idx, c in enumerate(tiling.copies) if set(c.vertices) & split.big}
    pool = sorted(
        v
        for idx in big_elements
        for v in tiling.copies[idx].vertices
        if v in split.small
    )
    for copy in iter_D_copies(G, within=pool):
        hubs = sorted(
            {
                min(set(tiling.copies[element_of[v]].vertices) & split.big)
                for v in copy.vertices
            }
        )
        if len(hubs) < 2:
            continue
        used: set[int] = set()
        paths = []
        for hub in hubs:
            link = link_of_vertex_on_set(G, hub, W)
            path = find_two_path(link, forbidden=used)
            if path is None:
                break
            paths.append((hub, path))
            used |= set(path)
        if len(paths) < len(hubs):
            continue
        removed = tuple(sorted({element_of[v] for v in copy.vertices}))
        added = (copy,) + tuple(_copy_from_hub_path(h, p) for h, p in paths)
        return AugmentationMove(kind="big_swap", removed=removed, added=added)
    return None


def apply_move(G: Hypergraph3, tiling: Tiling, move: AugmentationMove) -> Tiling:
    kept = [c for i, c in enumerate(tiling.copies) if i not in set(move.removed)]
    new = Tiling.from_copies(kept + list(move.added))
    if new.size != tiling.size + 1:
        raise InputError(f"move {move.kind} does not grow the tiling by one")
    verdict = validate_tiling(G, new)
    if not verdict.ok:
        raise InputError(f"move {move.kind} broke the tiling: {verdict.violations}")
    return new


@dataclass
class LocalSearchResult:
    tiling: Tiling
    report: dict


def near_perfect_tiling(G: Hypergraph3, gamma: float, within: int | None = None) -> LocalSearchResult:
    """Greedy start on the vertex mask ``within`` (default: all of G), then
    grow > split > big_swap until the leftover target 50/gamma is met, no
    move applies, or one move per vertex of ``within`` has been spent."""
    if not 0 < gamma < 1:
        raise InputError(f"gamma must lie in (0, 1), got {gamma}")
    within = vertex_mask(G, within)
    size = within.bit_count()
    threshold = 50.0 / gamma
    vacuous = threshold >= size
    tiling = greedy_tiling(G, within)
    trajectory = [size - len(tiling.covered)]
    moves = {"grow": 0, "split": 0, "big_swap": 0}
    while True:
        leftover = size - len(tiling.covered)
        if leftover == 0:
            reason = "perfect"
            break
        if not vacuous and leftover <= threshold:
            reason = "reached_target"
            break
        if sum(moves.values()) >= size:
            reason = "budget"
            break
        move = find_grow_move(G, tiling, within)
        # A W-big vertex needs BIG_LINK_FACTOR * |W| link pairs among the
        # C(|W|, 2) pairs of W, so while |W| <= 2 * BIG_LINK_FACTOR no
        # vertex is big and neither move below can apply.
        if move is None and leftover > 2 * BIG_LINK_FACTOR:
            split = classify_big_small(G, tiling, within)
            move = find_split_move(G, tiling, split)
            if move is None:
                move = find_big_swap_move(G, tiling, split)
        if move is None:
            reason = "stalled"
            break
        tiling = apply_move(G, tiling, move)
        moves[move.kind] += 1
        trajectory.append(size - len(tiling.covered))
    report = {
        "moves": moves,
        "leftover_trajectory": trajectory,
        "leftover": trajectory[-1],
        "stopping_reason": reason,
        "target_leftover": threshold,
        "target_vacuous": vacuous,
    }
    return LocalSearchResult(tiling=tiling, report=report)
