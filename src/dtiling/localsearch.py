"""The near-perfect tiling of the absorption step: the greedy maximal tiling.

The search runs on a vertex mask ``within`` of G (the driver passes all
vertices outside the absorbing family) and places copies in G's own ids.
It takes the canonical-first spanning 4-set at the lowest vertex that
still owns one, until no vertex does.

Greedy is enough.  The tiling it returns is maximal: the part of
``within`` it leaves uncovered spans no copy of D.  The absorption
technique only needs the leftover to be small enough for the absorbing
family to swallow it, and when the family cannot, the driver's exact
search on the family plus the leftover, or its fallback, takes over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Hypergraph3, Tiling, bits_of, dcopy_from_quad, mask_of, vertex_mask


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


@dataclass
class LocalSearchResult:
    tiling: Tiling
    report: dict


def near_perfect_tiling(G: Hypergraph3, within: int | None = None) -> LocalSearchResult:
    """The greedy tiling of the vertex mask ``within`` (default: all of G),
    reported with the number of vertices of ``within`` it leaves uncovered."""
    within = vertex_mask(G, within)
    tiling = greedy_tiling(G, within)
    return LocalSearchResult(tiling=tiling, report={"leftover": within.bit_count() - len(tiling.covered)})
