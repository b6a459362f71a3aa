"""The near-perfect tiling of the absorption step: the greedy maximal tiling.

The search runs on a vertex mask ``within`` of G and places copies in
G's own ids; the absorption branch passes all vertices outside the
absorbing family.
It takes the canonical-first spanning 4-set at the lowest vertex that
still owns one, until no vertex does: the first quad that
``core.spanning_quads_at`` yields inside the uncovered part of the mask,
the enumerator the quad catalog, the small-set search and stage Q list
theirs by.  No uncovered vertex below the current one completes a quad
with it: each found none among a superset of the uncovered vertices.

Greedy is enough.  The tiling it returns is maximal: the part of
``within`` it leaves uncovered spans no copy of D.  The absorption
technique only needs the leftover to be small enough for the absorbing
family to swallow it, and when the family cannot, the driver's catalog
search on all of G takes over.  On a small graph the driver runs the
small-set search instead, whose first descent is this greedy tiling.
"""

from __future__ import annotations

from .core import Hypergraph3, Tiling, bits_of, dcopy_from_quad, mask_of, spanning_quads_at, vertex_mask


def near_perfect_tiling(G: Hypergraph3, within: int | None = None) -> Tiling:
    """Maximal tiling of the vertex mask ``within`` (default: all of G),
    taking the canonical-first available 4-set each time.

    Each uncovered vertex, ascending, takes the first of its
    ``spanning_quads_at`` among the uncovered vertices, so no quad
    catalog is materialized.
    """
    within = vertex_mask(G, within)
    covered = 0
    copies = []
    for v in bits_of(within):
        if (covered >> v) & 1:
            continue
        quad = next(spanning_quads_at(G, v, within & ~covered), None)
        if quad is not None:
            copies.append(dcopy_from_quad(G, quad))
            covered |= mask_of(quad)
    return Tiling.from_copies(copies)
