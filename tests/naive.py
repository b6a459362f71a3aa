"""Independent brute-force oracles used to cross-validate the solvers.

Everything here recomputes from first principles: raw edge sets, subset
enumeration, and permutation search.  Nothing imports the solver modules,
so a shared bug cannot hide in both implementations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def naive_copy_pairs(edges, within=None):
    """All unordered pairs of distinct edges sharing exactly 2 vertices."""
    pool = sorted(tuple(sorted(e)) for e in edges)
    if within is not None:
        allowed = set(within)
        pool = [e for e in pool if set(e) <= allowed]
    out = []
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            if len(set(pool[i]) & set(pool[j])) == 2:
                out.append((pool[i], pool[j]))
    return out


def naive_is_D_free(edges, S) -> bool:
    return not naive_copy_pairs(edges, within=S)


def _spanning_quads(n, edges):
    """4-sets inducing at least 2 edges, recomputed by direct counting."""
    edge_set = {tuple(sorted(e)) for e in edges}
    quads = []
    for quad in itertools.combinations(range(n), 4):
        induced = sum(1 for t in itertools.combinations(quad, 3) if t in edge_set)
        if induced >= 2:
            quads.append(quad)
    return quads


def naive_perfect_partition(n, edges):
    """Exhaustive search for a partition into spanning 4-sets; the lowest
    uncovered vertex anchors each level, so each partition is visited once."""
    if n % 4:
        return None
    quads = _spanning_quads(n, edges)

    def rec(covered, chosen):
        if len(covered) == n:
            return list(chosen)
        v = min(set(range(n)) - covered)
        for q in quads:
            if v in q and not (set(q) & covered):
                found = rec(covered | set(q), chosen + [q])
                if found is not None:
                    return found
        return None

    return rec(set(), [])


def naive_max_tiling_size(n, edges) -> int:
    """Maximum number of disjoint spanning 4-sets, by memoized search over
    covered-set bitmasks (skip-or-place on the lowest free vertex)."""
    quads = _spanning_quads(n, edges)
    quad_masks = [(q, sum(1 << v for v in q)) for q in quads]
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def rec(covered: int) -> int:
        free = full & ~covered
        if not free:
            return 0
        v = (free & -free).bit_length() - 1
        best = rec(covered | (1 << v))  # leave v uncovered
        for q, mask in quad_masks:
            if v in q and not (mask & covered):
                best = max(best, 1 + rec(covered | mask))
        return best

    result = rec(0)
    rec.cache_clear()
    return result


def naive_max_D_free(n, edges):
    """Largest D-free subset by descending-size subset enumeration."""
    for size in range(n, -1, -1):
        for S in itertools.combinations(range(n), size):
            if naive_is_D_free(edges, S):
                return S
    return ()


def naive_four_partite_matching(parts, edges):
    """Brute force over all alignments of parts 2..4 against part 1."""
    p1, p2, p3, p4 = (sorted(p) for p in parts)
    edge_set = {tuple(e) for e in edges}
    for perm2 in itertools.permutations(p2):
        for perm3 in itertools.permutations(p3):
            for perm4 in itertools.permutations(p4):
                rows = list(zip(p1, perm2, perm3, perm4))
                if all(r in edge_set for r in rows):
                    return rows
    return None


def naive_parse_instance(text):
    """``(n, edges)`` of instance text, or ``ValueError``.

    The format, read straight from its definition: after dropping blank
    lines and lines whose first non-blank character is ``#``, a header
    ``n m`` with n, m >= 0, then exactly m distinct lines ``u v w`` with
    0 <= u < v < w < n.
    """
    content = [
        line.split()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not content or len(content[0]) != 2:
        raise ValueError("missing or malformed header")
    n, m = int(content[0][0]), int(content[0][1])
    if n < 0 or m < 0 or len(content) != m + 1:
        raise ValueError("bad counts")
    edges = set()
    for fields in content[1:]:
        if len(fields) != 3:
            raise ValueError("edge line needs 3 fields")
        u, v, w = (int(f) for f in fields)
        if not 0 <= u < v < w < n or (u, v, w) in edges:
            raise ValueError("bad or repeated edge")
        edges.add((u, v, w))
    return n, frozenset(edges)
