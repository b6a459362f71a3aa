"""Instance generators.

Covers the tight lower-bound families (a small side A whose removal
leaves a pattern-free bulk, optionally topped up with a Steiner triple
system), Steiner triple systems themselves for every admissible order,
complete graphs, and seeded random instances with a repaired minimum
codegree.

Steiner systems come from one quasigroup routine that is Bose's
construction for orders divisible by 3 and Skolem's for the rest, so no
block tables are embedded and every order m = 1, 3 (mod 6) is
available.

G0, G1, the planted instances and complete graphs are all "every triple
that meets the first a vertices" (a = n for a complete graph), with G1
adding a Steiner system on the rest.  That pair index has a closed form,
so ``_meeting_first`` writes it one pair at a time, without listing a
triple: a pair with a vertex below a completes an edge with every other
vertex, and any other pair with exactly the first a vertices.  Its edge
count is C(n, 3) - C(n - a, 3) plus the Steiner system's.

Every construction checks the edge count it would build against
``core.MAX_EDGES`` before it allocates anything: the formula above, the
m(m - 1)/6 blocks of a Steiner system, and for a random instance the
C(n, 3) triples its sampler draws for.
"""

from __future__ import annotations

import itertools
import math
import random

from .core import MAX_EDGES, MAX_N, Hypergraph3, InputError, _fill, bits_of, build


class UnsupportedOrderError(InputError):
    """Requested a design order for which no construction exists."""


KINDS = ("g0", "g1", "sts", "complete", "random", "planted")


def _check_edges(m: int, n: int) -> None:
    """Refuse to build an instance of order ``n`` that may have ``m`` >
    ``MAX_EDGES`` edges."""
    if m > MAX_EDGES:
        raise InputError(f"order {n} gives up to {m} edges; instances have at most MAX_EDGES = {MAX_EDGES}")


def steiner_triple_system(m: int) -> Hypergraph3:
    """Steiner triple system of order m (every pair in exactly one triple).

    Exists iff m = 1 or 3 (mod 6); anything else raises
    :class:`UnsupportedOrderError`.
    """
    if m < 3 or m % 6 not in (1, 3):
        raise UnsupportedOrderError(f"no Steiner triple system of order {m}")
    _check_edges(m * (m - 1) // 6, m)
    return build(m, _steiner_blocks(m))


def _steiner_blocks(m: int):
    """Blocks of the Bose (m = 3q, q odd) or Skolem (m = 3q + 1, q even)
    system on the groups {3x, 3x + 1, 3x + 2}, x in Z_q, with x o y the
    halved sum z = (x + y) mod q: z // 2, plus ceil(q / 2) when z is odd.
    An idempotent x gives its group as a block, any other x the blocks
    {inf, 3x + i, 3(x o x) + i + 1} with inf = m - 1, and each pair x < y
    the blocks {3x + i, 3y + i, 3(x o y) + i + 1}, levels i taken mod 3.
    """
    q = m // 3
    half = (q + 1) // 2

    def op(x: int, y: int) -> int:
        z = (x + y) % q
        return z // 2 + (z % 2) * half

    for x in range(q):
        if (xx := op(x, x)) == x:
            yield 3 * x, 3 * x + 1, 3 * x + 2
        else:
            for i in range(3):
                yield m - 1, 3 * x + i, 3 * xx + (i + 1) % 3
        for y in range(x + 1, q):
            xy = op(x, y)
            for i in range(3):
                yield 3 * x + i, 3 * y + i, 3 * xy + (i + 1) % 3


def _split_sizes(n: int) -> tuple[int, int]:
    if n <= 0 or n % 4:
        raise InputError(f"order must be a positive multiple of 4, got {n}")
    return n // 4 - 1, n - (n // 4 - 1)


def _meeting_edges(n: int, a: int) -> int:
    """The number of triples of 0..n-1 that meet the first ``a`` vertices."""
    return math.comb(n, 3) - math.comb(n - a, 3)


def _meeting_first(n: int, a: int, top: Hypergraph3 | None = None) -> Hypergraph3:
    """Every triple of 0..n-1 that meets the first ``a`` >= 1 vertices,
    plus the edges of ``top`` (on the same n vertices, none of them
    meeting the first ``a``), written straight into the pair index.

    One write per pair u < v: every vertex but u and v when u < a, else
    the side mask of the first ``a``, OR-ed with the pair's bitset in
    ``top``.  The edge count comes from the formula, checked against
    ``MAX_EDGES`` before any row is made.
    """
    m = _meeting_edges(n, a) + (0 if top is None else top.m)
    _check_edges(m, n)
    if n < 3:
        return Hypergraph3(n, 0, {})
    full = (1 << n) - 1
    side = (1 << a) - 1
    power = [1 << v for v in range(n)]
    lifted = {} if top is None else top._links
    rows = [{} for _ in range(n)]
    for u in range(n - 1):
        ru, extra, rest = rows[u], lifted.get(u, {}), full ^ power[u]
        for v in range(u + 1, n):
            bits = rest ^ power[v] if u < a else side
            ru[v] = rows[v][u] = bits | extra.get(v, 0)
    return Hypergraph3(n, m, dict(enumerate(rows)))


def construct_G0(n: int) -> Hypergraph3:
    """Tight non-tileable instance: all triples meeting the first n/4 - 1
    vertices; the remaining bulk induces nothing at all.

    Minimum codegree is n/4 - 1 (pairs inside the bulk see exactly the
    small side).
    """
    a, _ = _split_sizes(n)
    if a < 1:
        raise InputError(f"order {n} leaves an empty small side")
    return _meeting_first(n, a)


def construct_G1(n: int) -> Hypergraph3:
    """G0 plus a Steiner triple system on the bulk, lifting the minimum
    codegree to n/4 while staying non-tileable.

    Needs n/4 even so that the bulk order 3n/4 + 1 is 1 (mod 6).
    """
    a, b = _split_sizes(n)
    if a < 1:
        raise InputError(f"order {n} leaves an empty small side")
    if (n // 4) % 2:
        raise InputError(
            f"order {n} has odd n/4: bulk order {b} admits no Steiner system"
        )
    _check_edges(_meeting_edges(n, a) + b * (b - 1) // 6, n)
    sts = steiner_triple_system(b)
    # The Steiner system's pair index, moved onto the bulk a..n-1.
    shifted = {u + a: {v + a: bits << a for v, bits in row.items()} for u, row in sts._links.items()}
    return _meeting_first(n, a, Hypergraph3(n, sts.m, shifted))


def planted_extremal(n: int) -> Hypergraph3:
    """Perfectly tileable near-extremal instance: all triples meeting the
    first n/4 vertices; the bulk (3n/4 vertices) is pattern-free."""
    if n <= 0 or n % 4:
        raise InputError(f"order must be a positive multiple of 4, got {n}")
    return _meeting_first(n, n // 4)


def complete_3graph(n: int) -> Hypergraph3:
    if n < 0:
        raise InputError(f"order must be nonnegative, got {n}")
    return _meeting_first(n, n)


def random_codegree_instance(n: int, d: int, seed: int) -> Hypergraph3:
    """Seeded random instance with minimum codegree at least d.

    Triples are sampled i.i.d. at a rate aiming above d, then deficient
    pairs are repaired in lexicographic order by adding random third
    vertices.  Deterministic in (n, d, seed).
    """
    if n < 0:
        raise InputError(f"order must be nonnegative, got {n}")
    if d < 0 or (n >= 2 and d > n - 2):
        raise InputError(f"target codegree {d} impossible at order {n}")
    _check_edges(math.comb(n, 3), n)
    rng = random.Random(seed)
    p = 0.0 if d == 0 else min(1.0, (d + 2 * math.isqrt(d)) / max(1, n - 2))
    # The pair index is filled straight from the sample and repaired in
    # place: each pair's third vertices are already one bitset.
    links, m, _ = _fill(n, (t for t in itertools.combinations(range(n), 3) if rng.random() < p))

    def add(x: int, y: int, z: int) -> None:
        bits = links.setdefault(x, {}).get(y, 0) | (1 << z)
        links[x][y] = links.setdefault(y, {})[x] = bits

    everyone = (1 << n) - 1
    repairs = 0
    for u in range(n - 1):
        for v in range(u + 1, n):
            have = links.get(u, {}).get(v, 0)
            missing = d - have.bit_count()
            if missing <= 0:
                continue
            pool = bits_of(everyone & ~have & ~(1 << u) & ~(1 << v))
            for w in rng.sample(pool, missing):
                add(u, v, w)
                add(u, w, v)
                add(v, w, u)
                repairs += 1
    return Hypergraph3(n, m + repairs, links)


def build_instance(kind: str, n: int, seed: int = 0, d: int | None = None) -> Hypergraph3:
    """The instance of ``kind`` (one of ``KINDS``) and order ``n``, at most
    ``MAX_N``; kind ``random`` takes ``seed`` and the minimum codegree ``d``
    (n // 4 when None)."""
    if n > MAX_N:
        raise InputError(f"instances have at most {MAX_N} vertices, got n={n}")
    name = kind.lower()
    if name == "g0":
        return construct_G0(n)
    if name == "g1":
        return construct_G1(n)
    if name == "sts":
        return steiner_triple_system(n)
    if name == "complete":
        return complete_3graph(n)
    if name == "random":
        return random_codegree_instance(n, n // 4 if d is None else d, seed)
    if name == "planted":
        return planted_extremal(n)
    raise InputError(f"unknown construction kind {kind!r} (expected one of {KINDS})")
