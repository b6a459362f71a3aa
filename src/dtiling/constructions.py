"""Instance generators.

Covers the tight lower-bound families (a small side A whose removal
leaves a pattern-free bulk, optionally topped up with a Steiner triple
system), Steiner triple systems themselves for every admissible order,
complete graphs, and seeded random instances with a repaired minimum
codegree.

Steiner systems come from the two classical quasigroup constructions
(Bose for orders divisible by 3, Skolem for the rest), so no block
tables are embedded and every order m = 1, 3 (mod 6) is available.
"""

from __future__ import annotations

import itertools
import math
import random

from .core import MAX_N, Hypergraph3, InputError, _fill, bits_of, build


class UnsupportedOrderError(InputError):
    """Requested a design order for which no construction exists."""


KINDS = ("g0", "g1", "sts", "complete", "random", "planted")


def steiner_triple_system(m: int) -> Hypergraph3:
    """Steiner triple system of order m (every pair in exactly one triple).

    Exists iff m = 1 or 3 (mod 6); anything else raises
    :class:`UnsupportedOrderError`.
    """
    if m < 3 or m % 6 not in (1, 3):
        raise UnsupportedOrderError(f"no Steiner triple system of order {m}")
    if m % 6 == 3:
        return build(m, _bose_blocks(m))
    return build(m, _skolem_blocks(m))


def _bose_blocks(m: int):
    # m = 3t with t odd; idempotent commutative quasigroup on Z_t via the
    # halved sum x*y = (x+y)(t+1)/2 mod t.
    t = m // 3
    half = (t + 1) // 2

    def vid(x: int, level: int) -> int:
        return 3 * x + level

    blocks = []
    for x in range(t):
        blocks.append((vid(x, 0), vid(x, 1), vid(x, 2)))
    for x in range(t):
        for y in range(x + 1, t):
            q = ((x + y) * half) % t
            for i in range(3):
                blocks.append((vid(x, i), vid(y, i), vid(q, (i + 1) % 3)))
    return blocks


def _skolem_blocks(m: int):
    # m = 6s + 1; half-idempotent commutative quasigroup on Z_{2s}:
    # reorder the addition table of Z_{2s} so even sums land on 0..s-1.
    s = (m - 1) // 6
    t = 2 * s

    def sigma(z: int) -> int:
        return z // 2 if z % 2 == 0 else (z - 1) // 2 + s

    def vid(x: int, level: int) -> int:
        return 3 * x + level

    inf = m - 1
    blocks = []
    for x in range(s):
        blocks.append((vid(x, 0), vid(x, 1), vid(x, 2)))
    for j in range(s):
        for i in range(3):
            blocks.append((inf, vid(s + j, i), vid(j, (i + 1) % 3)))
    for x in range(t):
        for y in range(x + 1, t):
            q = sigma((x + y) % t)
            for i in range(3):
                blocks.append((vid(x, i), vid(y, i), vid(q, (i + 1) % 3)))
    return blocks


def _split_sizes(n: int) -> tuple[int, int]:
    if n <= 0 or n % 4:
        raise InputError(f"order must be a positive multiple of 4, got {n}")
    return n // 4 - 1, n - (n // 4 - 1)


def _meeting_first(n: int, a: int):
    """The triples of 0..n-1 that meet the first ``a`` vertices, streamed
    so that ``build`` never holds them all."""
    return (t for t in itertools.combinations(range(n), 3) if t[0] < a)


def construct_G0(n: int) -> Hypergraph3:
    """Tight non-tileable instance: all triples meeting the first n/4 - 1
    vertices; the remaining bulk induces nothing at all.

    Minimum codegree is n/4 - 1 (pairs inside the bulk see exactly the
    small side).
    """
    a, _ = _split_sizes(n)
    if a < 1:
        raise InputError(f"order {n} leaves an empty small side")
    return build(n, _meeting_first(n, a))


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
    sts = steiner_triple_system(b)
    top = (tuple(v + a for v in e) for e in sts.triples())
    return build(n, itertools.chain(_meeting_first(n, a), top))


def planted_extremal(n: int) -> Hypergraph3:
    """Perfectly tileable near-extremal instance: all triples meeting the
    first n/4 vertices; the bulk (3n/4 vertices) is pattern-free."""
    if n <= 0 or n % 4:
        raise InputError(f"order must be a positive multiple of 4, got {n}")
    return build(n, _meeting_first(n, n // 4))


def complete_3graph(n: int) -> Hypergraph3:
    if n < 0:
        raise InputError(f"order must be nonnegative, got {n}")
    return build(n, itertools.combinations(range(n), 3))


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
    rng = random.Random(seed)
    p = 0.0 if d == 0 else min(1.0, (d + 2 * math.isqrt(d)) / max(1, n - 2))
    # The pair index is filled straight from the sample and repaired in
    # place: each pair's third vertices are already one bitset.
    links, m = _fill(n, (t for t in itertools.combinations(range(n), 3) if rng.random() < p))

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
