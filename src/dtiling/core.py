"""Core 3-uniform hypergraph machinery.

Vertices are dense integers ``0..n-1``.  A hypergraph is stored as its
pair index and nothing else: each vertex maps every other vertex it
shares an edge with to the bitset (a plain Python int) of third vertices,
so codegree queries, edge tests and neighborhood intersections are single
word operations even at a few hundred vertices.  Edges as sorted triples
are derived from the index only when a caller asks for them.  ``build``
(any iterable of triples), ``io.parse_instance`` (text) and
``induced_subgraph`` all fill the index through one private filler.

The tiling pattern used throughout the package is the 3-graph on four
vertices whose two triples share exactly two vertices.  ``DCopy`` records
one placed copy of that pattern and ``Tiling`` a vertex-disjoint
collection of copies.  A 4-set of vertices spans a copy exactly when its
induced subgraph has at least two edges (any two distinct triples on four
points share two vertices).

``Hypergraph3`` is immutable after construction and safe to read from
several threads (two threads that both derive ``edges`` first build equal
sets); validation results are accumulated in throwaway ``Verdict``
values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class InputError(ValueError):
    """An operation precondition on caller-supplied input failed."""


def bits_of(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class DCopy:
    """One placed copy: 4 vertices plus the two witnessing edges.

    ``edge_a`` and ``edge_b`` are distinct sorted triples sharing exactly
    two vertices whose union is ``vertices``.
    """

    vertices: tuple[int, int, int, int]
    edge_a: tuple[int, int, int]
    edge_b: tuple[int, int, int]

    def well_formed(self) -> bool:
        va, vb = set(self.edge_a), set(self.edge_b)
        return (
            len(self.vertices) == 4
            and len(set(self.vertices)) == 4
            and tuple(sorted(self.vertices)) == self.vertices
            and len(va) == 3
            and len(vb) == 3
            and va != vb
            and len(va & vb) == 2
            and va | vb == set(self.vertices)
        )


@dataclass(frozen=True)
class Tiling:
    """A set of pairwise vertex-disjoint copies, possibly partial."""

    copies: tuple[DCopy, ...]
    covered: frozenset[int]

    @classmethod
    def from_copies(cls, copies) -> "Tiling":
        copies = tuple(sorted(copies, key=lambda c: c.vertices))
        covered = set()
        for c in copies:
            for v in c.vertices:
                if v in covered:
                    raise InputError(f"copies overlap at vertex {v}")
                covered.add(v)
        return cls(copies=copies, covered=frozenset(covered))

    @property
    def size(self) -> int:
        return len(self.copies)


@dataclass
class Verdict:
    """Validation outcome; ``ok`` iff ``violations`` is empty."""

    ok: bool = True
    violations: list[str] = field(default_factory=list)

    def add(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)


class Hypergraph3:
    """Immutable 3-uniform hypergraph stored as its pair index.

    ``n`` is the vertex count and ``m`` the edge count.  The pair index
    maps each vertex u to a dict from every other vertex v to the bitset
    of third vertices w with {u, v, w} an edge; both orders of a pair are
    stored, and a pair with no edge has no entry, so memory is O(m) and
    does not depend on ``n``.  ``edges``, the frozenset of ascending
    triples, is derived from the index on first use and cached.

    Use :func:`build` to construct one; the constructor trusts its
    arguments.
    """

    __slots__ = ("n", "m", "_links", "_edges")

    def __init__(self, n: int, m: int, links: dict):
        self.n = n
        self.m = m
        self._links = links
        self._edges = None

    @property
    def edges(self) -> frozenset:
        """All edges as ascending triples (derived once, then cached)."""
        if self._edges is None:
            self._edges = frozenset(self.triples())
        return self._edges

    def triples(self):
        """Yield every edge once as an ascending triple, in lexicographic order."""
        links = self._links
        for a in sorted(links):
            row = links[a]
            for b in sorted(row):
                if b > a:
                    for c in bits_of(row[b] >> b):
                        yield (a, b, b + c)

    def has_edge(self, u: int, v: int, w: int) -> bool:
        """Whether {u, v, w} is an edge; False for repeated vertices or
        any vertex outside ``0..n-1``."""
        return w >= 0 and (self.pair_bits(u, v) >> w) & 1 == 1

    def pair_bits(self, u: int, v: int) -> int:
        """Bitset of third vertices completing an edge with {u, v}."""
        row = self._links.get(u)
        return 0 if row is None else row.get(v, 0)

    def degree(self, v: int) -> int:
        """Number of edges containing ``v``."""
        row = self._links.get(v)
        return 0 if row is None else sum(x.bit_count() for x in row.values()) // 2

    @property
    def vertices(self) -> range:
        return range(self.n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Hypergraph3(n={self.n}, m={self.m})"


def _fill(triples, on_repeat=None) -> tuple[dict, int]:
    """Pair index of validated ascending triples ``a < b < c``, and the
    number of distinct ones.  A repeated triple is skipped, after a call
    to ``on_repeat(a, b, c)`` when that is given."""
    links: dict[int, dict[int, int]] = {}
    get = links.get
    m = 0
    for a, b, c in triples:
        ra = get(a)
        if ra is None:
            ra = links[a] = {}
        rb = get(b)
        if rb is None:
            rb = links[b] = {}
        rc = get(c)
        if rc is None:
            rc = links[c] = {}
        ab = ra.get(b, 0)
        if (ab >> c) & 1:
            if on_repeat is not None:
                on_repeat(a, b, c)
            continue
        ra[b] = rb[a] = ab | (1 << c)
        ra[c] = rc[a] = ra.get(c, 0) | (1 << b)
        rb[c] = rc[b] = rb.get(c, 0) | (1 << a)
        m += 1
    return links, m


def build(n: int, triples) -> Hypergraph3:
    """Build a hypergraph from an iterable of 3-element vertex sets.

    Duplicates collapse silently (set semantics); degenerate or
    out-of-range triples are rejected.
    """
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")

    def canonical():
        for t in triples:
            t = tuple(sorted(t))
            if len(t) != 3 or not t[0] < t[1] < t[2]:
                raise InputError(f"triple {t} does not have 3 distinct vertices")
            if t[0] < 0 or t[2] >= n:
                raise InputError(f"triple {t} has a vertex outside 0..{n - 1}")
            yield t

    links, m = _fill(canonical())
    return Hypergraph3(n, m, links)


def codegree(G: Hypergraph3, u: int, v: int) -> int:
    """Number of edges containing the pair {u, v}."""
    if u == v:
        raise InputError(f"codegree needs two distinct vertices, got {u} twice")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise InputError(f"vertex pair ({u}, {v}) out of range for n={G.n}")
    return G.pair_bits(u, v).bit_count()


def min_codegree(G: Hypergraph3) -> int:
    """Minimum codegree over all unordered pairs; 0 when n < 2."""
    if G.n < 2:
        return 0
    return min(
        G.pair_bits(u, v).bit_count()
        for u in range(G.n - 1)
        for v in range(u + 1, G.n)
    )


def link_of_vertex_on_set(G: Hypergraph3, v: int, W) -> set[tuple[int, int]]:
    """Pairs {w, w'} inside W that form an edge together with v."""
    W = set(W)
    if v in W:
        raise InputError(f"vertex {v} must not belong to the ground set")
    wmask = mask_of(W)
    link = set()
    for w in sorted(W):
        for w2 in bits_of(G.pair_bits(v, w) & wmask):
            if w2 > w:
                link.add((w, w2))
    return link


def iter_D_copies(G: Hypergraph3, within=None):
    """Yield copies in canonical order: by shared pair, then private pair.

    Each unordered pair of edges sharing exactly two vertices is yielded
    exactly once, since the shared pair of such an edge pair is unique.
    """
    if within is None:
        pool = range(G.n)
        wmask = (1 << G.n) - 1
    else:
        pool = sorted(set(within))
        wmask = mask_of(pool)
    for i, u in enumerate(pool):
        for v in pool[i + 1 :]:
            thirds = bits_of(G.pair_bits(u, v) & wmask)
            for a, b in itertools.combinations(thirds, 2):
                edge_a = tuple(sorted((u, v, a)))
                edge_b = tuple(sorted((u, v, b)))
                yield DCopy(
                    vertices=tuple(sorted((u, v, a, b))),
                    edge_a=min(edge_a, edge_b),
                    edge_b=max(edge_a, edge_b),
                )


def enumerate_D_copies(G: Hypergraph3, within=None) -> list[DCopy]:
    return list(iter_D_copies(G, within))


def quad_spans_D(G: Hypergraph3, quad) -> bool:
    """True iff the 4-set induces at least two edges."""
    hits = 0
    for t in itertools.combinations(sorted(quad), 3):
        if G.has_edge(*t):
            hits += 1
            if hits == 2:
                return True
    return False


def dcopy_from_quad(G: Hypergraph3, quad) -> DCopy:
    """Canonical witness copy on a spanning 4-set: first two induced edges."""
    quad = tuple(sorted(quad))
    present = [t for t in itertools.combinations(quad, 3) if G.has_edge(*t)]
    if len(present) < 2:
        raise InputError(f"4-set {quad} does not span a copy")
    return DCopy(vertices=quad, edge_a=present[0], edge_b=present[1])


def is_D_free(G: Hypergraph3, S) -> bool:
    """True iff the induced subgraph on S contains no copy (short-circuits)."""
    S = sorted(set(S))
    smask = mask_of(S)
    for i, u in enumerate(S):
        for v in S[i + 1 :]:
            if (G.pair_bits(u, v) & smask).bit_count() >= 2:
                return False
    return True


def validate_tiling(G: Hypergraph3, tiling: Tiling, require_perfect: bool = False) -> Verdict:
    """Check edges, disjointness and (optionally) perfection of a tiling."""
    verdict = Verdict()
    seen: dict[int, int] = {}
    for idx, c in enumerate(tiling.copies):
        for v in c.vertices:
            if not 0 <= v < G.n:
                verdict.add(f"copy {idx}: out-of-range vertex {v}")
        if not c.well_formed():
            verdict.add(f"copy {idx}: malformed copy {c.vertices}")
            continue
        for e in (c.edge_a, c.edge_b):
            if not G.has_edge(*e):
                verdict.add(f"copy {idx}: missing edge {e}")
        for v in c.vertices:
            if v in seen:
                verdict.add(f"overlap at vertex {v} between copies {seen[v]} and {idx}")
            else:
                seen[v] = idx
    claimed = set().union(*(c.vertices for c in tiling.copies)) if tiling.copies else set()
    if set(tiling.covered) != claimed:
        verdict.add("covered set inconsistent with copies")
    if require_perfect:
        if G.n % 4:
            verdict.add(f"vertex count {G.n} not divisible by 4")
        missing = G.n - len(claimed)
        if missing:
            verdict.add(f"not perfect: {missing} vertices uncovered")
    return verdict


def induced_subgraph(G: Hypergraph3, vertices) -> tuple[Hypergraph3, tuple[int, ...]]:
    """Subgraph induced on ``vertices`` plus the local-to-original map."""
    verts = sorted(set(vertices))
    if verts and (verts[0] < 0 or verts[-1] >= G.n):
        raise InputError("induced vertex set out of range")
    index = {v: i for i, v in enumerate(verts)}
    vmask = mask_of(verts)

    def local_triples():
        for i, u in enumerate(verts):
            for j in range(i + 1, len(verts)):
                v = verts[j]
                # -(2 << v) keeps the bits above v: each triple once, ascending
                for w in bits_of(G.pair_bits(u, v) & vmask & -(2 << v)):
                    yield i, j, index[w]

    links, m = _fill(local_triples())
    return Hypergraph3(len(verts), m, links), tuple(verts)


def map_copy(copy: DCopy, mapping) -> DCopy:
    """Relabel a copy through ``mapping`` (local id -> original id)."""
    ea = tuple(sorted(mapping[v] for v in copy.edge_a))
    eb = tuple(sorted(mapping[v] for v in copy.edge_b))
    return DCopy(
        vertices=tuple(sorted(mapping[v] for v in copy.vertices)),
        edge_a=min(ea, eb),
        edge_b=max(ea, eb),
    )
