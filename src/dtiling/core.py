"""Core 3-uniform hypergraph machinery.

Vertices are dense integers ``0..n-1``.  A hypergraph is stored as its
pair index and nothing else: each vertex maps every other vertex it
shares an edge with to the bitset (a plain Python int) of third vertices,
so codegree queries, edge tests and neighborhood intersections are single
word operations even at a few hundred vertices.  ``G.edges`` is a
read-only set view over the index, not a stored set: it iterates the
ascending triples in lexicographic order, answers membership with one
bit test, and holds the index rather than the graph.
``io.parse_instance`` (text), ``induced_subgraph`` and
``random_codegree_instance`` fill the index through one private filler,
``_fill(n, triples)``: each caller knows the vertex count, and the
filler's scatter loop collects each pair's third vertices as their
powers of two, read from a table of the n powers that lives only for
that call, which ``_reduce`` sums into the pair's bitset.  ``build`` (any
iterable of triples) has its own scatter loop, which checks each triple
as it scatters it, and shares ``_reduce``.

Set bits come out in C where there are many.  ``bits_of`` and the pair
walk ``_pair_thirds``, which ``G.edges`` and ``io.format_instance``
share, turn a bitset with at least
``_DIGIT_READ_MIN_BITS`` set bits into one 0/1 byte per binary digit
(``_bit_flags``) and list the set positions with ``itertools.compress``;
a sparser bitset keeps the loop that clears its lowest set bit once per
bit, which is the faster of the two there.

The tiling pattern used throughout the package is the 3-graph on four
vertices whose two triples share exactly two vertices.  ``DCopy`` records
one placed copy of that pattern and ``Tiling`` a vertex-disjoint
collection of copies.  A 4-set of vertices spans a copy exactly when its
induced subgraph has at least two edges (any two distinct triples on four
points share two vertices); ``spanning_quads_at`` lists such 4-sets
through one vertex at a time.

``Hypergraph3`` is immutable after construction and safe to read from
several threads; each read of ``edges`` makes a fresh view, and views of
one graph are equal.  Validation results are accumulated in throwaway
``Verdict`` values.

Every record of the package is a ``namedtuple`` subclass with
``__slots__ = ()``: its fields never change, it compares and hashes on
all of them (a list or dict field makes it unhashable), and it equals
any tuple of the same values.  A fresh list or dict default comes from
its own ``__new__``.  The one mutable object is ``exact.SearchBudget``.
Named tuples, not ``dataclasses`` (which imports ``inspect``), keep
``import dtiling`` at a few milliseconds.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict, namedtuple
from collections.abc import Set
from itertools import compress, count


# Largest vertex count the solver takes.  The driver scans all n(n-1)/2
# pairs and works on n-bit masks, so a header n far above any instance it
# can solve would run without bound; parsing rejects a vertex id this
# large before it becomes a bit, and ``cli.solve_driver`` rejects such n.
MAX_N = 10_000

# Largest edge count an instance may have.  The constructions check the
# count they would build before they allocate anything, and both instance
# readers check the header m, so an oversized instance is an input error
# (exit 64) rather than a process killed for lack of memory: below
# MAX_N, a Steiner triple system of order 9,997 has 16.6 M triples, and
# G0(10,000) 96 billion edges on 50 M pairs.  Near the bound, the
# complete 3-graph on 228 vertices (1.95 M edges) formats to 21 MB of
# text, which parses in 2 s at a peak RSS of 175 MB (2-vCPU Xeon,
# Python 3.11).
MAX_EDGES = 2_000_000


class InputError(ValueError):
    """An operation precondition on caller-supplied input failed."""


# ``bits_of`` and ``_pair_thirds`` read a mask's binary digits once it has
# this many set bits, and clear its lowest set bit once per bit below
# that.  Timed on the masks the benchmark workloads list (vertex masks
# and pair rows of up to 96 bits, catalog masks of 500-1,500 bits), the
# total is flat within a few percent for bars from 6 to 14 and grows
# outside: 5-8% more at 4, 13-24% more at 24-32 on the dense workloads.
_DIGIT_READ_MIN_BITS = 12

_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_flags(mask: int) -> bytes:
    """One byte per binary digit of the nonnegative ``mask``, lowest
    first: 1 where the bit is set, 0 elsewhere.  ``compress`` over these
    flags lists the set bits in C."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)


def bits_of(mask: int) -> list[int]:
    """Indices of the set bits of the nonnegative ``mask``, ascending.

    A mask with many set bits is read off its binary digits in C
    (``_bit_flags``).  A sparse one keeps the loop that clears its lowest
    set bit once per bit, which is faster there however wide the mask.
    """
    if mask < 0:
        raise InputError("bits_of takes a nonnegative mask")
    if mask.bit_count() >= _DIGIT_READ_MIN_BITS:
        return list(compress(count(), _bit_flags(mask)))
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


def vertex_mask(G: Hypergraph3, within: int | None) -> int:
    """The vertex bitmask ``within``, or all of G when it is None."""
    if within is None:
        return (1 << G.n) - 1
    if within < 0 or within >> G.n:
        raise InputError(f"mask {within:#x} names vertices outside 0..{G.n - 1}")
    return within


class DCopy(namedtuple("DCopy", "vertices edge_a edge_b")):
    """One placed copy: 4 vertices plus the two witnessing edges.

    ``vertices`` is a sorted 4-tuple; ``edge_a`` and ``edge_b`` are
    distinct sorted triples sharing exactly two vertices whose union is
    ``vertices``.
    """

    __slots__ = ()

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


class Tiling(namedtuple("Tiling", "copies covered")):
    """A set of pairwise vertex-disjoint copies, possibly partial:
    ``copies`` is a tuple of ``DCopy`` and ``covered`` the frozenset of
    their vertices."""

    __slots__ = ()

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


class Verdict(namedtuple("Verdict", "violations")):
    """Validation outcome; ``ok`` iff ``violations`` is empty."""

    __slots__ = ()

    def __new__(cls, violations: list[str] | None = None):
        return super().__new__(cls, [] if violations is None else violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


class Hypergraph3:
    """Immutable 3-uniform hypergraph stored as its pair index.

    ``n`` is the vertex count and ``m`` the edge count.  The pair index
    maps each vertex u to a dict from every other vertex v to the bitset
    of third vertices w with {u, v, w} an edge; both orders of a pair are
    stored, and a pair with no edge has no entry, so memory is O(m) and
    does not depend on ``n``.  ``edges`` is a read-only set view of the
    ascending triples over that index; it stores no triple.

    Use :func:`build` to construct one; the constructor trusts its
    arguments.
    """

    __slots__ = ("n", "m", "_links")

    def __init__(self, n: int, m: int, links: dict):
        self.n = n
        self.m = m
        self._links = links

    @property
    def edges(self) -> _EdgeView:
        """All edges as ascending triples: a fresh set view over the pair
        index, which holds no triple."""
        return _EdgeView(self._links, self.n, self.m)

    def has_edge(self, u: int, v: int, w: int) -> bool:
        """Whether {u, v, w} is an edge; False for repeated vertices or
        any vertex outside ``0..n-1``.  A non-integer vertex is an
        ``InputError``."""
        if not type(u) is type(v) is type(w) is int:  # the common case pays no conversion
            u, v, w = _integers("has_edge", u, v, w)
        return w >= 0 and (self.pair_bits(u, v) >> w) & 1 == 1

    def pair_bits(self, u: int, v: int) -> int:
        """Bitset of third vertices completing an edge with {u, v}.  The
        searches' hot accessor: it trusts its vertices to be integers."""
        row = self._links.get(u)
        return 0 if row is None else row.get(v, 0)

    def degree(self, v: int) -> int:
        """Number of edges containing the integer vertex ``v``."""
        (v,) = _integers("degree", v)
        row = self._links.get(v)
        return 0 if row is None else sum(map(int.bit_count, row.values())) // 2

    def __repr__(self) -> str:  # pragma: no cover
        return f"Hypergraph3(n={self.n}, m={self.m})"


class _EdgeView(Set):
    """The edges of a ``Hypergraph3`` as a read-only set of ascending
    triples, read from its pair index.

    Iteration is the lexicographic pair walk ``_pair_thirds``, the length
    is m, and membership is one bit test: a member that is not a tuple of three
    ascending ints is not an edge, and no member makes the test raise.
    Set operations (``|``, ``&``, ``-``, ``^``) give frozensets, and the
    hash and equality are a frozenset's of the same triples.  The view
    holds the index, not the graph, so reading ``G.edges`` makes no
    reference cycle and a graph is freed as soon as its last reference
    goes.
    """

    __slots__ = ("_links", "_n", "_m")

    def __init__(self, links: dict, n: int, m: int):
        self._links = links
        self._n = n
        self._m = m

    def __len__(self) -> int:
        return self._m

    def __iter__(self):
        for a, b, thirds in _pair_thirds(self._links, range(self._n)):
            for c in thirds:
                yield a, b, c

    def __contains__(self, t) -> bool:
        if not (isinstance(t, tuple) and len(t) == 3):
            return False
        a, b, c = t
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int) and 0 <= a < b < c):
            return False
        row = self._links.get(a)
        return row is not None and (row.get(b, 0) >> c) & 1 == 1

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    __hash__ = Set._hash

    def __repr__(self) -> str:  # pragma: no cover
        return f"_EdgeView(n={self._n}, m={self._m})"


def _pair_thirds(links: dict, labels):
    """Yield ``(a, b, thirds)`` for each pair a < b of the pair index
    ``links`` with an edge {a, b, c}, c > b, in lexicographic order;
    ``thirds`` iterates over ``labels[c]`` for those c, ascending.  Like
    ``bits_of``, a row with many third vertices is read off its binary
    digits and a sparse one by the low-bit loop."""
    for a in sorted(links):
        row = links[a]
        for b in sorted(row):
            if b > a and (above := row[b] >> (b + 1)):
                if above.bit_count() >= _DIGIT_READ_MIN_BITS:
                    yield a, b, compress(labels[b + 1 :], _bit_flags(above))
                    continue
                thirds = []
                while above:
                    low = above & -above
                    thirds.append(labels[b + low.bit_length()])
                    above ^= low
                yield a, b, thirds


def _fill(n: int, triples) -> tuple[dict, int, bool]:
    """Pair index of triples of three distinct vertices of ``0..n-1``,
    each in any vertex order, given in any order and possibly repeated,
    the number of distinct ones, and whether every triple named its
    vertices in ascending order.

    Each pair's third vertices are collected as their powers of two, read
    from a table of the n powers built for this call (n²/16 bytes, 6 MB
    at ``MAX_N``, so callers keep n at most that), in one list per
    ordered pair (a, b) as the triples name it and one row of lists per
    vertex; ``_reduce`` then turns the rows into the index.  This scatter
    loop trusts its triples: ``build`` runs its own copy of it that
    checks each triple as it arrives, so the readers and
    ``induced_subgraph``, whose triples are already sound, pay no check.
    A repeated vertex, as in (0, 0, 1), reaches this loop only from the
    bulk reader, which drops the index and count when the order report
    is False.
    """
    power = [1 << i for i in range(n)]
    # thirds[x][y]: 2**z for the third vertex z of each triple naming x before y
    thirds = [defaultdict(list) for _ in range(n)]
    for a, b, c in triples:
        ra = thirds[a]
        ra[b].append(power[c])
        ra[c].append(power[b])
        thirds[b][c].append(power[a])
    return _reduce(thirds)


def _reduce(thirds: list) -> tuple[dict, int, bool]:
    """The pair index, distinct triple count and order report of the
    rows of power lists that a scatter loop (``_fill``'s or ``build``'s)
    made.

    Each list becomes its bitset in one C-level ``sum`` and is stored
    under both orders of the pair.  A repeated entry carries, leaving
    fewer set bits than entries, and only then is the sum redone over the
    distinct entries.  Only a triple not in ascending order makes an
    entry b < a in row a; its bitset is OR-ed into what row b stored for
    the pair, so ascending triples pay one comparison per pair and none
    pays a sort.  Each distinct triple sets one bit in each of its three
    pairs, so the distinct count is a third of all set bits.

    The same comparison, as b <= a, gives the order report: a triple
    (a, b, c) makes the entries b and c of row a and c of row b, all
    above their rows exactly when a < b < c, so every entry is above its
    row exactly when every triple is ascending.  A repeated vertex makes
    an entry equal to its row and so reports False too; the index and
    count are then meaningless.
    """
    links: dict[int, dict[int, int]] = {}
    row_of = links.setdefault
    set_bits = 0
    ascending = True
    for a, row in enumerate(thirds):
        if not row:
            continue
        ra = row_of(a, {})
        for b, cs in row.items():
            bits = sum(cs)
            if bits.bit_count() < len(cs):  # a repeated third vertex carried
                bits = sum(set(cs))
            if b <= a:  # an entry not above its row: some triple was not ascending
                ascending = False
                if stored := ra.get(b):  # row b stored the pair's other order
                    set_bits -= stored.bit_count()
                    bits |= stored
            ra[b] = row_of(b, {})[a] = bits
            set_bits += bits.bit_count()
    return links, set_bits // 3, ascending


def build(n: int, triples) -> Hypergraph3:
    """Build a hypergraph from an iterable of 3-element vertex sets.

    Duplicates collapse silently (set semantics); members that are not
    iterable, degenerate, out-of-range or non-integer triples, and more
    than ``MAX_EDGES`` triples (duplicates counted), are rejected.  As in
    parsed text, vertex ids stop below ``MAX_N`` even when n is larger,
    which bounds the table of powers.

    Each triple is checked inside its own scatter step, a copy of
    ``_fill``'s loop, and the rows go to the shared ``_reduce``.  A
    negative or repeated vertex fails one comparison, and an id past the
    rows or the table of powers fails the lookup itself, so a sound
    triple pays three comparisons and no pass of its own.  Only a triple
    that fails goes to ``_triple_fault``, which names it, and the stream
    is read no further than that triple, or than one past ``MAX_EDGES``.
    """
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    top = min(n, MAX_N)
    power = [1 << i for i in range(top)]
    thirds = [defaultdict(list) for _ in range(top)]
    it = iter(triples)
    t = []  # what _triple_fault reads as no fault, should the stream fail first
    try:
        for t in itertools.islice(it, MAX_EDGES):
            # tuple() keeps a one-shot triple's vertices for the message and
            # returns a tuple triple itself; when it fails, t stays the member.
            t = tuple(t)
            a, b, c = t
            if (a | b | c) < 0 or a == b or a == c or b == c:
                raise ValueError  # named below
            ra = thirds[a]
            ra[b].append(power[c])
            ra[c].append(power[b])
            thirds[b][c].append(power[a])
    except (TypeError, ValueError, IndexError):
        fault = _triple_fault(t, top)
        if fault is None:  # t is sound and scattered, or the stream itself failed
            raise
        raise InputError(fault) from None
    for _ in it:
        raise InputError(f"more than {MAX_EDGES} triples given; instances have at most MAX_EDGES = {MAX_EDGES}")
    links, m, _ = _reduce(thirds)
    return Hypergraph3(n, m, links)


def _triple_fault(t: tuple, n: int) -> str | None:
    """The message that refuses ``t`` in ``build``, naming it in sorted
    order where its vertices compare, or None when it is three distinct
    integer vertices of ``0..n-1``, or a member that is iterable but
    failed while ``tuple`` read it."""
    if not isinstance(t, tuple):
        try:
            iter(t)
        except TypeError:
            return f"triple {t!r} is not an iterable of vertices"
        return None
    try:
        s = tuple(sorted(t))
        if len(s) != 3 or not s[0] < s[1] < s[2]:
            return f"triple {s} does not have 3 distinct vertices"
        if s[0] < 0 or s[2] >= n:
            return f"triple {s} has a vertex outside 0..{n - 1}"
        for v in s:
            operator.index(v)
    except TypeError:
        return f"triple {t} has a non-integer vertex"
    return None


def _integers(reader: str, *vertices) -> tuple[int, ...]:
    """The ``vertices`` as ints; ``InputError`` naming ``reader`` if not."""
    try:
        return tuple(map(operator.index, vertices))
    except TypeError:
        raise InputError(f"{reader} needs integer vertices, got {', '.join(map(repr, vertices))}") from None


def codegree(G: Hypergraph3, u: int, v: int) -> int:
    """Number of edges containing the pair {u, v} of integer vertices."""
    u, v = _integers("codegree", u, v)
    if u == v:
        raise InputError(f"codegree needs two distinct vertices, got {u} twice")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise InputError(f"vertex pair ({u}, {v}) out of range for n={G.n}")
    return G.pair_bits(u, v).bit_count()


def min_codegree(G: Hypergraph3) -> int:
    """Minimum codegree over all unordered pairs; 0 when n < 2."""
    # A pair with no edge has no entry, so unless all n rows hold all
    # n - 1 partners some codegree is 0.
    rows = G._links.values()
    if G.n < 2 or len(rows) < G.n or any(len(row) < G.n - 1 for row in rows):
        return 0
    return min(min(map(int.bit_count, row.values())) for row in rows)


def quad_spans_D(G: Hypergraph3, quad) -> bool:
    """True iff the 4-set induces at least two edges."""
    hits = 0
    for t in itertools.combinations(sorted(quad), 3):
        if G.has_edge(*t):
            hits += 1
            if hits == 2:
                return True
    return False


def spanning_quads_at(G: Hypergraph3, v: int, free: int):
    """Yield the spanning 4-sets ``(v, a, b, c)`` through v with a < b < c
    in the vertex mask ``free`` (v itself left out), in lexicographic
    order of (a, b, c).

    The c of one (a, b) are one word operation on the pair bitsets: with
    vab an edge one more of vac, vbc, abc suffices, else two of them.  The
    quad catalog, the small-set search, the greedy tiling and stage Q all
    list their 4-sets here; a caller that wants v lowest passes only the
    vertices above it.
    """
    links = G._links
    rv = links.get(v)
    if rv is None:
        return
    free &= ~(1 << v)
    others = bits_of(free)
    for i, a in enumerate(others):
        ra = links.get(a)
        if ra is None:
            continue
        va = rv.get(a, 0)
        for b in others[i + 1 :]:
            vb, ab = rv.get(b, 0), ra.get(b, 0)
            thirds = (va | vb | ab) if (va >> b) & 1 else (va & (vb | ab)) | (vb & ab)
            thirds &= free & -(2 << b)  # c > b
            while thirds:
                low = thirds & -thirds
                yield (v, a, b, low.bit_length() - 1)
                thirds ^= low


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

    links, m, _ = _fill(len(verts), local_triples())
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
