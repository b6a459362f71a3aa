"""Exact solvers: perfect/maximum tiling search, maximum pattern-free
sets and the pattern-free decision, and 4-partite perfect matching.

All tiling searches run on the quad catalog: the 4-sets that induce at
least two edges, i.e. exactly the 4-sets a copy can occupy, listed in
lexicographic order.  ``quad_catalog`` builds it without a sort, one
lowest vertex at a time, from ``core.spanning_quads_at`` handed only the
vertices above that one: the one enumerator of spanning 4-sets, which the
small-set search, the greedy tiling and stage Q walk too.  An exact
search on part of G runs on ``core.induced_subgraph`` of that part, its
tiling mapped back by ``core.map_copy``.

The catalog stores one incidence bitset per vertex over quad ids: bit i
of ``inc[v]`` is set iff v is in quad i.  Each search carries the quads
still usable as one int, the live set, so a node updates it with one
operation instead of rescanning the catalog: placing quad i leaves
``alive & ~(inc[a] | inc[b] | inc[c] | inc[d])`` and removing vertex v
leaves ``alive & ~inc[v]``.  A vertex's options are
``(alive & inc[v]).bit_count()``, and its live quads, ascending, are
``bits_of(alive & inc[v])``.

Both tiling searches are one branch and bound, ``_packing_search``, for
a packing of at least ``need`` disjoint quads that beats one in hand.  It
covers the fewest-options vertex with each of its live quads, then, when
``need`` is 0, leaves it uncovered.  A branch dies when a quarter of its
usable vertices, or a greedy vertex set hitting every live quad (each
placed quad spends one hitting vertex), is below the quads still
required.  Both searches apply both bounds at every node.  The hitting
bound refutes the tight lower-bound families at the root at every order:
there a side of size n/4 - 1 hits every quad; and it closes stage Q at
the root, where each quad holds one of few Y vertices.
``perfect_tiling_exact`` is this search held to n/4 quads from none,
so it never leaves a vertex uncovered; the maximum packer ``_max_packing``
has no floor and starts from ``_greedy_packing``, first-fit quads in
catalog order.  That packing also bounds the D-free decision below, which
must remove a vertex of each, and the complement of ``_greedy_hitting`` is
the first D-free set of ``max_D_free_set``.

Every public exact search lists its own catalog of G on its budget, so a
refutation always rests on every spanning 4-set of G.  ``max_tiling_exact``
is the packer on that catalog; stage Q of the extremal pipeline runs it
on its own catalog of the quads with one poor (Y) vertex and three of
the D-free set.

``max_D_free_set`` is a loop of D-free questions on one catalog, each
asking for one vertex more than the last witness, on one budget.  A
question, ``_decide``, asks whether a D-free set of a given size exists,
not how large the largest is: it is the bounded search tree of d-Hitting
Set (Niedermeier and Rossmanith, 2003) with at most n - size removals.
It refutes a branch once its greedy packing needs more removals than are
left and stops at the first witness.

A ``SearchBudget`` is a pool of nodes and a deadline, and every search
ticks the budget it is given once per node: searches handed the same
budget share it, so the driver holds one for the whole solve.  An
exhausted budget is reported as ``exhausted`` and never as a proof.  The
maximum searches still return their best effort then, the largest tiling
or D-free set found so far; the perfect tiling search has no partial
answer to return.  ``quad_catalog`` reads the budget once per vertex row
without ticking it, and stops when it is spent; a catalog cut short is
not complete, so the search that built it stops at its root by the one
rule of ``_stopped_at_root`` and answers ``exhausted``, the maximum
tiling with the greedy packing of the quads listed.

Sets of at most 16 vertices have their own search, with no subgraph,
catalog or budget: it branches over ``spanning_quads_at`` of the lowest
remaining vertex, and memoizes each remaining set it expands.
``tileable`` and ``induced_perfect_tiling``, the absorption layer's only
kernel, run it.  ``small_tiling_exact`` runs the same search on all of a
small G on a budget, ticked once per expanded set; it gives up once it
has expanded a cap of them, ``G.m`` by default, so a graph the catalog
search settles in a few nodes costs at most a bounded detour.  The
driver runs it first on every small graph the space barrier leaves.

The 4-partite 4-graph of the extremal T stage is stored as one bitset
per first-part vertex, its link: the (part 2, part 3) pairs in sorted
order, each a block of W bits holding its part-4 completions, with W one
more than the largest part-2 or part-4 id.  ``four_partite_of`` fills the
m blocks of one (v, a) at once with a few operations on m-block ints: d
completes (v, a, b) when it is in two of the pair bitsets of va, vb and
ab, or in one of them with vab an edge.  That is the rule of
``spanning_quads_at``, kept in this vectorised form so the T stage never
lists 4-sets one by one.  The degree statistics are bit counts and
bit-sliced counters over the m links, and the perfect matching carries
the still free positions as one mask.  So the three do
O(m^2) wide word operations and never list transversal 4-sets: on a
planted instance there are m^4 of them (331,776 at n = 96), and the
search takes m + 1 nodes.  The layout follows the broadword tricks and
bit-sliced counters of Knuth, TAOCP Vol. 4A, 7.1.3.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import chain

from .core import (
    Hypergraph3,
    InputError,
    Tiling,
    bits_of,
    dcopy_from_quad,
    is_D_free,
    mask_of,
    spanning_quads_at,
    validate_tiling,
    vertex_mask,
)

FOUND = "found"
INFEASIBLE = "infeasible"
EXHAUSTED = "exhausted"

# The gamma of the sufficient matching condition in the degree statistics.
MATCHING_GAMMA = 0.5

# A default ``SearchBudget``: its pool of nodes and its seconds to the
# deadline.  The driver's defaults are these too.
NODE_LIMIT = 10_000_000
TIME_LIMIT = 60.0


class SearchBudget:
    """A pool of ``node_limit`` search nodes and a deadline ``time_limit``
    seconds after the budget is made, spent by every search it is handed:
    the three catalog searches, ``small_tiling_exact`` and the 4-partite
    matching.  ``nodes`` counts the nodes spent so far, across searches,
    so searches that share a budget share its pool and its deadline.  Only
    the small-set search of ``tileable`` and ``induced_perfect_tiling``
    runs without a budget.
    Budgets are equal when their limits are; the package's one mutable
    object, so it is no record."""

    __slots__ = ("node_limit", "time_limit", "nodes", "deadline")

    def __init__(self, node_limit: int = NODE_LIMIT, time_limit: float = TIME_LIMIT):
        # Written as "not > 0" so that NaN, which fails every comparison,
        # is refused too.
        if not (node_limit > 0 and time_limit > 0):
            raise InputError("search budget must be positive")
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.nodes = 0
        self.deadline = time.perf_counter() + time_limit

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.node_limit, self.time_limit) == (other.node_limit, other.time_limit)

    __hash__ = None

    def tick(self) -> bool:
        """Count one node; True when it is past the pool or the deadline."""
        self.nodes += 1
        return self.nodes > self.node_limit or time.perf_counter() > self.deadline

    @property
    def spent(self) -> bool:
        """Whether the pool or the deadline has run out: the next search
        would stop at its first node."""
        return self.nodes >= self.node_limit or time.perf_counter() > self.deadline


class QuadCatalog(namedtuple("QuadCatalog", "quads inc complete", defaults=(False,))):
    """Spanning 4-sets of a graph in lexicographic order, with one
    incidence bitset per vertex of the graph: bit i of ``inc[v]`` is set
    iff v is in quad i, so ``bits_of(inc[v])`` lists v's quad ids
    ascending.  ``complete`` is True only for ``quad_catalog(G)`` when it
    lists every spanning 4-set of G; a search whose own catalog is cut
    short by its budget answers ``exhausted``."""

    __slots__ = ()

    @property
    def all_quads(self) -> int:
        """The live set of a search's root: every quad id."""
        return (1 << len(self.quads)) - 1

    @classmethod
    def of(cls, G: Hypergraph3, quads: list, complete: bool = False) -> "QuadCatalog":
        """The catalog of ``quads``, 4-sets of G in lexicographic order;
        ``complete`` when they are all the spanning 4-sets of G.  Each
        vertex the quads name writes a '1' at its quads' ids into a string
        of '0's, read as one binary int; any other vertex's bitset is 0."""
        cols: list[bytearray | None] = [None] * G.n
        for v in set(chain.from_iterable(quads)):
            cols[v] = bytearray(b"0") * len(quads)
        for i, (a, b, c, d) in enumerate(quads):
            cols[a][i] = cols[b][i] = cols[c][i] = cols[d][i] = 49  # ord("1")
        inc = tuple(0 if col is None else int(col[::-1], 2) for col in cols)
        return cls(quads=tuple(quads), inc=inc, complete=complete)


def quad_catalog(G: Hypergraph3, budget: SearchBudget | None = None) -> QuadCatalog:
    """The spanning 4-sets of G in lexicographic order.

    Each vertex v, ascending, adds its ``spanning_quads_at`` on the
    vertices above v, the quads whose lowest vertex is v, in lexicographic
    order.  So each quad comes out once and in order, with no set and no
    sort.  Before each vertex's row it reads whether ``budget`` is spent,
    without ticking it; once it is, the catalog holds the rows listed so
    far and is not ``complete``.
    """
    full = (1 << G.n) - 1
    quads: list = []
    for v in range(G.n):
        if budget is not None and budget.spent:
            return QuadCatalog.of(G, quads)
        quads.extend(spanning_quads_at(G, v, full & -(2 << v)))
    return QuadCatalog.of(G, quads, complete=True)


class TilingSearchResult(namedtuple("TilingSearchResult", "status tiling nodes")):
    """``status`` is found / infeasible / exhausted; ``tiling`` a Tiling
    or None; ``nodes`` the search nodes spent."""

    __slots__ = ()

    @property
    def optimal(self) -> bool:
        """Whether the search finished: its answer is exact, not best effort."""
        return self.status != EXHAUSTED


class SetSearchResult(namedtuple("SetSearchResult", "status vertices nodes")):
    # max_D_free_set: found (optimal) / exhausted (best effort), nodes summed
    # over its questions.  _decide: found (a witness) / infeasible / exhausted.
    __slots__ = ()


def _kill(cat: QuadCatalog, i: int) -> int:
    """The quads that meet quad i, itself included, as a bitset over ids."""
    inc = cat.inc
    a, b, c, d = cat.quads[i]
    return inc[a] | inc[b] | inc[c] | inc[d]


def _counts(cat: QuadCatalog, alive: int, verts) -> list[int]:
    """How many quads of the live set ``alive`` hold each vertex of ``verts``."""
    inc = cat.inc
    return [(alive & inc[v]).bit_count() for v in verts]


def _greedy_hitting(cat: QuadCatalog, alive: int, verts, cap: int | None = None) -> int:
    """Vertex mask hitting every quad of the live set ``alive``, picked
    greedily by most quads hit (lowest vertex on ties) from ``verts``,
    ascending and holding every vertex of a live quad; stops early at
    ``cap`` vertices.

    Any family of disjoint quads spends one hitting vertex per member, so
    the popcount bounds how many more copies fit among ``alive``.
    """
    hit = 0
    while alive and hit.bit_count() != cap:
        counts = _counts(cat, alive, verts)
        v = verts[counts.index(max(counts))]
        hit |= 1 << v
        alive &= ~cat.inc[v]
    return hit


def _greedy_packing(cat: QuadCatalog, alive: int, cap: int | None = None) -> list[int]:
    """First-fit disjoint quads of the live set ``alive``, in catalog
    order; stops early at ``cap`` quads.  Each next quad is the lowest
    live id, so the first one is the first live quad of the catalog."""
    out = []
    while alive:
        i = (alive & -alive).bit_length() - 1
        out.append(i)
        if len(out) == cap:
            break
        alive &= ~_kill(cat, i)
    return out


def _witness(G: Hypergraph3, quads, cover: int | None = None) -> Tiling:
    """The tiling on ``quads``, revalidated against G; when ``cover`` is
    given, it must cover exactly that vertex mask."""
    tiling = Tiling.from_copies(dcopy_from_quad(G, q) for q in quads)
    verdict = validate_tiling(G, tiling)
    if cover is not None and mask_of(tiling.covered) != cover:
        verdict.add(f"not perfect: does not cover exactly the {cover.bit_count()} mask vertices")
    if not verdict.ok:
        raise AssertionError(f"tiling search produced an invalid tiling: {verdict.violations}")
    return tiling


def _packing_search(
    cat: QuadCatalog, budget: SearchBudget, free: int, need: int, best: list[int]
) -> tuple[str, list[int]]:
    """Branch and bound for a packing of at least ``need`` quads of
    ``cat`` on the vertex mask ``free`` that beats ``best``; returns the
    status and the best packing.  ``need`` is either 0, a maximum packing,
    or |free|/4, a perfect one: that search stops at its first packing and
    never leaves a vertex uncovered.  Both prune every node by the same
    two bounds, a quarter of the usable vertices and the greedy hitting
    set.  The status is ``exhausted`` when the budget ran out, else
    ``found`` when the best packing has ``need`` quads and ``infeasible``
    when not."""
    inc = cat.inc
    chosen: list[int] = []

    def rec(free: int, alive: int) -> str | None:
        """``exhausted`` or ``found`` to stop the search, None to go on."""
        nonlocal best
        if budget.tick():
            return EXHAUSTED
        if need and len(chosen) == need:
            best = list(chosen)
            return FOUND
        verts = bits_of(free)
        options = [(c, v) for c, v in zip(_counts(cat, alive, verts), verts) if c]
        usable = [v for _, v in options]
        gap = max(need, len(best) + 1) - len(chosen)
        if len(usable) // 4 < gap or _greedy_hitting(cat, alive, usable, gap).bit_count() < gap:
            return None
        if not options:  # a leaf that got past the prune beats ``best``
            best = list(chosen)
            return None
        v = min(options)[1]  # fewest options, lowest on ties
        for i in bits_of(alive & inc[v]):
            chosen.append(i)
            stop = rec(free & ~mask_of(cat.quads[i]), alive & ~_kill(cat, i))
            chosen.pop()
            if stop:
                return stop
        if not need:
            return rec(free & ~(1 << v), alive & ~inc[v])
        return None

    status = rec(free, cat.all_quads) or (FOUND if len(best) >= need else INFEASIBLE)
    return status, best


def _stopped_at_root(cat: QuadCatalog | None, budget: SearchBudget) -> bool:
    """Whether a search stops at its root because the budget ran out
    before (``cat`` is None) or while it listed its own catalog of G;
    the root node then ticks ``budget`` once, with no search."""
    if cat is not None and cat.complete:
        return False
    budget.tick()
    return True


def perfect_tiling_exact(G: Hypergraph3, budget: SearchBudget | None = None) -> TilingSearchResult:
    """Exact search for a perfect tiling of all of G: the packing search
    held to n/4 quads, from no warm start, on the catalog of G it lists
    on ``budget``.  To search part of G, run it on ``induced_subgraph`` of
    that part.

    ``infeasible`` is returned only when the search space is exhausted,
    ``exhausted`` when the budget ran out first; a budget already spent
    stops at the root, before the catalog is built, and one spent while
    the catalog is listed stops there, with the rest unlisted.
    """
    if G.n % 4:
        raise InputError(f"perfect tiling needs 4 | n, got n={G.n}")
    budget = budget or SearchBudget()
    first = budget.nodes
    cat = None if budget.spent else quad_catalog(G, budget)
    if _stopped_at_root(cat, budget):
        return TilingSearchResult(status=EXHAUSTED, tiling=None, nodes=budget.nodes - first)
    full = (1 << G.n) - 1
    status, best = _packing_search(cat, budget, full, G.n // 4, [])
    tiling = _witness(G, [cat.quads[i] for i in best], cover=full) if status == FOUND else None
    return TilingSearchResult(status=status, tiling=tiling, nodes=budget.nodes - first)


TILEABLE_MAX_VERTICES = 16


class _GaveUp(Exception):
    """The small-set search spent its budget or its memo cap."""


def _small_tiling(
    G: Hypergraph3, mask: int, budget: SearchBudget | None = None, cap: int = 0
) -> tuple[str, list[tuple[int, int, int, int]] | None]:
    """The status of a perfect tiling of the subgraph induced on the
    vertex bitmask ``mask``, found / infeasible / exhausted, and its quads
    when found.

    Depth-first search with no subgraph or catalog: the lowest vertex of
    the remaining mask joins each of its ``spanning_quads_at`` inside the
    mask, and the search recurses on what is left.  The memo maps each
    remaining mask to the quad that tiled it (None if none did), so the
    tiling is read back from it.  Without ``budget`` the mask holds at most
    16 vertices, so fewer than 2^16 submasks: the search always finishes.
    With one, any mask is taken, each new memo entry ticks ``budget``, and
    the search answers ``exhausted`` once the budget runs out or its memo
    holds ``cap`` entries.
    """
    size = vertex_mask(G, mask).bit_count()
    if budget is None and size > TILEABLE_MAX_VERTICES:
        raise InputError(f"the small-set search takes at most {TILEABLE_MAX_VERTICES} vertices, got {size}")
    if size % 4:
        return INFEASIBLE, None
    memo: dict[int, tuple[int, int, int, int] | None] = {}

    def rec(rest: int) -> bool:
        if not rest:
            return True
        if rest not in memo:
            if budget is not None and (len(memo) == cap or budget.tick()):
                raise _GaveUp
            memo[rest] = None  # entered before its subsets: len(memo) counts every expanded set
            lowest = (rest & -rest).bit_length() - 1
            memo[rest] = next((q for q in spanning_quads_at(G, lowest, rest) if rec(rest ^ mask_of(q))), None)
        return memo[rest] is not None

    try:
        if not rec(mask):
            return INFEASIBLE, None
    except _GaveUp:
        return EXHAUSTED, None
    quads = []
    while mask:
        quads.append(memo[mask])
        mask ^= mask_of(memo[mask])
    return FOUND, quads


def small_tiling_exact(G: Hypergraph3, budget: SearchBudget, cap: int | None = None) -> TilingSearchResult:
    """Perfect tiling of all of G by the small-set search on ``budget``,
    with no catalog: ``exhausted`` once the budget runs out or the search
    has expanded ``cap`` remaining masks (default ``G.m``), ``infeasible``
    only when it tried every one.  Its first descent is the greedy tiling
    and a success expands n/4 masks, so with ``cap = G.n // 4`` it
    succeeds exactly when the greedy tiling is perfect."""
    first = budget.nodes
    full = (1 << G.n) - 1
    status, quads = _small_tiling(G, full, budget, G.m if cap is None else cap)
    tiling = _witness(G, quads, cover=full) if status == FOUND else None
    return TilingSearchResult(status=status, tiling=tiling, nodes=budget.nodes - first)


def tileable(G: Hypergraph3, mask: int) -> bool:
    """Whether the subgraph induced on the vertex bitmask ``mask`` has a
    perfect tiling; exact, for masks of at most 16 vertices."""
    return _small_tiling(G, mask)[0] == FOUND


def induced_perfect_tiling(G: Hypergraph3, vertices) -> Tiling | None:
    """Perfect tiling of the subgraph induced on ``vertices``, at most 16
    of them, or None: the search of ``tileable``, revalidated against G."""
    mask = mask_of(vertices)
    if mask.bit_count() % 4:
        raise InputError(f"perfect tiling needs 4 | n, got n={mask.bit_count()}")
    status, quads = _small_tiling(G, mask)
    return _witness(G, quads, cover=mask) if status == FOUND else None


def _max_packing(G: Hypergraph3, cat: QuadCatalog, budget: SearchBudget) -> TilingSearchResult:
    """Maximum packing of the quads of ``cat``, listed on G, complete or
    not: the packing search with no floor on the vertices of its quads,
    warm-started from the greedy packing, whose hitting-set bound closes
    symmetric instances at the root."""
    first = budget.nodes
    free = mask_of(v for v, row in enumerate(cat.inc) if row)
    status, best = _packing_search(cat, budget, free, 0, _greedy_packing(cat, cat.all_quads))
    return TilingSearchResult(status, _witness(G, [cat.quads[i] for i in best]), budget.nodes - first)


def max_tiling_exact(G: Hypergraph3, budget: SearchBudget | None = None) -> TilingSearchResult:
    """Maximum tiling (any leftover allowed): ``_max_packing`` of the
    catalog of G it lists on ``budget``.  When the budget runs out while
    the catalog is listed, it answers ``exhausted`` at the root with the
    greedy packing of the quads listed."""
    budget = budget or SearchBudget()
    cat = quad_catalog(G, budget)
    if _stopped_at_root(cat, budget):
        packed = [cat.quads[i] for i in _greedy_packing(cat, cat.all_quads)]
        return TilingSearchResult(status=EXHAUSTED, tiling=_witness(G, packed), nodes=1)
    return _max_packing(G, cat, budget)


def max_D_free_set(G: Hypergraph3, budget: SearchBudget | None = None) -> SetSearchResult:
    """Maximum vertex set inducing no copy.

    A loop of D-free questions on one catalog, listed on ``budget``:
    starting from the complement of the greedy hitting set, it asks for
    one vertex more than the best set so far until a question is refuted
    (the best set is the optimum) or runs out of budget (the best set is
    best effort).  All questions tick ``budget``; a budget that runs out
    while the catalog is listed stops the search at its root, with no
    question asked and the empty set as its best effort.  Intended for
    small orders (roughly n <= 24).  The driver does not call it.
    """
    budget = budget or SearchBudget()
    first = budget.nodes
    cat = quad_catalog(G, budget)
    if _stopped_at_root(cat, budget):
        return SetSearchResult(status=EXHAUSTED, vertices=(), nodes=budget.nodes - first)
    hit = _greedy_hitting(cat, cat.all_quads, range(G.n))
    best = tuple(v for v in range(G.n) if not ((hit >> v) & 1))
    while (res := _decide(G, cat, len(best) + 1, budget)).status == FOUND:
        best = res.vertices
    if not is_D_free(G, best):
        raise AssertionError("maximum D-free search returned a set that spans a copy")
    return SetSearchResult(
        status=FOUND if res.status == INFEASIBLE else EXHAUSTED,
        vertices=best,
        nodes=budget.nodes - first,
    )


def _decide(G: Hypergraph3, cat: QuadCatalog, size: int, budget: SearchBudget) -> SetSearchResult:
    """Whether G has a D-free set of at least ``size`` vertices: a set
    of at most n - size vertices hitting every quad of G's complete
    catalog ``cat``, branching on the first unhit quad.  ``found``
    carries the witness (the vertices not removed), ``infeasible`` is a
    proof that none exists, and ``exhausted`` means ``budget`` ran out."""
    tick, first = budget.tick, budget.nodes
    k = G.n - size
    if k < 0:
        return SetSearchResult(status=INFEASIBLE, vertices=(), nodes=0)
    witness = 0

    def rec(removed: int, alive: int, banned: int, count: int) -> str:
        nonlocal witness
        if tick():
            return EXHAUSTED
        packing = _greedy_packing(cat, alive, k - count + 1)
        if not packing:
            witness = removed
            return FOUND
        if count + len(packing) > k:
            return INFEASIBLE
        earlier = 0
        for v in cat.quads[packing[0]]:
            vb = 1 << v
            if banned & vb:
                continue
            sub = rec(removed | vb, alive & ~cat.inc[v], banned | earlier, count + 1)
            if sub != INFEASIBLE:
                return sub
            earlier |= vb
        return INFEASIBLE

    status = rec(0, cat.all_quads, 0, 0)
    vertices = ()
    if status == FOUND:
        vertices = tuple(v for v in range(G.n) if not ((witness >> v) & 1))
        if len(vertices) < size or not is_D_free(G, vertices):
            raise AssertionError("D-free decision returned a witness that is too small or spans a copy")
    return SetSearchResult(status=status, vertices=vertices, nodes=budget.nodes - first)


class FourPartite4Graph(namedtuple("FourPartite4Graph", "parts links")):
    """4-partite 4-graph on four equal disjoint parts of size m, stored as
    one bitset per first-part vertex.

    Let a_0 < ... < a_{m-1} and b_0 < ... < b_{m-1} be parts 2 and 3
    sorted, and W one more than the largest part-2 or part-4 id.  Then
    ``links[i]`` is the link of the i-th first-part vertex v: the edge
    (v, a_r, b_s, d) is bit ``(r*m + s)*W + d`` of it.  So every (part 2,
    part 3) pair owns a W-bit block holding its part-4 completions, and
    ascending bit order is ascending (a, b, d).  Vertices are nonnegative
    integer ids.  ``parts`` is a tuple of four tuples and ``links`` a
    tuple of ints.
    """

    __slots__ = ()

    @property
    def edges(self) -> frozenset[tuple[int, int, int, int]]:
        """The edges as transversal 4-tuples in part order."""
        second, third, w = _layout(self.parts)
        m = len(second)
        out = set()
        for v, row in zip(self.parts[0], self.links):
            for bit in bits_of(row):
                block, d = divmod(bit, w)
                r, s = divmod(block, m)
                out.add((v, second[r], third[s], d))
        return frozenset(out)


def _checked_parts(parts) -> tuple[tuple[int, ...], ...]:
    parts = tuple(tuple(p) for p in parts)
    if len(parts) != 4:
        raise InputError(f"need exactly 4 parts, got {len(parts)}")
    sizes = {len(p) for p in parts}
    if len(sizes) != 1:
        raise InputError(f"parts must have equal sizes, got {[len(p) for p in parts]}")
    seen: set[int] = set()
    for p in parts:
        if seen & set(p) or len(set(p)) != len(p):
            raise InputError("parts must be pairwise disjoint")
        seen |= set(p)
    if any(not isinstance(v, int) or v < 0 for v in seen):
        raise InputError("part vertices must be nonnegative integers")
    return parts


def _layout(parts) -> tuple[list[int], list[int], int]:
    """Parts 2 and 3 sorted, and the block width W of the links."""
    return sorted(parts[1]), sorted(parts[2]), 1 + max(parts[1] + parts[3], default=0)


def _ones(count: int, stride: int) -> int:
    """Bit j*stride set for each j < count."""
    return ((1 << count * stride) - 1) // ((1 << stride) - 1) if count else 0


def four_partite(parts, edges) -> FourPartite4Graph:
    """Validated constructor from an edge list: 4 equal disjoint parts,
    transversal edges given in part order."""
    parts = _checked_parts(parts)
    second, third, w = _layout(parts)
    m = len(second)
    rank2 = {a: r for r, a in enumerate(second)}
    rank3 = {b: s for s, b in enumerate(third)}
    members = [set(p) for p in parts]
    rows = dict.fromkeys(parts[0], 0)
    for e in edges:
        e = tuple(e)
        if len(e) != 4 or any(e[i] not in members[i] for i in range(4)):
            raise InputError(f"edge {e} is not transversal in part order")
        rows[e[0]] |= 1 << ((rank2[e[1]] * m + rank3[e[2]]) * w + e[3])
    return FourPartite4Graph(parts=parts, links=tuple(rows.values()))


def four_partite_of(G: Hypergraph3, parts) -> FourPartite4Graph:
    """The 4-partite 4-graph whose edges are the transversal 4-sets of G
    that span a copy, read straight off ``G.pair_bits``.

    For v, a, b in the first three parts, {v, a, b, d} spans a copy iff two
    of its four triples are edges; with vab an edge one more of vad, vbd,
    abd suffices, else two of them.  So one int of m blocks holds the
    part-4 completions of (v, a, b_j) for every j at once:
    ``maj(va, vb, ab) | (vab & (va | vb | ab))``, where block j of ``va``,
    ``vb`` and ``ab`` holds the part-4 vertices of ``pair(v, a)``,
    ``pair(v, b_j)`` and ``pair(a, b_j)``, and ``vab`` holds part 4 in the
    blocks of the b_j with v a b_j an edge.  ``vb`` is built once per v and
    ``ab`` once per a, so the graph costs O(m^2) operations on m-block
    ints.
    """
    parts = _checked_parts(parts)
    if any(v >= G.n for p in parts for v in p):
        raise InputError(f"part vertices must lie in 0..{G.n - 1}")
    second, third, w = _layout(parts)
    m = len(second)
    span = m * w  # the blocks of one part-2 vertex
    part4 = mask_of(parts[3])
    ones = _ones(m, w)  # bit j*W for each j < m
    lanes = part4 * ones
    low = (1 << w) - 1
    pair = G.pair_bits

    def blocks(u: int, mask: int) -> int:
        """Block j holds ``pair(u, b_j) & mask``."""
        out = 0
        for b in reversed(third):
            out = (out << w) | (pair(u, b) & mask)
        return out

    ab_rows = [blocks(a, part4) for a in second]
    links = []
    for v in parts[0]:
        vb_low = blocks(v, low)  # bit a of block j: v a b_j is an edge
        vb = vb_low & lanes
        row = 0
        for a, ab in zip(reversed(second), reversed(ab_rows)):
            va = (pair(v, a) & part4) * ones
            vab = ((vb_low >> a) & ones) * part4
            either = va | vb
            row = (row << span) | (va & vb) | (ab & either) | (vab & (either | ab))
        links.append(row)
    return FourPartite4Graph(parts=parts, links=tuple(links))


class MatchingResult(namedtuple("MatchingResult", "status matching nodes")):
    """``status`` is found / infeasible / exhausted; ``matching`` a tuple
    of 4-tuples or None; ``nodes`` the search nodes spent."""

    __slots__ = ()


def four_partite_perfect_matching(
    H: FourPartite4Graph, budget: SearchBudget | None = None
) -> MatchingResult:
    """Backtracking over the first part in index order.

    The search carries ``free``, the link positions whose part-2, part-3
    and part-4 vertices are all unmatched.  Each first-part vertex tries
    the set bits of ``link & free`` in ascending order, i.e. its edges in
    ascending (a, b, d).  Placing (a, b, d) clears a's m blocks, b's
    block in each of them and d's bit in every block.  Before descending,
    every still unmatched first-part vertex must keep a free position,
    otherwise the branch dies.
    """
    budget = budget or SearchBudget()
    tick, first = budget.tick, budget.nodes
    second, third, w = _layout(H.parts)
    m = len(second)
    links = H.links
    span = m * w  # the blocks of one part-2 vertex
    a_blocks = (1 << span) - 1
    b_blocks = ((1 << w) - 1) * _ones(m, span)
    d_bits = _ones(m * m, w)
    picked: list[tuple[int, int, int]] = []

    def rec(i: int, free: int) -> str:
        if tick():
            return EXHAUSTED
        if i == m:
            return FOUND
        if not all(links[k] & free for k in range(i, m)):
            return INFEASIBLE
        options = links[i] & free
        while options:
            low = options & -options
            options ^= low
            block, d = divmod(low.bit_length() - 1, w)
            r, s = divmod(block, m)
            picked.append((second[r], third[s], d))
            sub = rec(i + 1, free & ~((a_blocks << r * span) | (b_blocks << s * w) | (d_bits << d)))
            if sub == FOUND:
                return FOUND
            picked.pop()
            if sub == EXHAUSTED:
                return EXHAUSTED
        return INFEASIBLE

    status = rec(0, (1 << m * span) - 1)
    matching = None
    if status == FOUND:
        matching = tuple((v,) + abd for v, abd in zip(H.parts[0], picked))
    return MatchingResult(status=status, matching=matching, nodes=budget.nodes - first)


def _lane_min(planes: list[int], lanes: int) -> int:
    """Least value among the ``lanes`` bits of bit-sliced counters, where
    ``planes[k]`` holds bit k of every lane's count."""
    value = 0
    for k in range(len(planes) - 1, -1, -1):
        zeros = lanes & ~planes[k]
        if zeros:
            lanes = zeros
        else:
            value |= 1 << k
    return value


def four_partite_degree_stats(H: FourPartite4Graph) -> dict:
    """Minimum degrees into the first part and from it, plus the
    sufficient matching condition m*d1 + m^3*d234 >= (1+gamma)m^4, with
    gamma = ``MATCHING_GAMMA``.

    A first-part vertex has degree the bit count of its link.  A triple
    (a, b, d) has degree the number of links holding its bit, so the
    links are added into bit-sliced counters with a ripple carry; the
    lanes are part 4 in every (a, b) block, and a triple in no edge is a
    zero lane."""
    m = len(H.parts[0])
    d1 = min((row.bit_count() for row in H.links), default=0)
    planes: list[int] = []
    for carry in H.links:
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    w = _layout(H.parts)[2]
    d234 = _lane_min(planes, mask_of(H.parts[3]) * _ones(m * m, w))
    lhs = m * d1 + m**3 * d234
    rhs = (1 + MATCHING_GAMMA) * m**4
    return {
        "m": m,
        "min_degree_part1": d1,
        "min_degree_triple": d234,
        "gamma": MATCHING_GAMMA,
        "lhs": lhs,
        "rhs": rhs,
        "condition_met": lhs >= rhs,
    }
