"""Exact solvers: perfect/maximum tiling search, maximum pattern-free
sets, and 4-partite perfect matching.

All tiling searches run on the quad catalog: the list of 4-sets that
induce at least two edges, i.e. exactly the 4-sets a copy can occupy.
Perfect tiling is exact cover over the catalog with fewest-options-first
branching.  Two sound prunes keep structured instances tractable:

* a vertex with no available quad kills the branch immediately;
* a greedy vertex set hitting every available quad bounds the number of
  further disjoint quads (each placed quad spends one hitting vertex), so
  branches whose requirement exceeds that bound die without expansion.
  This is what lets the search refute the tight lower-bound families at
  useful orders: there the whole catalog is hit by a side of size n/4 - 1.

Budgets cap explored nodes and wall-clock time; an exhausted budget is
reported as such and never as a proof.

``tileable`` answers the yes/no question for sets of at most 16 vertices
straight from the pair index, without building a subgraph or a catalog;
it is what the absorption layer asks thousands of times per family.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .core import (
    DCopy,
    Hypergraph3,
    InputError,
    Tiling,
    bits_of,
    dcopy_from_quad,
    is_D_free,
    validate_tiling,
)

FOUND = "found"
INFEASIBLE = "infeasible"
EXHAUSTED = "exhausted"

# Skip the hitting-set bound once the live catalog is this large; at that
# density the bound never fires and the scan cost dominates.
_HITTING_CAP = 100_000


@dataclass
class SearchBudget:
    """Node and wall-clock caps shared by all exact searches."""

    node_limit: int = 10_000_000
    time_limit: float = 60.0
    on_exhaust: str = "return_best"  # or "fail": drop best-effort payloads

    def __post_init__(self):
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise InputError("search budget must be positive")
        if self.on_exhaust not in ("return_best", "fail"):
            raise InputError(f"unknown on_exhaust policy {self.on_exhaust!r}")


@dataclass(frozen=True)
class QuadCatalog:
    """All spanning 4-sets of a graph plus a per-vertex incidence index."""

    quads: tuple[tuple[int, int, int, int], ...]
    masks: tuple[int, ...]
    by_vertex: tuple[tuple[int, ...], ...]


def quad_catalog(G: Hypergraph3) -> QuadCatalog:
    """Enumerate spanning 4-sets via pairs: {u,v} plus two cohabitants."""
    quads = set()
    for u in range(G.n - 1):
        for v in range(u + 1, G.n):
            thirds = bits_of(G.pair_bits(u, v))
            for a, b in itertools.combinations(thirds, 2):
                quads.add(tuple(sorted((u, v, a, b))))
    ordered = tuple(sorted(quads))
    masks = []
    by_vertex: list[list[int]] = [[] for _ in range(G.n)]
    for i, q in enumerate(ordered):
        m = 0
        for v in q:
            m |= 1 << v
            by_vertex[v].append(i)
        masks.append(m)
    return QuadCatalog(
        quads=ordered,
        masks=tuple(masks),
        by_vertex=tuple(tuple(x) for x in by_vertex),
    )


@dataclass
class TilingSearchResult:
    status: str  # found / infeasible / exhausted
    tiling: Tiling | None
    nodes: int
    elapsed: float
    optimal: bool = False


@dataclass
class SetSearchResult:
    status: str  # found (optimal) / exhausted (best effort)
    vertices: tuple[int, ...] | None
    nodes: int
    elapsed: float


class _Clock:
    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.start = time.perf_counter()
        self.deadline = self.start + budget.time_limit
        self.nodes = 0

    def tick(self) -> bool:
        """Count a node; True when the budget just ran out."""
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            return True
        if self.nodes % 256 == 0 and time.perf_counter() > self.deadline:
            return True
        return False

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _available(cat: QuadCatalog, covered: int) -> list[int]:
    masks = cat.masks
    return [i for i in range(len(masks)) if not (masks[i] & covered)]


def _counts_and_mrv(cat, avail, covered, n):
    """Per-vertex availability counts and the fewest-options vertex.

    Returns (mrv_vertex, zero_flag); zero_flag means some uncovered vertex
    has no available quad at all.
    """
    counts = [0] * n
    for i in avail:
        for v in cat.quads[i]:
            counts[v] += 1
    best_v, best_c = -1, None
    for v in range(n):
        if (covered >> v) & 1:
            continue
        c = counts[v]
        if c == 0:
            return v, True
        if best_c is None or c < best_c:
            best_v, best_c = v, c
    return best_v, False


def _hitting_bound(cat, avail, needed: int) -> int:
    """Greedy hitting set over the available quads, capped at ``needed``.

    Any family of disjoint quads spends one hitting vertex per member, so
    the hitting set size bounds how many more copies can be placed.
    """
    remaining = avail
    size = 0
    while remaining:
        if size >= needed:
            return needed
        counts: dict[int, int] = {}
        for i in remaining:
            for v in cat.quads[i]:
                counts[v] = counts.get(v, 0) + 1
        pick = min(counts, key=lambda v: (-counts[v], v))
        size += 1
        pb = 1 << pick
        remaining = [i for i in remaining if not (cat.masks[i] & pb)]
    return size


def perfect_tiling_exact(G: Hypergraph3, budget: SearchBudget | None = None) -> TilingSearchResult:
    """Exact cover search for a perfect tiling.

    ``infeasible`` is returned only when the search space is exhausted,
    ``exhausted`` when the budget ran out first.
    """
    if G.n % 4:
        raise InputError(f"perfect tiling needs 4 | n, got n={G.n}")
    budget = budget or SearchBudget()
    cat = quad_catalog(G)
    clock = _Clock(budget)
    full = (1 << G.n) - 1
    chosen: list[int] = []

    def rec(covered: int) -> str:
        if clock.tick():
            return EXHAUSTED
        if covered == full:
            return FOUND
        avail = _available(cat, covered)
        v, dead = _counts_and_mrv(cat, avail, covered, G.n)
        if dead:
            return INFEASIBLE
        needed = (G.n - covered.bit_count()) // 4
        if len(avail) <= _HITTING_CAP and _hitting_bound(cat, avail, needed) < needed:
            return INFEASIBLE
        ran_out = False
        for i in cat.by_vertex[v]:
            if cat.masks[i] & covered:
                continue
            chosen.append(i)
            sub = rec(covered | cat.masks[i])
            if sub == FOUND:
                return FOUND
            chosen.pop()
            if sub == EXHAUSTED:
                ran_out = True
                break
        return EXHAUSTED if ran_out else INFEASIBLE

    status = rec(0)
    tiling = None
    if status == FOUND:
        tiling = Tiling.from_copies(dcopy_from_quad(G, cat.quads[i]) for i in chosen)
        verdict = validate_tiling(G, tiling, require_perfect=True)
        if not verdict.ok:
            raise AssertionError(f"perfect tiling search produced an invalid tiling: {verdict.violations}")
    return TilingSearchResult(
        status=status,
        tiling=tiling,
        nodes=clock.nodes,
        elapsed=clock.elapsed,
        optimal=status != EXHAUSTED,
    )


TILEABLE_MAX_VERTICES = 16


def tileable(G: Hypergraph3, mask: int) -> bool:
    """Whether the subgraph induced on the vertex bitmask ``mask`` has a
    perfect tiling; exact, for masks of at most 16 vertices.

    Depth-first search on ``G.pair_bits`` with no subgraph or catalog:
    the lowest vertex v of the remaining mask joins each 3-subset {a, b, c}
    of the rest whose quad induces at least two edges, and the search
    recurses on what is left, memoised on the remaining mask.  A 16-vertex
    mask has fewer than 2^16 submasks, so no budget is needed.
    """
    if mask < 0 or mask >> G.n:
        raise InputError(f"mask {mask:#x} names vertices outside 0..{G.n - 1}")
    size = mask.bit_count()
    if size > TILEABLE_MAX_VERTICES:
        raise InputError(f"tileable takes at most {TILEABLE_MAX_VERTICES} vertices, got {size}")
    if size % 4:
        return False
    pair = {(a, b): G.pair_bits(a, b) & mask for a, b in itertools.combinations(bits_of(mask), 2)}
    memo: dict[int, bool] = {0: True}

    def quads_through_lowest(rest: int):
        low = rest & -rest
        v = low.bit_length() - 1
        others = bits_of(rest ^ low)
        for i, a in enumerate(others):
            va = pair[v, a]
            for b in others[i + 1 :]:
                vb, ab = pair[v, b], pair[a, b]
                # Thirds c > b making {v, a, b, c} span a copy: with vab an
                # edge one more of vac, vbc, abc suffices, else two of them.
                if (va >> b) & 1:
                    thirds = va | vb | ab
                else:
                    thirds = (va & vb) | (va & ab) | (vb & ab)
                for c in bits_of(thirds & rest & ~((2 << b) - 1)):
                    yield low | (1 << a) | (1 << b) | (1 << c)

    def rec(rest: int) -> bool:
        if rest not in memo:
            memo[rest] = any(rec(rest ^ q) for q in quads_through_lowest(rest))
        return memo[rest]

    return rec(mask)


def _greedy_packing_quads(cat: QuadCatalog, covered: int) -> list[int]:
    out = []
    used = covered
    for i in range(len(cat.masks)):
        if not (cat.masks[i] & used):
            out.append(i)
            used |= cat.masks[i]
    return out


def max_tiling_exact(G: Hypergraph3, budget: SearchBudget | None = None) -> TilingSearchResult:
    """Branch and bound for a maximum tiling (any leftover allowed).

    Branches cover the fewest-options vertex with each of its available
    quads, or abandon it; the greedy warm start plus the hitting-set bound
    close symmetric instances at the root.
    """
    budget = budget or SearchBudget()
    cat = quad_catalog(G)
    clock = _Clock(budget)
    best: list[int] = _greedy_packing_quads(cat, 0)
    chosen: list[int] = []

    def rec(covered: int, skipped: int) -> bool:
        """Returns True when the budget ran out inside this subtree."""
        nonlocal best
        if clock.tick():
            return True
        blocked = covered | skipped
        avail = [i for i in range(len(cat.masks)) if not (cat.masks[i] & blocked)]
        counts = [0] * G.n
        for i in avail:
            for v in cat.quads[i]:
                counts[v] += 1
        active = [
            v
            for v in range(G.n)
            if not ((blocked >> v) & 1) and counts[v] > 0
        ]
        if not active:
            if len(chosen) > len(best):
                best = list(chosen)
            return False
        gap = len(best) - len(chosen) + 1  # improvement still required
        bound = min(len(active) // 4, _hitting_bound(cat, avail, gap))
        if bound < gap:
            return False
        v = min(active, key=lambda x: (counts[x], x))
        for i in cat.by_vertex[v]:
            if cat.masks[i] & blocked:
                continue
            chosen.append(i)
            ran_out = rec(covered | cat.masks[i], skipped)
            chosen.pop()
            if ran_out:
                return True
        return rec(covered, skipped | (1 << v))

    ran_out = rec(0, 0)
    tiling = Tiling.from_copies(dcopy_from_quad(G, cat.quads[i]) for i in best)
    verdict = validate_tiling(G, tiling)
    if not verdict.ok:
        raise AssertionError(f"maximum tiling search produced an invalid tiling: {verdict.violations}")
    if ran_out and budget.on_exhaust == "fail":
        tiling = None
    return TilingSearchResult(
        status=EXHAUSTED if ran_out else FOUND,
        tiling=tiling,
        nodes=clock.nodes,
        elapsed=clock.elapsed,
        optimal=not ran_out,
    )


def max_D_free_set(G: Hypergraph3, budget: SearchBudget | None = None) -> SetSearchResult:
    """Maximum vertex set inducing no copy.

    Equivalent to deleting a minimum set of vertices hitting every
    spanning 4-set; solved by branching on the four vertices of the first
    unhit quad with a disjoint-quad packing lower bound.  Intended for
    small orders (roughly n <= 24).
    """
    budget = budget or SearchBudget()
    cat = quad_catalog(G)
    clock = _Clock(budget)
    nquads = len(cat.masks)

    def greedy_hitting() -> int:
        removed = 0
        alive = list(range(nquads))
        while alive:
            counts: dict[int, int] = {}
            for i in alive:
                for v in cat.quads[i]:
                    counts[v] = counts.get(v, 0) + 1
            pick = min(counts, key=lambda v: (-counts[v], v))
            removed |= 1 << pick
            alive = [i for i in alive if not (cat.masks[i] & (1 << pick))]
        return removed

    best_removed = greedy_hitting()
    best_count = best_removed.bit_count()

    def packing_lb(removed: int, cap: int) -> int:
        taken = 0
        lb = 0
        for i in range(nquads):
            m = cat.masks[i]
            if (m & removed) or (m & taken):
                continue
            taken |= m
            lb += 1
            if lb >= cap:
                break
        return lb

    def rec(removed: int, banned: int, count: int) -> bool:
        nonlocal best_removed, best_count
        if clock.tick():
            return True
        if count >= best_count:
            return False
        first = -1
        for i in range(nquads):
            if not (cat.masks[i] & removed):
                first = i
                break
        if first < 0:
            best_removed, best_count = removed, count
            return False
        if count + packing_lb(removed, best_count - count) >= best_count:
            return False
        earlier = 0
        for v in cat.quads[first]:
            vb = 1 << v
            if banned & vb:
                continue
            if rec(removed | vb, banned | earlier, count + 1):
                return True
            earlier |= vb
        return False

    ran_out = rec(0, 0, 0)
    vertices = tuple(v for v in range(G.n) if not ((best_removed >> v) & 1))
    if not is_D_free(G, vertices):
        raise AssertionError("maximum D-free search returned a set that spans a copy")
    if ran_out and budget.on_exhaust == "fail":
        vertices = None
    return SetSearchResult(
        status=EXHAUSTED if ran_out else FOUND,
        vertices=vertices,
        nodes=clock.nodes,
        elapsed=clock.elapsed,
    )


@dataclass(frozen=True)
class FourPartite4Graph:
    """4-partite 4-graph: equal parts and transversal 4-sets as edges."""

    parts: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int, int, int]]


def four_partite(parts, edges) -> FourPartite4Graph:
    """Validated constructor: 4 equal disjoint parts, transversal edges
    stored in part order."""
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
    norm = set()
    for e in edges:
        e = tuple(e)
        if len(e) != 4 or any(e[i] not in parts[i] for i in range(4)):
            raise InputError(f"edge {e} is not transversal in part order")
        norm.add(e)
    return FourPartite4Graph(parts=parts, edges=frozenset(norm))


@dataclass
class MatchingResult:
    status: str  # found / infeasible / exhausted
    matching: tuple[tuple[int, int, int, int], ...] | None
    nodes: int
    elapsed: float


def four_partite_perfect_matching(
    H: FourPartite4Graph, budget: SearchBudget | None = None
) -> MatchingResult:
    """Backtracking over the first part in index order.

    Before descending, every still unmatched first-part vertex must keep
    at least one fully free edge, otherwise the branch dies.
    """
    budget = budget or SearchBudget()
    clock = _Clock(budget)
    m = len(H.parts[0])
    pos = [{v: i for i, v in enumerate(p)} for p in H.parts]
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for e in sorted(H.edges):
        adj[pos[0][e[0]]].append((pos[1][e[1]], pos[2][e[2]], pos[3][e[3]]))
    picked: list[tuple[int, int, int]] = []

    def feasible(i: int, used1: int, used2: int, used3: int) -> bool:
        for k in range(i, m):
            ok = False
            for (a, b, c) in adj[k]:
                if not ((used1 >> a) & 1 or (used2 >> b) & 1 or (used3 >> c) & 1):
                    ok = True
                    break
            if not ok:
                return False
        return True

    def rec(i: int, used1: int, used2: int, used3: int) -> str:
        if clock.tick():
            return EXHAUSTED
        if i == m:
            return FOUND
        if not feasible(i, used1, used2, used3):
            return INFEASIBLE
        ran_out = False
        for (a, b, c) in adj[i]:
            if (used1 >> a) & 1 or (used2 >> b) & 1 or (used3 >> c) & 1:
                continue
            picked.append((a, b, c))
            sub = rec(i + 1, used1 | (1 << a), used2 | (1 << b), used3 | (1 << c))
            if sub == FOUND:
                return FOUND
            picked.pop()
            if sub == EXHAUSTED:
                ran_out = True
                break
        return EXHAUSTED if ran_out else INFEASIBLE

    status = rec(0, 0, 0, 0)
    matching = None
    if status == FOUND:
        matching = tuple(
            (H.parts[0][i], H.parts[1][a], H.parts[2][b], H.parts[3][c])
            for i, (a, b, c) in enumerate(picked)
        )
    return MatchingResult(status=status, matching=matching, nodes=clock.nodes, elapsed=clock.elapsed)


def four_partite_degree_stats(H: FourPartite4Graph, gamma: float = 0.5) -> dict:
    """Minimum degrees into the first part and from it, plus the
    sufficient matching condition m*d1 + m^3*d234 >= (1+gamma)m^4."""
    m = len(H.parts[0])
    deg1 = {v: 0 for v in H.parts[0]}
    deg234: dict[tuple[int, int, int], int] = {
        t: 0 for t in itertools.product(H.parts[1], H.parts[2], H.parts[3])
    }
    for e in H.edges:
        deg1[e[0]] += 1
        deg234[(e[1], e[2], e[3])] += 1
    d1 = min(deg1.values()) if deg1 else 0
    d234 = min(deg234.values()) if deg234 else 0
    lhs = m * d1 + m**3 * d234
    rhs = (1 + gamma) * m**4
    return {
        "m": m,
        "min_degree_part1": d1,
        "min_degree_triple": d234,
        "gamma": gamma,
        "lhs": lhs,
        "rhs": rhs,
        "condition_met": lhs >= rhs,
    }
