"""Staged tiling pipeline for near-extremal instances.

When a maximal pattern-free set Z holds roughly three quarters of the
vertices, the remaining vertices split by how much of Z's pair set their
link covers: the rich ones (X, link at least a (1-alpha) fraction) behave
like the small side of the tight construction, the poor ones (Y) are few.
Four stages then assemble a perfect tiling:

* Q: a maximum collection of copies using one Y vertex + three Z vertices,
  found by the budgeted maximum tiling search of ``exact`` on the quads
  that ``core.spanning_quads_at`` lists through each Y vertex inside Z;
* R: each Y vertex missed by Q, one X vertex and two Z vertices, glued by
  edges {x,y,z1} and {x,z1,z2};
* S: exactly max(q - ell, 0) copies on two X + two Z vertices (ell is the
  shortfall k - |X|), balancing the books so that afterwards exactly m
  X vertices and 3m Z vertices remain;
* T: an exact perfect matching in the 4-partite 4-graph on the X
  remainder and three equal Z slices, one copy per matched 4-set.

Z itself comes from one incremental grower, ``_grow_D_free``: the
degree-order greedy set, the extension of a seed in id order and the
maximality check of ``partition_XYZ`` all grow a set one vertex at a
time.  Besides Z's mask the grower keeps ``blocked``, the third vertices
of the pairs of Z whose thirds already meet Z: a vertex in it would be
the private vertex of a new copy, so it is refused with one bit test,
and each other candidate costs O(|Z|) pair lookups to test and to add.

Every stage picks smallest-id candidates first, so runs are
deterministic.  Inequality checks along the way are diagnostics: they are
reported, not enforced, because at desk scale the asymptotic regime is
out of reach.  Failures to *construct* (no candidate x, impossible
matching, books that do not balance) raise :class:`StageFailure`, which
callers treat as "this instance is not in the regime" and fall back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    DCopy,
    Hypergraph3,
    InputError,
    Tiling,
    bits_of,
    dcopy_from_quad,
    mask_of,
    spanning_quads_at,
    validate_tiling,
)
from .exact import (
    FOUND,
    QuadCatalog,
    SearchBudget,
    _incidence,
    four_partite_degree_stats,
    four_partite_of,
    four_partite_perfect_matching,
    max_tiling_exact,
)


class StageFailure(RuntimeError):
    """A pipeline stage could not place its copies."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"stage {stage}: {reason}")
        self.stage = stage
        self.reason = reason


@dataclass(frozen=True)
class XYZPartition:
    z: tuple[int, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]
    alpha: float
    diagnostics: tuple[dict, ...] = ()


@dataclass
class PipelineState:
    partition: XYZPartition
    q_copies: list[DCopy] = field(default_factory=list)
    r_copies: list[DCopy] = field(default_factory=list)
    s_copies: list[DCopy] = field(default_factory=list)
    t_copies: list[DCopy] = field(default_factory=list)
    q_mode: str = ""
    q: int = 0
    ell: int = 0
    m: int = 0
    diagnostics: list[dict] = field(default_factory=list)
    matching_stats: dict = field(default_factory=dict)

    def used(self, copies) -> set[int]:
        return {v for c in copies for v in c.vertices}


def _grow_D_free(G: Hypergraph3, Z, order) -> tuple[int, ...] | None:
    """Z grown by each vertex of ``order``, in turn, that keeps it
    pattern-free; None when Z itself spans a copy.

    A new copy must involve the added vertex v: either v sits in its
    shared pair (some z in Z with two thirds of {v, z} in Z), or v is a
    private vertex of a pair of Z whose thirds already meet Z.  The
    second case is one bit test on ``blocked``, the union of the third
    vertices of those pairs, so a candidate costs O(|Z|) pair lookups.
    Adding v can only make pairs {v, z} and {z, w}, w the one third of
    {v, z} in Z, meet Z, so the update costs O(|Z|) as well.  Only the
    seed's own ``blocked`` takes one scan over its pairs.
    """
    pair_bits = G.pair_bits
    zlist = sorted(set(Z))
    zmask = mask_of(zlist)
    blocked = 0
    for i, z1 in enumerate(zlist):
        for z2 in zlist[i + 1 :]:
            bits = pair_bits(z1, z2)
            inside = bits & zmask
            if inside:
                if inside & (inside - 1):
                    return None
                blocked |= bits
    for v in order:
        if ((zmask | blocked) >> v) & 1:
            continue
        grown = blocked
        for z in zlist:
            bits = pair_bits(v, z)
            inside = bits & zmask
            if inside:
                if inside & (inside - 1):  # {v, z} would be a shared pair
                    break
                # {v, z} and {z, w}, w its one third in Z, now meet the set
                grown |= bits | pair_bits(z, inside.bit_length() - 1)
        else:
            zlist.append(v)
            zmask |= 1 << v
            blocked = grown
    return tuple(sorted(zlist))


def extend_to_maximal_D_free(G: Hypergraph3, S0) -> tuple[int, ...]:
    """Grow a pattern-free set to a maximal one, ascending vertex order."""
    Z = _grow_D_free(G, S0, range(G.n))
    if Z is None:
        raise InputError("seed set already contains a copy")
    return Z


def greedy_D_free_set(G: Hypergraph3) -> tuple[int, ...]:
    """Heuristic large pattern-free set: insert vertices by ascending edge
    degree (cheap proxy for how entangled a vertex is), keep what fits.
    The set carries the ``blocked`` mask of ``_grow_D_free``, so each
    vertex costs O(|Z|) pair lookups, O(n·|Z|) in all.  A rejected vertex
    stays rejected as the set grows, so it is maximal."""
    return _grow_D_free(G, (), sorted(range(G.n), key=lambda v: (G.degree(v), v)))


def _is_maximal_D_free(G: Hypergraph3, Z) -> bool:
    """Whether Z is pattern-free and growing it adds no vertex."""
    grown = _grow_D_free(G, Z, range(G.n))
    return grown is not None and len(grown) == len(set(Z))


def _link_pair_count(G: Hypergraph3, v: int, zmask: int, zlist) -> int:
    total = 0
    for z in zlist:
        total += (G.pair_bits(v, z) & zmask).bit_count()
    return total // 2


def partition_XYZ(G: Hypergraph3, Z, alpha: float) -> XYZPartition:
    """Split the complement of Z into rich (X) and poor (Y) vertices by
    link coverage of Z's pairs, with size diagnostics attached."""
    if not 0 < alpha < 1:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    zlist = sorted(set(Z))
    if not _is_maximal_D_free(G, zlist):
        raise InputError("Z must be a maximal pattern-free set")
    zmask = mask_of(zlist)
    zsize = len(zlist)
    zpairs = zsize * (zsize - 1) // 2
    threshold = (1 - alpha) * zpairs
    xs, ys = [], []
    for v in range(G.n):
        if (zmask >> v) & 1:
            continue
        (xs if _link_pair_count(G, v, zmask, zlist) >= threshold else ys).append(v)
    k = G.n / 4
    eps0 = alpha**3
    diags = (
        {
            "name": "partition_size_bounds",
            "ok": (
                k * (1 - 4 * alpha**2) <= len(xs) <= k * (1 + 3 * eps0)
                and len(ys) <= 4 * alpha**2 * k
                and zsize >= 3 * k * (1 - eps0)
            ),
            "detail": {"x": len(xs), "y": len(ys), "z": zsize, "k": k, "eps0": eps0},
        },
        {
            "name": "z_pair_x_link",
            "ok": _z_pair_x_link_ok(G, zlist, xs, alpha),
            "detail": {"threshold": (1 - alpha) * len(xs)},
        },
    )
    return XYZPartition(z=tuple(zlist), x=tuple(xs), y=tuple(ys), alpha=alpha, diagnostics=diags)


def _z_pair_x_link_ok(G: Hypergraph3, zlist, xs, alpha: float) -> bool:
    xmask = mask_of(xs)
    need = (1 - alpha) * len(xs)
    for i, z1 in enumerate(zlist):
        for z2 in zlist[i + 1 :]:
            if (G.pair_bits(z1, z2) & xmask).bit_count() < need:
                return False
    return True


def _one_y_catalog(G: Hypergraph3, ys, zs) -> QuadCatalog:
    """The catalog of the 4-sets spanning a copy on one vertex y of ``ys``
    and three of ``zs``, in lexicographic order: each y's
    ``spanning_quads_at`` on Z, which lists every such 4-set once, under
    its one Y vertex."""
    zmask = mask_of(zs)
    quads = sorted(tuple(sorted(q)) for y in ys for q in spanning_quads_at(G, y, zmask))
    return QuadCatalog(quads=tuple(quads), inc=_incidence(G.n, bits_of(mask_of(ys) | zmask), quads), graph=G)


def build_Q(G: Hypergraph3, state: PipelineState, budget: SearchBudget | None = None) -> None:
    """Maximum tiling by copies on one Y vertex and three Z vertices: a
    maximum packing of those quads (no search when Y is empty).  The
    search ticks ``budget``, which stage T then shares; ``q_mode`` is
    ``exhausted`` when the budget stopped it, and Q is then the best
    packing found so far.
    """
    part = state.partition
    state.ell = G.n // 4 - len(part.x)
    state.q_mode, nodes = "exact", 0
    if part.y:
        res = max_tiling_exact(G, budget, catalog=_one_y_catalog(G, part.y, part.z))
        state.q_mode = "exact" if res.optimal else "exhausted"
        state.q_copies = list(res.tiling.copies)
        nodes = res.nodes
    state.q = len(state.q_copies)
    for c in state.q_copies:
        if len(set(c.vertices) & set(part.z)) != 3 or len(set(c.vertices) & set(part.y)) != 1:
            raise AssertionError(f"stage Q copy {c.vertices} is not one Y vertex plus three Z vertices")
    state.diagnostics.append(
        {
            "name": "q_covers_deficit",
            "ok": state.q >= state.ell,
            "detail": {"q": state.q, "ell": state.ell, "mode": state.q_mode, "nodes": nodes},
        }
    )


def build_R(G: Hypergraph3, state: PipelineState) -> None:
    """One copy per Y vertex missed by Q: the two smallest free Z
    vertices z1 < z2 and the smallest X vertex x with edges {x,y,z1} and
    {x,z1,z2}.  No candidate x is a hard stage failure."""
    part = state.partition
    used_q = state.used(state.q_copies)
    free_z = [z for z in part.z if z not in used_q]
    free_x = list(part.x)
    leftover_y = [y for y in part.y if y not in used_q]
    xmask = mask_of(free_x)
    for y in leftover_y:
        if len(free_z) < 2:
            raise StageFailure("R", f"fewer than two free Z vertices for y={y}")
        z1, z2 = free_z[0], free_z[1]
        cands = G.pair_bits(y, z1) & G.pair_bits(z1, z2) & xmask
        if not cands:
            raise StageFailure(
                "R", f"no X vertex completes y={y} with z1={z1}, z2={z2}"
            )
        x = bits_of(cands)[0]
        ea = tuple(sorted((x, y, z1)))
        eb = tuple(sorted((x, z1, z2)))
        state.r_copies.append(
            DCopy(vertices=tuple(sorted((x, y, z1, z2))), edge_a=min(ea, eb), edge_b=max(ea, eb))
        )
        free_z = free_z[2:]
        free_x.remove(x)
        xmask &= ~(1 << x)
    if leftover_y and part.x:
        ymask_need = (1 - part.alpha) * len(part.x)
        ok = True
        xall = mask_of(part.x)
        for y in leftover_y:
            for z in free_z:
                if (G.pair_bits(y, z) & xall).bit_count() < ymask_need:
                    ok = False
                    break
        state.diagnostics.append(
            {
                "name": "yz_pair_x_link",
                "ok": ok,
                "detail": {"threshold": ymask_need, "pairs_checked": len(leftover_y) * len(free_z)},
            }
        )


def build_S(G: Hypergraph3, state: PipelineState) -> None:
    """Exactly max(q - ell, 0) copies on two X + two Z vertices, spending
    the X surplus so the T stage books balance."""
    part = state.partition
    surplus = max(state.q - state.ell, 0)
    used = state.used(state.q_copies) | state.used(state.r_copies)
    free_z = [z for z in part.z if z not in used]
    free_x = [x for x in part.x if x not in used]
    for _ in range(surplus):
        if len(free_z) < 2:
            raise StageFailure("S", "fewer than two free Z vertices")
        z1, z2 = free_z[0], free_z[1]
        xmask = mask_of(free_x)
        cands = bits_of(G.pair_bits(z1, z2) & xmask)
        if len(cands) < 2:
            raise StageFailure("S", f"pair ({z1}, {z2}) lacks two joint X neighbours")
        x1, x2 = cands[0], cands[1]
        ea = tuple(sorted((z1, z2, x1)))
        eb = tuple(sorted((z1, z2, x2)))
        state.s_copies.append(
            DCopy(vertices=tuple(sorted((x1, x2, z1, z2))), edge_a=min(ea, eb), edge_b=max(ea, eb))
        )
        free_z = free_z[2:]
        free_x.remove(x1)
        free_x.remove(x2)
    k = G.n // 4
    expected_m = k - len(part.y) - (state.q - state.ell)
    state.m = len(free_x)
    z_left = len(free_z)
    books = state.m == expected_m and z_left == 3 * expected_m
    state.diagnostics.append(
        {
            "name": "stage_s_bookkeeping",
            "ok": books,
            "detail": {
                "m": state.m,
                "expected_m": expected_m,
                "z_left": z_left,
                "expected_z_left": 3 * expected_m,
            },
        }
    )
    state.diagnostics.append(
        {
            "name": "z_remainder_ratio",
            "ok": 3 * state.m >= len(part.z) / 2,
            "detail": {"z_left": z_left, "z": len(part.z)},
        }
    )
    if not books:
        raise StageFailure(
            "S",
            f"books do not balance: m={state.m} expected {expected_m}, "
            f"z remainder {z_left} expected {3 * expected_m}",
        )


def build_T(G: Hypergraph3, state: PipelineState, budget: SearchBudget) -> Tiling:
    """Finish with an exact 4-partite matching on the X remainder and
    three ascending Z slices.  The 4-partite graph is built from the pair
    index (``four_partite_of``), so its edges are exactly the transversal
    4-sets that span a copy.  The matching ticks ``budget``, the one stage
    Q's search spent from; when it is already spent the stage fails before
    building anything, unless no X vertex is left to match."""
    part = state.partition
    used = (
        state.used(state.q_copies)
        | state.used(state.r_copies)
        | state.used(state.s_copies)
    )
    free_x = [x for x in part.x if x not in used]
    free_z = [z for z in part.z if z not in used]
    m = len(free_x)
    if len(free_z) != 3 * m:
        raise StageFailure(
            "T", f"remainders out of shape: {len(free_x)} X vs {len(free_z)} Z"
        )
    if m:
        if budget.spent:
            raise StageFailure("T", "4-partite matching exhausted: the budget is already spent")
        H = four_partite_of(G, (free_x, free_z[:m], free_z[m : 2 * m], free_z[2 * m :]))
        state.matching_stats = four_partite_degree_stats(H)
        state.diagnostics.append(
            {
                "name": "matching_degree_condition",
                "ok": bool(state.matching_stats["condition_met"]),
                "detail": dict(state.matching_stats),
            }
        )
        res = four_partite_perfect_matching(H, budget)
        if res.status != FOUND:
            raise StageFailure("T", f"4-partite matching {res.status}")
        state.matching_stats["nodes"] = res.nodes
        state.t_copies = [dcopy_from_quad(G, e) for e in res.matching]
    tiling = Tiling.from_copies(
        state.q_copies + state.r_copies + state.s_copies + state.t_copies
    )
    verdict = validate_tiling(G, tiling, require_perfect=True)
    if not verdict.ok:
        raise StageFailure("T", "; ".join(verdict.violations))
    return tiling


def run_extremal_pipeline(
    G: Hypergraph3,
    Z,
    alpha: float = 0.3,
    budget: SearchBudget | None = None,
) -> tuple[Tiling, dict]:
    """Partition around Z and run the four stages; returns the validated
    perfect tiling and a JSON-friendly run report.  Stages Q and T search
    on one budget, ``budget`` or a fresh ``SearchBudget``."""
    if G.n % 4:
        raise InputError(f"perfect tiling needs 4 | n, got n={G.n}")
    part = partition_XYZ(G, Z, alpha)
    state = PipelineState(partition=part)
    state.diagnostics.extend(part.diagnostics)
    k = G.n // 4
    eps0 = alpha**3
    budget = budget or SearchBudget()
    build_Q(G, state, budget)
    state.diagnostics.append(
        {
            "name": "deficit_range",
            "ok": -3 * eps0 * k <= state.ell <= 4 * alpha**2 * k,
            "detail": {"ell": state.ell, "k": k},
        }
    )
    build_R(G, state)
    build_S(G, state)
    state.diagnostics.append(
        {
            "name": "surplus_range",
            "ok": 0 <= state.q - state.ell <= 8 * alpha**2 * k,
            "detail": {"q": state.q, "ell": state.ell},
        }
    )
    tiling = build_T(G, state, budget)
    report = {
        "alpha": alpha,
        "sizes": {
            "n": G.n,
            "k": k,
            "x": len(part.x),
            "y": len(part.y),
            "z": len(part.z),
        },
        "stages": {
            "q": len(state.q_copies),
            "r": len(state.r_copies),
            "s": len(state.s_copies),
            "t": len(state.t_copies),
            "q_mode": state.q_mode,
        },
        "counts": {"q": state.q, "ell": state.ell, "m": state.m},
        "diagnostics": state.diagnostics,
        "matching": state.matching_stats,
    }
    return tiling, report
