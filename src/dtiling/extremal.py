"""Staged tiling pipeline for near-extremal instances.

When a maximal pattern-free set Z holds roughly three quarters of the
vertices, the remaining vertices split by how much of Z's pair set their
link covers: the rich ones (X, link at least a (1-alpha) fraction) behave
like the small side of the tight construction, the poor ones (Y) are few.
Four stages then assemble a perfect tiling.  Each takes the partition
and the mask of the vertices the earlier stages left free, and returns
what it placed; every copy carries the witness edges that
``core.dcopy_from_quad`` picks for its 4-set.

* Q: a maximum collection of copies using one Y vertex + three Z vertices,
  found by the budgeted maximum packer of ``exact`` on the quads that
  ``core.spanning_quads_at`` lists through each Y vertex inside Z;
* R: each free Y vertex y with the two smallest free Z vertices z1 < z2
  and the smallest free X vertex x for which {x,y,z1} and {x,z1,z2} are
  edges;
* S: exactly max(q - ell, 0) copies on two X + two Z vertices (ell is the
  shortfall k - |X|), balancing the books so that afterwards exactly m
  X vertices and 3m Z vertices remain;
* T: an exact perfect matching in the 4-partite 4-graph on the X
  remainder and three equal Z slices, one copy per matched 4-set.

``run_extremal_pipeline`` threads the free mask from stage to stage,
checks the books before T and writes the diagnostics of the report.

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

from collections import namedtuple

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
    TilingSearchResult,
    _max_packing,
    four_partite_degree_stats,
    four_partite_of,
    four_partite_perfect_matching,
)


class StageFailure(RuntimeError):
    """A pipeline stage could not place its copies."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"stage {stage}: {reason}")
        self.stage = stage
        self.reason = reason


class XYZPartition(namedtuple("XYZPartition", "z x y diagnostics", defaults=((),))):
    """The D-free set Z and the rich (X) and poor (Y) vertices outside it,
    each a tuple of vertex ids, plus a tuple of diagnostic dicts."""

    __slots__ = ()


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


def _diagnostic(name: str, ok: bool, **detail) -> dict:
    """One report entry: a checked inequality and the values it read."""
    return {"name": name, "ok": ok, "detail": detail}


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
    sizes_ok = (
        k * (1 - 4 * alpha**2) <= len(xs) <= k * (1 + 3 * eps0)
        and len(ys) <= 4 * alpha**2 * k
        and zsize >= 3 * k * (1 - eps0)
    )
    diags = (
        _diagnostic("partition_size_bounds", sizes_ok, x=len(xs), y=len(ys), z=zsize, k=k, eps0=eps0),
        _diagnostic("z_pair_x_link", _z_pair_x_link_ok(G, zlist, xs, alpha), threshold=(1 - alpha) * len(xs)),
    )
    return XYZPartition(z=tuple(zlist), x=tuple(xs), y=tuple(ys), diagnostics=diags)


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
    return QuadCatalog.of(G, quads)


def build_Q(G: Hypergraph3, part: XYZPartition, budget: SearchBudget | None = None) -> TilingSearchResult:
    """Maximum tiling by copies on one Y vertex and three Z vertices: a
    maximum packing of those quads, ``found`` and empty with no catalog
    and no search when Y is empty.  The search ticks ``budget``, which
    stage T then shares; it is ``exhausted`` when the budget stopped it,
    and its tiling is then the best packing found so far.
    """
    if not part.y:
        return TilingSearchResult(status=FOUND, tiling=Tiling.from_copies(()), nodes=0)
    res = _max_packing(G, _one_y_catalog(G, part.y, part.z), budget or SearchBudget())
    zmask, ymask = mask_of(part.z), mask_of(part.y)
    for c in res.tiling.copies:
        quad = mask_of(c.vertices)
        if (quad & zmask).bit_count() != 3 or (quad & ymask).bit_count() != 1:
            raise AssertionError(f"stage Q copy {c.vertices} is not one Y vertex plus three Z vertices")
    return res


def _two_lowest(mask: int) -> tuple[int, int]:
    """The two smallest vertices of ``mask``, which holds at least two."""
    rest = mask & (mask - 1)
    return (mask ^ rest).bit_length() - 1, (rest & -rest).bit_length() - 1


def _covered(copies) -> int:
    return mask_of(v for c in copies for v in c.vertices)


def build_R(G: Hypergraph3, part: XYZPartition, free: int) -> list[DCopy]:
    """One copy per free Y vertex y: the two smallest free Z vertices
    z1 < z2 and the smallest free X vertex x with edges {x,y,z1} and
    {x,z1,z2}.  No candidate x is a hard stage failure."""
    zmask, xmask = mask_of(part.z), mask_of(part.x)
    copies = []
    for y in bits_of(free & mask_of(part.y)):
        if (free & zmask).bit_count() < 2:
            raise StageFailure("R", f"fewer than two free Z vertices for y={y}")
        z1, z2 = _two_lowest(free & zmask)
        cands = G.pair_bits(y, z1) & G.pair_bits(z1, z2) & free & xmask
        if not cands:
            raise StageFailure("R", f"no X vertex completes y={y} with z1={z1}, z2={z2}")
        copies.append(dcopy_from_quad(G, (y, z1, z2, (cands & -cands).bit_length() - 1)))
        free &= ~mask_of(copies[-1].vertices)
    return copies


def build_S(G: Hypergraph3, part: XYZPartition, free: int, surplus: int) -> list[DCopy]:
    """``surplus`` copies, each on the two smallest free Z vertices and the
    two smallest free X vertices joined to both, spending the X surplus so
    the T stage books balance."""
    zmask, xmask = mask_of(part.z), mask_of(part.x)
    copies = []
    for _ in range(surplus):
        if (free & zmask).bit_count() < 2:
            raise StageFailure("S", "fewer than two free Z vertices")
        z1, z2 = _two_lowest(free & zmask)
        cands = G.pair_bits(z1, z2) & free & xmask
        if cands.bit_count() < 2:
            raise StageFailure("S", f"pair ({z1}, {z2}) lacks two joint X neighbours")
        copies.append(dcopy_from_quad(G, (z1, z2, *_two_lowest(cands))))
        free &= ~mask_of(copies[-1].vertices)
    return copies


def build_T(
    G: Hypergraph3, part: XYZPartition, free: int, budget: SearchBudget
) -> tuple[list[DCopy], dict]:
    """Finish with an exact 4-partite matching on the free X vertices and
    three ascending slices of the free Z vertices; returns one copy per
    matched 4-set and the matching's degree statistics and nodes (empty
    when no X vertex is free).  The 4-partite graph is built from the pair
    index (``four_partite_of``), so its edges are exactly the transversal
    4-sets that span a copy.  The matching ticks ``budget``, the one stage
    Q's search spent from; when it is already spent the stage fails before
    building anything, unless no X vertex is left to match."""
    free_x = bits_of(free & mask_of(part.x))
    free_z = bits_of(free & mask_of(part.z))
    m = len(free_x)
    if len(free_z) != 3 * m:
        raise StageFailure("T", f"remainders out of shape: {m} X vs {len(free_z)} Z")
    if not m:
        return [], {}
    if budget.spent:
        raise StageFailure("T", "4-partite matching exhausted: the budget is already spent")
    H = four_partite_of(G, (free_x, free_z[:m], free_z[m : 2 * m], free_z[2 * m :]))
    stats = four_partite_degree_stats(H)
    res = four_partite_perfect_matching(H, budget)
    if res.status != FOUND:
        raise StageFailure("T", f"4-partite matching {res.status}")
    return [dcopy_from_quad(G, e) for e in res.matching], dict(stats, nodes=res.nodes)


def run_extremal_pipeline(
    G: Hypergraph3,
    Z,
    alpha: float = 0.3,
    budget: SearchBudget | None = None,
) -> tuple[Tiling, dict]:
    """Partition around Z and run the four stages, each on the vertices
    the earlier ones left free; returns the validated perfect tiling and a
    JSON-friendly run report.  Stages Q and T search on one budget,
    ``budget`` or a fresh ``SearchBudget``."""
    if G.n % 4:
        raise InputError(f"perfect tiling needs 4 | n, got n={G.n}")
    part = partition_XYZ(G, Z, alpha)
    diagnostics = list(part.diagnostics)
    k = G.n // 4
    eps0 = alpha**3
    budget = budget or SearchBudget()
    xmask, zmask = mask_of(part.x), mask_of(part.z)

    ell = k - len(part.x)
    q_res = build_Q(G, part, budget)
    q_copies = list(q_res.tiling.copies)
    q = len(q_copies)
    q_mode = "exact" if q_res.optimal else "exhausted"
    q_detail = {"q": q, "ell": ell, "mode": q_mode, "nodes": q_res.nodes}
    diagnostics.append(_diagnostic("q_covers_deficit", q >= ell, **q_detail))
    diagnostics.append(_diagnostic("deficit_range", -3 * eps0 * k <= ell <= 4 * alpha**2 * k, ell=ell, k=k))
    free = ((1 << G.n) - 1) & ~mask_of(q_res.tiling.covered)

    leftover_y = bits_of(free & mask_of(part.y))
    r_copies = build_R(G, part, free)
    free &= ~_covered(r_copies)
    if leftover_y and part.x:
        need = (1 - alpha) * len(part.x)
        free_z = bits_of(free & zmask)
        ok = all((G.pair_bits(y, z) & xmask).bit_count() >= need for y in leftover_y for z in free_z)
        pairs = len(leftover_y) * len(free_z)
        diagnostics.append(_diagnostic("yz_pair_x_link", ok, threshold=need, pairs_checked=pairs))

    s_copies = build_S(G, part, free, max(q - ell, 0))
    free &= ~_covered(s_copies)
    # The books: exactly m X vertices and 3m Z vertices are left for T.
    expected_m = k - len(part.y) - (q - ell)
    m = (free & xmask).bit_count()
    z_left = (free & zmask).bit_count()
    books = m == expected_m and z_left == 3 * expected_m
    books_detail = {"m": m, "expected_m": expected_m, "z_left": z_left, "expected_z_left": 3 * expected_m}
    diagnostics.append(_diagnostic("stage_s_bookkeeping", books, **books_detail))
    ratio_ok = 3 * m >= len(part.z) / 2
    diagnostics.append(_diagnostic("z_remainder_ratio", ratio_ok, z_left=z_left, z=len(part.z)))
    if not books:
        raise StageFailure(
            "S",
            f"books do not balance: m={m} expected {expected_m}, "
            f"z remainder {z_left} expected {3 * expected_m}",
        )
    diagnostics.append(_diagnostic("surplus_range", 0 <= q - ell <= 8 * alpha**2 * k, q=q, ell=ell))

    t_copies, matching = build_T(G, part, free, budget)
    if matching:
        degree = {key: value for key, value in matching.items() if key != "nodes"}
        ok = bool(matching["condition_met"])
        diagnostics.append(_diagnostic("matching_degree_condition", ok, **degree))
    tiling = Tiling.from_copies(q_copies + r_copies + s_copies + t_copies)
    verdict = validate_tiling(G, tiling, require_perfect=True)
    if not verdict.ok:
        raise AssertionError(f"extremal pipeline produced an invalid tiling: {verdict.violations}")
    report = {
        "alpha": alpha,
        "sizes": {"n": G.n, "k": k, "x": len(part.x), "y": len(part.y), "z": len(part.z)},
        "stages": {"q": q, "r": len(r_copies), "s": len(s_copies), "t": len(t_copies), "q_mode": q_mode},
        "counts": {"q": q, "ell": ell, "m": m},
        "diagnostics": diagnostics,
        "matching": matching,
    }
    return tiling, report
