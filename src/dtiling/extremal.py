"""Staged tiling pipeline for near-extremal instances.

When a maximal pattern-free set Z holds roughly three quarters of the
vertices, the remaining vertices split by how much of Z's pair set their
link covers: the rich ones (X, link at least a (1-alpha) fraction) behave
like the small side of the tight construction, the poor ones (Y) are few.
Four stages then assemble a perfect tiling:

* Q: a maximum collection of copies using one Y vertex + three Z vertices;
* R: each Y vertex missed by Q, one X vertex and two Z vertices, glued by
  edges {x,y,z1} and {x,z1,z2};
* S: exactly max(q - ell, 0) copies on two X + two Z vertices (ell is the
  shortfall k - |X|), balancing the books so that afterwards exactly m
  X vertices and 3m Z vertices remain;
* T: an exact perfect matching in the 4-partite 4-graph on the X
  remainder and three equal Z slices, one copy per matched 4-set.

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
    is_D_free,
    mask_of,
    validate_tiling,
)
from .exact import (
    FOUND,
    SearchBudget,
    four_partite_degree_stats,
    four_partite_of,
    four_partite_perfect_matching,
)

# Exact maximum search for stage Q is affordable up to this many Y vertices.
Q_EXACT_LIMIT = 12


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

    @property
    def y_q(self) -> frozenset:
        return frozenset(v for c in self.q_copies for v in c.vertices) & frozenset(self.partition.y)

    def used(self, copies) -> set[int]:
        return {v for c in copies for v in c.vertices}


def _check_no_new_copy(G: Hypergraph3, zmask: int, zlist: list[int], v: int) -> bool:
    """True iff adding v to the pattern-free set Z keeps it pattern-free.

    A new copy must involve v: either v sits in the shared pair (some
    z with two common cohabitants inside Z) or v is a private vertex of a
    shared pair inside Z that already has another cohabitant.
    """
    vb = 1 << v
    for z in zlist:
        if (G.pair_bits(v, z) & zmask).bit_count() >= 2:
            return False
    for i, z1 in enumerate(zlist):
        for z2 in zlist[i + 1 :]:
            bits = G.pair_bits(z1, z2)
            if (bits & vb) and (bits & zmask):
                return False
    return True


def extend_to_maximal_D_free(G: Hypergraph3, S0) -> tuple[int, ...]:
    """Grow a pattern-free set to a maximal one, ascending vertex order."""
    S0 = sorted(set(S0))
    if not is_D_free(G, S0):
        raise InputError("seed set already contains a copy")
    zlist = list(S0)
    zmask = mask_of(zlist)
    for v in range(G.n):
        if (zmask >> v) & 1:
            continue
        if _check_no_new_copy(G, zmask, zlist, v):
            zlist.append(v)
            zlist.sort()
            zmask |= 1 << v
    return tuple(zlist)


def greedy_D_free_set(G: Hypergraph3) -> tuple[int, ...]:
    """Heuristic large pattern-free set: insert vertices by ascending edge
    degree (cheap proxy for how entangled a vertex is), keep what fits."""
    order = sorted(range(G.n), key=lambda v: (G.degree(v), v))
    zlist: list[int] = []
    zmask = 0
    for v in order:
        if _check_no_new_copy(G, zmask, zlist, v):
            zlist.append(v)
            zlist.sort()
            zmask |= 1 << v
    return tuple(zlist)


def _is_maximal_D_free(G: Hypergraph3, Z) -> bool:
    zlist = sorted(Z)
    zmask = mask_of(zlist)
    if not is_D_free(G, zlist):
        return False
    return all(
        (zmask >> v) & 1 or not _check_no_new_copy(G, zmask, zlist, v)
        for v in range(G.n)
    )


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


def _y_quads(G: Hypergraph3, y: int, zmask: int, zlist) -> list[tuple[int, ...]]:
    """4-sets spanning a copy with vertex y plus three Z vertices."""
    quads = set()
    for z in zlist:
        thirds = bits_of(G.pair_bits(y, z) & zmask)
        for i, a in enumerate(thirds):
            for b in thirds[i + 1 :]:
                quads.add(tuple(sorted((y, z, a, b))))
    yb = 1 << y
    for i, z1 in enumerate(zlist):
        for z2 in zlist[i + 1 :]:
            bits = G.pair_bits(z1, z2)
            if bits & yb:
                for z3 in bits_of(bits & zmask):
                    quads.add(tuple(sorted((y, z1, z2, z3))))
    return sorted(quads)


def build_Q(G: Hypergraph3, state: PipelineState) -> None:
    """Maximum tiling by copies on one Y vertex and three Z vertices.

    Exact (branch and bound over per-Y quad choices) while |Y| stays
    small; greedy first-fit beyond that, with the mode recorded.
    """
    part = state.partition
    zmask = mask_of(part.z)
    zlist = list(part.z)
    per_y = {y: _y_quads(G, y, zmask, zlist) for y in part.y}
    ys = list(part.y)
    k = G.n // 4
    state.ell = k - len(part.x)
    if len(ys) <= Q_EXACT_LIMIT:
        state.q_mode = "exact"
        best: list[tuple[int, ...]] = []

        def rec(idx: int, used: int, acc: list[tuple[int, ...]]):
            nonlocal best
            if len(acc) + (len(ys) - idx) <= len(best):
                return
            if idx == len(ys):
                if len(acc) > len(best):
                    best = list(acc)
                return
            y = ys[idx]
            for quad in per_y[y]:
                qm = mask_of(quad)
                if qm & used:
                    continue
                acc.append(quad)
                rec(idx + 1, used | qm, acc)
                acc.pop()
            rec(idx + 1, used, acc)

        rec(0, 0, [])
        chosen = best
    else:
        state.q_mode = "greedy"
        chosen = []
        used = 0
        for y in ys:
            for quad in per_y[y]:
                qm = mask_of(quad)
                if not (qm & used):
                    chosen.append(quad)
                    used |= qm
                    break
    state.q_copies = [dcopy_from_quad(G, quad) for quad in sorted(chosen)]
    state.q = len(state.q_copies)
    for c in state.q_copies:
        if len(set(c.vertices) & set(part.z)) != 3 or len(set(c.vertices) & set(part.y)) != 1:
            raise AssertionError(f"stage Q copy {c.vertices} is not one Y vertex plus three Z vertices")
    state.diagnostics.append(
        {
            "name": "q_covers_deficit",
            "ok": state.q >= state.ell,
            "detail": {"q": state.q, "ell": state.ell, "mode": state.q_mode},
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


def build_T(G: Hypergraph3, state: PipelineState, budget: SearchBudget | None = None) -> Tiling:
    """Finish with an exact 4-partite matching on the X remainder and
    three ascending Z slices.  The 4-partite graph is built from the pair
    index (``four_partite_of``), so its edges are exactly the transversal
    4-sets that span a copy."""
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
    if m == 0:
        tiling = Tiling.from_copies(
            state.q_copies + state.r_copies + state.s_copies
        )
        verdict = validate_tiling(G, tiling, require_perfect=True)
        if not verdict.ok:
            raise StageFailure("T", "; ".join(verdict.violations))
        return tiling
    H = four_partite_of(G, (free_x, free_z[:m], free_z[m : 2 * m], free_z[2 * m :]))
    state.matching_stats = four_partite_degree_stats(H, gamma=0.5)
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
    perfect tiling and a JSON-friendly run report."""
    if G.n % 4:
        raise InputError(f"perfect tiling needs 4 | n, got n={G.n}")
    part = partition_XYZ(G, Z, alpha)
    state = PipelineState(partition=part)
    state.diagnostics.extend(part.diagnostics)
    k = G.n // 4
    eps0 = alpha**3
    build_Q(G, state)
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
