"""Absorbing families: flexible 8-sets that swallow leftover 4-sets.

An 8-set S absorbs a disjoint 4-set U when both the subgraph induced on S
and the one induced on S + U admit perfect tilings; exactness of those
two checks is never compromised.  A family of pairwise disjoint absorbers
set aside before the main tiling lets the driver finish: whatever 4-sets
the greedy tiling leaves uncovered are handed to distinct family members,
each re-tiled together with its 4-set, while idle members fall back to
their cached own tilings.

One kernel answers every set, with no subgraph copy, quad catalog or
search budget: the exact small-set search of ``exact.tileable`` on the
set's vertex mask.  The probes ask ``tileable``; where a tiling is kept
(each member's cached own tiling, and the joint tiling of the member a
leftover 4-set is handed to) the same search returns it through
``exact.induced_perfect_tiling``.

Family construction follows the probabilistic recipe: draw a binomial
number of uniform 8-sets, delete both sides of every overlapping pair,
keep only members that are tileable and absorb at least one probed 4-set,
and retry with fresh randomness, at most ``MAX_RETRIES`` times, until the
family is nonempty and uses at most alpha * n vertices.  The paper's
nominal rate alpha*sigma/(16 n^7) is far below one expected member at any
reachable order, so the rate targets alpha*n/16 expected members, the
family size the nominal rate reaches only asymptotically.  Since the rate
does not depend on the absorber density sigma, a solve never estimates
it; ``estimate_absorber_density`` remains a library function.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .core import (
    Hypergraph3,
    InputError,
    Tiling,
    mask_of,
    validate_tiling,
)
from .exact import induced_perfect_tiling, tileable

SIGMA_SAMPLES = 200
SIGMA_FLOOR = 1e-3
PROBE_LIMIT = 500
MAX_RETRIES = 20


class ConstructionFailure(RuntimeError):
    """No admissible absorbing family within the retry budget."""

    def __init__(self, stats: dict):
        super().__init__(f"absorbing family construction failed: {stats}")
        self.stats = stats


class AbsorptionFailure(RuntimeError):
    """Some leftover 4-set found no unused absorbing member."""

    def __init__(self, block: tuple[int, ...]):
        super().__init__(f"no unused member absorbs {block}")
        self.block = block


def absorbs(G: Hypergraph3, S, U) -> bool:
    """Exact absorption test: G[S] and G[S + U] both perfectly tileable."""
    S, U = set(S), set(U)
    if len(S) != 8 or len(U) != 4:
        raise InputError(f"need |S| = 8 and |U| = 4, got {len(S)} and {len(U)}")
    if S & U:
        raise InputError(f"S and U overlap: {sorted(S & U)}")
    if any(not 0 <= v < G.n for v in S | U):
        raise InputError("S or U out of range")
    s_mask = mask_of(S)
    return tileable(G, s_mask) and tileable(G, s_mask | mask_of(U))


def desk_sampling_rate(alpha: float, n: int) -> float:
    """Rate giving alpha*n/16 expected members."""
    if n < 8:
        return 0.0
    return (alpha * n / 16) / math.comb(n, 8)


def estimate_absorber_density(G: Hypergraph3, rng: random.Random, samples: int = SIGMA_SAMPLES) -> float:
    """Empirical fraction of absorbing (8-set, 4-set) draws, floored.

    The solve does not call this: the sampling rate does not depend on
    the density, so it is a library function for analysis only.
    """
    if G.n < 12:
        return SIGMA_FLOOR
    hits = 0
    for _ in range(samples):
        S = rng.sample(range(G.n), 8)
        rest = sorted(set(range(G.n)) - set(S))
        U = rng.sample(rest, 4)
        if absorbs(G, S, U):
            hits += 1
    return max(hits / samples, SIGMA_FLOOR)


def _binomial_draw(rng: random.Random, trials: int, p: float) -> int:
    """Exact inverse-transform Binomial(trials, p) sample; cheap because
    the means used here are tiny."""
    if p <= 0.0 or trials <= 0:
        return 0
    if p >= 1.0:
        return trials
    u = rng.random()
    log_p, log_q = math.log(p), math.log1p(-p)
    k = 0
    log_comb = 0.0
    cdf = math.exp(trials * log_q)
    while u > cdf and k < trials:
        log_comb += math.log(trials - k) - math.log(k + 1)
        k += 1
        cdf += math.exp(log_comb + k * log_p + (trials - k) * log_q)
    return k


class AbsorberFamily(namedtuple("AbsorberFamily", "members tilings covered alpha p stats")):
    """Pairwise disjoint absorbing 8-sets (``members``) with their own
    tilings, the frozenset of vertices they cover, the ``alpha`` and rate
    ``p`` they were drawn with, and the construction's ``stats`` dict (so
    a family is unhashable)."""

    __slots__ = ()

    def __new__(cls, members, tilings, covered, alpha: float, p: float, stats: dict | None = None):
        return super().__new__(cls, members, tilings, covered, alpha, p, {} if stats is None else stats)


def build_absorbing_family(G: Hypergraph3, alpha: float = 0.3, seed: int = 0) -> AbsorberFamily:
    """Sample, prune, and validate an absorbing family (see module doc).

    ``alpha`` is the vertex budget fraction, which also sets the sampling
    rate, and ``seed`` seeds the family's RNG.  Raises
    :class:`ConstructionFailure` with attempt statistics when every retry
    ends empty or oversized.
    """
    if not 0 < alpha < 1:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    rng = random.Random(seed)
    stats: dict = {"attempts": []}
    max_members = int(alpha * G.n) // 8
    if max_members < 1:
        stats["reason"] = f"vertex budget alpha*n = {alpha * G.n:.2f} admits no 8-set"
        raise ConstructionFailure(stats)
    p = desk_sampling_rate(alpha, G.n)
    total = math.comb(G.n, 8)

    for _ in range(MAX_RETRIES):
        drawn = _binomial_draw(rng, total, p)
        sampled: list[tuple[int, ...]] = []
        seen = set()
        while len(sampled) < drawn:
            s = tuple(sorted(rng.sample(range(G.n), 8)))
            if s not in seen:
                seen.add(s)
                sampled.append(s)
        # (a) delete both sides of every overlapping pair
        masks = [mask_of(s) for s in sampled]
        disjoint = [
            s
            for i, s in enumerate(sampled)
            if not any(masks[i] & masks[j] for j in range(len(sampled)) if j != i)
        ]
        # (b) keep tileable members absorbing at least one probed 4-set
        members: list[tuple[int, ...]] = []
        tilings: list[Tiling] = []
        for s in disjoint:
            own = induced_perfect_tiling(G, s)
            if own is not None and _probed_absorption(G, s, rng):
                members.append(s)
                tilings.append(own)
        record = {
            "drawn": drawn,
            "after_overlap": len(disjoint),
            "after_probe": len(members),
        }
        stats["attempts"].append(record)
        if members and len(members) <= max_members:
            covered = frozenset(v for s in members for v in s)
            family = AbsorberFamily(
                members=tuple(members),
                tilings=tuple(tilings),
                covered=covered,
                alpha=alpha,
                p=p,
                stats=stats,
            )
            validate_family(G, family)
            return family
    raise ConstructionFailure(stats)


def _probed_absorption(G, s, rng) -> bool:
    rest = sorted(set(range(G.n)) - set(s))
    s_mask = mask_of(s)
    limit = min(PROBE_LIMIT, math.comb(len(rest), 4))
    for _ in range(limit):
        U = rng.sample(rest, 4)
        # G[s] is already known tileable here, only the joint check remains.
        if tileable(G, s_mask | mask_of(U)):
            return True
    return False


def validate_family(G: Hypergraph3, family: AbsorberFamily) -> None:
    """Machine-check the family invariants; InputError on any breach."""
    seen: set[int] = set()
    for s, own in zip(family.members, family.tilings):
        if len(s) != 8 or set(s) & seen:
            raise InputError("family members must be disjoint 8-sets")
        seen |= set(s)
        verdict = validate_tiling(G, own)
        if not verdict.ok or set(own.covered) != set(s):
            raise InputError(f"cached tiling invalid for member {s}")
    if len(seen) > family.alpha * G.n:
        raise InputError("family exceeds its vertex budget")


def absorb_leftover(G: Hypergraph3, family: AbsorberFamily, W) -> Tiling:
    """Tile the family's vertices together with the leftover W.

    W is chunked into ascending 4-sets; each chunk goes to the first
    unused member whose union with it has a perfect tiling, and that
    tiling is kept; remaining members contribute their cached tilings.
    """
    W = sorted(set(W))
    if set(W) & family.covered:
        raise InputError("leftover vertices overlap the family")
    if (len(W) + len(family.covered)) % 4:
        raise InputError(
            f"family plus leftover covers {len(W) + len(family.covered)} vertices, not divisible by 4"
        )
    if len(W) % 4:
        raise InputError(f"leftover size {len(W)} not divisible by 4")
    blocks = [tuple(W[i : i + 4]) for i in range(0, len(W), 4)]
    used: set[int] = set()
    copies = []
    for block in blocks:
        for idx, member in enumerate(family.members):
            if idx not in used and (joint := induced_perfect_tiling(G, (*member, *block))) is not None:
                break
        else:
            raise AbsorptionFailure(block)
        used.add(idx)
        copies.extend(joint.copies)
    for idx, own in enumerate(family.tilings):
        if idx not in used:
            copies.extend(own.copies)
    tiling = Tiling.from_copies(copies)
    verdict = validate_tiling(G, tiling)
    expected = set(family.covered) | set(W)
    if not verdict.ok or set(tiling.covered) != expected:
        raise AssertionError(f"leftover absorption produced an invalid tiling: {verdict.violations}")
    return tiling
