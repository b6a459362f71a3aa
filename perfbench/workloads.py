"""Seeded instance lists for the solve benchmark.

Each workload is a list of ``Instance`` values: an id, the instance text
the solver receives, and the verdict the solve must reach.  Everything is
derived from the workload seed: random instances draw their generator
seeds from it, and the structured families (G0, G1, planted) are
relabelled by a seeded vertex permutation, which keeps them isomorphic to
the constructions and so keeps their known verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Verdicts a solve must reach; "decided" accepts tiled or infeasible.
TILED, INFEASIBLE, DECIDED = "tiled", "infeasible", "decided"


@dataclass(frozen=True)
class Instance:
    id: str
    text: str
    expect: str


def _relabel(dt, G, rng: random.Random) -> str:
    perm = list(range(G.n))
    rng.shuffle(perm)
    return dt.format_instance(dt.build(G.n, ([perm[v] for v in e] for e in G.edges)))


def _random(dt, n: int, d: int, rng: random.Random) -> str:
    return dt.format_instance(dt.random_codegree_instance(n, d, rng.randrange(2**32)))


def threshold(dt, rng: random.Random) -> list[Instance]:
    """Minimum codegree at n/4 - 1, n/4, n/4 + 1 (exact certificate and
    exact fallback), plus the G0/G1 witnesses that refute at the root."""
    out = []
    for n in (16, 20):
        for off in (-1, 0, 1):
            for k in range(2):
                d = n // 4 + off
                out.append(Instance(f"random-n{n}-d{d}-{k}", _random(dt, n, d, rng), DECIDED))
    for n in range(16, 41, 4):
        out.append(Instance(f"g0-n{n}", _relabel(dt, dt.construct_G0(n), rng), INFEASIBLE))
    for n in (16, 24, 32, 40):
        out.append(Instance(f"g1-n{n}", _relabel(dt, dt.construct_G1(n), rng), INFEASIBLE))
    return out


def dense(dt, rng: random.Random) -> list[Instance]:
    """Codegree about n/3: the non-extremal branch (absorbing family,
    local search, absorption)."""
    return [
        Instance(f"random-n{n}-d{d}-{k}", _random(dt, n, d, rng), DECIDED)
        for n, d in ((48, 16), (64, 22), (96, 32))
        for k in range(3)
    ]


def planted(dt, rng: random.Random) -> list[Instance]:
    """Planted extremal instances: the Q/R/S/T pipeline, dominated by the
    T-stage 4-partite matching."""
    out = []
    for n in (48, 64, 80, 96):
        base = dt.planted_extremal(n)
        out.extend(
            Instance(f"planted-n{n}-{k}", _relabel(dt, base, rng), TILED) for k in range(2)
        )
    return out


WORKLOADS = {"threshold": threshold, "dense": dense, "planted": planted}


def generate(dt, workload: str, seed: int) -> list[Instance]:
    """The instance list of ``workload`` at ``seed``; ``dt`` is the package."""
    return WORKLOADS[workload](dt, random.Random(f"{workload}:{seed}"))
