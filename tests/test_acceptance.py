"""Acceptance suite: eight criteria, each printing one PASS/FAIL line.

Each test gathers violations first, prints its verdict line outside the
capture, then asserts, so the lines appear for failing criteria too.
"""

import itertools
import time

from dtiling import (
    DriverParams,
    build_absorbing_family,
    codegree,
    construct_G0,
    construct_G1,
    build,
    format_certificate,
    induced_perfect_tiling,
    max_D_free_set,
    max_tiling_exact,
    min_codegree,
    perfect_tiling_exact,
    planted_extremal,
    random_codegree_instance,
    solve_driver,
    steiner_triple_system,
    validate_family,
    validate_tiling,
)
from naive import naive_max_tiling_size, naive_perfect_partition

_CERTS: dict[str, dict] = {}


def announce(capsys, criterion, violations, detail):
    status = "PASS" if not violations else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {status} ({detail})")
    assert not violations, violations


def test_criterion_1_lower_bound_constructions(capsys):
    t0 = time.perf_counter()
    violations = []
    for n in (8, 16, 24):
        G = construct_G1(n)
        if min_codegree(G) != n // 4:
            violations.append(f"G1({n}) min_codegree {min_codegree(G)} != {n // 4}")
        if perfect_tiling_exact(G).status != "infeasible":
            violations.append(f"G1({n}) not proved infeasible")
    for n in (12, 20):
        G = construct_G0(n)
        if min_codegree(G) != n // 4 - 1:
            violations.append(f"G0({n}) min_codegree {min_codegree(G)} != {n // 4 - 1}")
        if perfect_tiling_exact(G).status != "infeasible":
            violations.append(f"G0({n}) not proved infeasible")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        violations.append(f"runtime {elapsed:.1f}s >= 10s")
    announce(capsys, 1, violations, f"5 constructions refuted in {elapsed:.2f}s")


def test_criterion_2_steiner_systems(capsys):
    t0 = time.perf_counter()
    violations = []
    orders = [m for m in range(7, 100) if m % 6 in (1, 3)]
    for m in orders:
        G = steiner_triple_system(m)
        if len(G.edges) != m * (m - 1) // 6:
            violations.append(f"STS({m}) has {len(G.edges)} blocks")
        bad = [
            (u, v)
            for u, v in itertools.combinations(range(m), 2)
            if codegree(G, u, v) != 1
        ]
        if bad:
            violations.append(f"STS({m}) pairs off codegree 1: {bad[:3]}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5:
        violations.append(f"runtime {elapsed:.1f}s >= 5s")
    announce(capsys, 2, violations, f"{len(orders)} systems checked in {elapsed:.2f}s")


def test_criterion_3_oracle_cross_validation(capsys):
    t0 = time.perf_counter()
    disagreements = []
    for seed in range(200):
        n = 8 if seed < 100 else 12
        d = seed % 3 + 1 if n == 8 else seed % 4 + 1
        G = random_codegree_instance(n, d, seed=seed)
        edges = sorted(G.edges)
        feasible = perfect_tiling_exact(G).status == "found"
        if feasible != (naive_perfect_partition(n, edges) is not None):
            disagreements.append(f"seed {seed}: feasibility bit")
        size = max_tiling_exact(G).tiling.size
        if size != naive_max_tiling_size(n, edges):
            disagreements.append(f"seed {seed}: max tiling size {size}")
    elapsed = time.perf_counter() - t0
    violations = list(disagreements)
    if elapsed >= 60:
        violations.append(f"runtime {elapsed:.1f}s >= 60s")
    announce(capsys, 3, violations, f"200 instances, 0 disagreements, {elapsed:.1f}s")


def test_criterion_4_dfree_bound_at_codegree_threshold(capsys):
    floors = {8: 3, 12: 3, 16: 5}
    violations = []
    checked = 0
    for i in range(50):
        n = [8, 12, 16][i % 3]
        G = random_codegree_instance(n, floors[n], seed=1000 + i)
        if min_codegree(G) < floors[n]:
            violations.append(f"seed {1000 + i}: codegree floor missed")
            continue
        checked += 1
        res = max_D_free_set(G)
        if res.status != "found":
            violations.append(f"seed {1000 + i}: search exhausted")
        elif len(res.vertices) > 3 * n // 4:
            violations.append(f"seed {1000 + i}: D-free set of size {len(res.vertices)}")
    announce(capsys, 4, violations, f"{checked} instances within 3n/4")


def run_extremal_batch():
    certs = {}
    for n in (8, 16, 24, 40):
        res = solve_driver(planted_extremal(n), DriverParams(seed=0))
        certs[n] = (res, format_certificate(res.tiling, "perfect") if res.tiling else None)
    return certs


def test_criterion_5_extremal_pipeline(capsys):
    t0 = time.perf_counter()
    violations = []
    batch = run_extremal_batch()
    for n, (res, _) in batch.items():
        G = planted_extremal(n)
        if res.status != "tiled" or res.report["branch"] != "extremal":
            violations.append(f"n={n}: branch {res.report.get('branch')} status {res.status}")
            continue
        if not validate_tiling(G, res.tiling, require_perfect=True).ok:
            violations.append(f"n={n}: certificate invalid")
        pipe = res.report["extremal"]
        sizes, stages, counts = pipe["sizes"], pipe["stages"], pipe["counts"]
        q, r, s, t = stages["q"], stages["r"], stages["s"], stages["t"]
        identities = [
            ("copy count", q + r + s + t == sizes["k"]),
            ("deficit", counts["m"] == sizes["k"] - sizes["y"] - (counts["q"] - counts["ell"])),
            ("y coverage", q + r == sizes["y"]),
            ("surplus", s == max(counts["q"] - counts["ell"], 0)),
            ("t copies", t == counts["m"]),
            ("z consumption", 3 * q + 2 * r + 2 * s + 3 * t == sizes["z"]),
            ("x consumption", r + 2 * s + counts["m"] == sizes["x"]),
        ]
        for name, holds in identities:
            if not holds:
                violations.append(f"n={n}: identity '{name}' broken: {pipe}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        violations.append(f"runtime {elapsed:.1f}s >= 30s")
    if not violations:
        _CERTS["extremal"] = {n: cert for n, (_, cert) in batch.items()}
    announce(capsys, 5, violations, f"4 planted orders, all identities exact, {elapsed:.2f}s")


ABSORPTION_CASES = [(48, 16, seed) for seed in range(10)] + [(64, 22, seed) for seed in range(10, 20)]


def run_absorption_batch():
    certs = {}
    for n, d, seed in ABSORPTION_CASES:
        G = random_codegree_instance(n, d, seed=seed)
        res = solve_driver(G, DriverParams(seed=seed))
        certs[(n, seed)] = (res, format_certificate(res.tiling) if res.tiling else None)
    return certs


def test_criterion_6_absorption_pipeline(capsys):
    t0 = time.perf_counter()
    violations = []
    solved = 0
    for n, d, seed in ABSORPTION_CASES:
        G = random_codegree_instance(n, d, seed=seed)
        if min_codegree(G) < n / 3:
            violations.append(f"n={n} seed {seed}: codegree below n/3")
            continue
        family = build_absorbing_family(G, seed=seed)
        validate_family(G, family)
        if len(family.covered) > 0.3 * n:
            violations.append(f"n={n} seed {seed}: family covers {len(family.covered)}")
    batch = run_absorption_batch()
    for (n, seed), (res, _) in batch.items():
        G = random_codegree_instance(n, {48: 16, 64: 22}[n], seed=seed)
        if res.tiling is not None:
            if not validate_tiling(G, res.tiling, require_perfect=True).ok:
                violations.append(f"n={n} seed {seed}: bad certificate")
            if res.status == "tiled" and res.report["branch"] == "non-extremal":
                solved += 1
        else:
            # a failure must be an explicit stall report
            if res.status not in ("exhausted", "infeasible") or not res.report["attempts"]:
                violations.append(f"n={n} seed {seed}: silent failure {res.report}")
    if solved < 18:
        violations.append(f"only {solved}/20 solved via the non-extremal branch")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        violations.append(f"runtime {elapsed:.1f}s >= 300s")
    if not violations:
        _CERTS["absorption"] = {key: cert for key, (_, cert) in batch.items()}
    announce(capsys, 6, violations, f"{solved}/20 non-extremal solves, {elapsed:.1f}s")


GADGET_EDGES = [
    (0, 1, 4),
    (0, 1, 5),
    (2, 3, 7),
    (2, 3, 8),
    (4, 7, 10),
    (5, 7, 10),
    (6, 8, 11),
    (6, 9, 10),
    (6, 9, 11),
]
CRITICAL_EDGES = [(6, 9, 10), (6, 9, 11)]
U = (0, 1, 2, 3)
S_U = tuple(range(4, 12))


def test_criterion_7_absorber_gadget(capsys):
    t0 = time.perf_counter()
    violations = []
    from dtiling import absorbs

    G = build(13, GADGET_EDGES)
    if not absorbs(G, S_U, U):
        violations.append("gadget does not absorb U")
    # removing one critical edge must flip a tileability check, per fresh exact runs
    expected = {(6, 9, 10): (True, False), (6, 9, 11): (False, False)}
    for edge in CRITICAL_EDGES:
        H = build(13, [e for e in GADGET_EDGES if e != edge])
        core = induced_perfect_tiling(H, S_U) is not None
        extension = induced_perfect_tiling(H, set(S_U) | set(U)) is not None
        if (core, extension) == (True, True):
            violations.append(f"removing {edge} flipped nothing")
        if (core, extension) != expected[edge]:
            violations.append(f"removing {edge}: got {(core, extension)}, expected {expected[edge]}")
        if absorbs(H, S_U, U):
            violations.append(f"removing {edge} left the gadget absorbing")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1:
        violations.append(f"runtime {elapsed:.2f}s >= 1s")
    announce(capsys, 7, violations, f"both flips match the solver, {elapsed * 1000:.0f}ms")


def test_criterion_8_deterministic_certificates(capsys):
    violations = []
    first_extremal = _CERTS.get("extremal") or {
        n: cert for n, (_, cert) in run_extremal_batch().items()
    }
    second_extremal = {n: cert for n, (_, cert) in run_extremal_batch().items()}
    if first_extremal != second_extremal:
        diff = [n for n in first_extremal if first_extremal[n] != second_extremal.get(n)]
        violations.append(f"extremal certificates differ at n={diff}")
    first_absorption = _CERTS.get("absorption") or {
        key: cert for key, (_, cert) in run_absorption_batch().items()
    }
    second_absorption = {key: cert for key, (_, cert) in run_absorption_batch().items()}
    if first_absorption != second_absorption:
        diff = [k for k in first_absorption if first_absorption[k] != second_absorption.get(k)]
        violations.append(f"absorption certificates differ at {diff}")
    reruns = len(second_extremal) + len(second_absorption)
    announce(capsys, 8, violations, f"{reruns} reruns byte-identical")
