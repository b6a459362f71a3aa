"""Command-line front end and the full solving driver.

The driver composes the pieces: certify how extremal the instance is via
a maximum (or greedy-maximal) D-free set, run the extremal pipeline when
the set is within eps of 3n/4, otherwise set aside an absorbing family,
tile the rest near-perfectly, and absorb the leftover.  In auto mode any
branch failure falls back to the exact solver; forced modes report their
own stall instead.  Exit codes: 0 tiled, 2 proven infeasible, 3 search
exhausted or stalled, 64 usage errors.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import time
from dataclasses import dataclass, field

from .absorb import (
    AbsorptionFailure,
    AbsorptionParams,
    ConstructionFailure,
    absorb_leftover,
    build_absorbing_family,
    induced_perfect_tiling,
)
from .constructions import KINDS, ConstructionSpec, build_instance, random_codegree_instance
from .core import (
    Hypergraph3,
    InputError,
    Tiling,
    induced_subgraph,
    map_copy,
    min_codegree,
    validate_tiling,
)
from .exact import (
    EXHAUSTED,
    FOUND,
    INFEASIBLE,
    SearchBudget,
    max_D_free_set,
    perfect_tiling_exact,
)
from .extremal import (
    StageFailure,
    extend_to_maximal_D_free,
    greedy_D_free_set,
    run_extremal_pipeline,
)
from .io import (
    format_certificate,
    format_instance,
    parse_instance,
    read_certificate,
    read_instance,
    write_certificate,
)
from .localsearch import near_perfect_tiling

EXACT_DFREE_MAX_N = 24
LEFTOVER_EXACT_CAP = 32
PAPER_EPS0 = 1e-18
PAPER_ALPHA = PAPER_EPS0 ** (1 / 3)

EXIT_TILED = 0
EXIT_INFEASIBLE = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 64


@dataclass
class DriverParams:
    mode: str = "auto"  # auto | extremal | absorb | exact
    eps: float = 0.25
    alpha: float = 0.3
    gamma: float = 0.1
    seed: int = 0
    node_limit: int = 10_000_000
    time_limit: float = 60.0
    paper_constants: bool = False
    collect_timings: bool = True


@dataclass
class DriverResult:
    status: str  # tiled | infeasible | exhausted
    tiling: Tiling | None
    report: dict = field(default_factory=dict)


def _dfree_certificate(G: Hypergraph3, budget: SearchBudget):
    if G.n <= EXACT_DFREE_MAX_N:
        res = max_D_free_set(G, budget)
        method = "exact" if res.status == FOUND else "exact-budget"
        S = extend_to_maximal_D_free(G, res.vertices)
    else:
        method = "greedy"
        S = extend_to_maximal_D_free(G, greedy_D_free_set(G))
    return S, method


def solve_driver(G: Hypergraph3, params: DriverParams | None = None) -> DriverResult:
    """Run the layered strategy; the report explains every branch taken."""
    params = params or DriverParams()
    if params.mode not in ("auto", "extremal", "absorb", "exact"):
        raise InputError(f"unknown mode {params.mode!r}")
    if G.n % 4:
        raise InputError(f"perfect tiling needs 4 | n, got n={G.n}")
    eps, alpha, gamma = params.eps, params.alpha, params.gamma
    warnings: list[str] = []
    if params.paper_constants:
        eps, alpha, gamma = PAPER_EPS0, PAPER_ALPHA, PAPER_ALPHA
        warnings.append(
            "paper constants installed (eps=1e-18, alpha=gamma=1e-6); "
            "randomized stages will usually no-op at feasible n"
        )
    for name, value in (("eps", eps), ("alpha", alpha), ("gamma", gamma)):
        if not 0 < value < 1:
            raise InputError(f"{name} must lie in (0, 1), got {value}")

    report: dict = {
        "instance": {"n": G.n, "edges": G.m, "min_codegree": min_codegree(G)},
        "params": {
            "mode": params.mode,
            "eps": eps,
            "alpha": alpha,
            "gamma": gamma,
            "seed": params.seed,
            "paper_constants": params.paper_constants,
        },
        "attempts": [],
        "warnings": warnings,
    }
    timings: dict[str, float] = {}
    budget = SearchBudget(params.node_limit, params.time_limit)

    def clocked(name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0) * 1000

    def finish(status: str, tiling: Tiling | None) -> DriverResult:
        if params.collect_timings:
            report["timings_ms"] = {k: round(v, 3) for k, v in timings.items()}
        report["verdict"] = status
        if tiling is not None:
            verdict = validate_tiling(G, tiling, require_perfect=True)
            if not verdict.ok:
                raise AssertionError(f"driver produced an invalid tiling: {verdict.violations}")
        return DriverResult(status, tiling, report)

    extremal_instance = False
    S: tuple[int, ...] = ()
    if params.mode in ("auto", "extremal"):
        cert_budget = SearchBudget(min(params.node_limit, 2_000_000), min(params.time_limit, 10.0))
        S, method = clocked("certificate", _dfree_certificate, G, cert_budget)
        threshold = (1 - eps) * (3 * G.n / 4)
        extremal_instance = len(S) >= threshold
        report["dfree"] = {
            "size": len(S),
            "method": method,
            "threshold": threshold,
            "extremal": extremal_instance,
        }

    if params.mode == "extremal" or (params.mode == "auto" and extremal_instance):
        try:
            tiling, pipe_report = clocked(
                "extremal", run_extremal_pipeline, G, S, alpha=alpha, budget=budget
            )
            report["branch"] = "extremal"
            report["extremal"] = pipe_report
            report["attempts"].append({"branch": "extremal", "outcome": "tiled"})
            return finish("tiled", tiling)
        except (StageFailure, InputError) as exc:
            report["attempts"].append(
                {"branch": "extremal", "outcome": "stage_failure", "reason": str(exc)}
            )
            if params.mode == "extremal":
                report["branch"] = "extremal"
                return finish("exhausted", None)

    if params.mode == "absorb" or (params.mode == "auto" and not extremal_instance):
        outcome = _try_absorb_branch(G, params, alpha, gamma, budget, report, clocked)
        if outcome is not None:
            return finish("tiled", outcome)
        if params.mode == "absorb":
            report["branch"] = "non-extremal"
            return finish("exhausted", None)

    res = clocked("exact", perfect_tiling_exact, G, budget)
    report["branch"] = "exact-fallback"
    report["exact"] = {"status": res.status, "nodes": res.nodes, "optimal": res.optimal}
    if res.status == FOUND:
        report["attempts"].append({"branch": "exact", "outcome": "tiled"})
        return finish("tiled", res.tiling)
    report["attempts"].append({"branch": "exact", "outcome": res.status})
    return finish("infeasible" if res.status == INFEASIBLE else "exhausted", None)


def _try_absorb_branch(G, params, alpha, gamma, budget, report, clocked):
    """Family + local search + absorption; None means the branch gave up."""
    aparams = AbsorptionParams(
        alpha=alpha, seed=params.seed, use_nominal_rate=params.paper_constants
    )
    try:
        family = clocked("family", build_absorbing_family, G, aparams)
    except ConstructionFailure as exc:
        report["attempts"].append(
            {
                "branch": "non-extremal",
                "outcome": "family_construction_failure",
                "reason": str(exc)[:400],
            }
        )
        return None
    report["family"] = {
        "members": len(family.members),
        "covered": len(family.covered),
        "sigma": family.sigma,
        "p": family.p,
        "omega": family.omega,
    }
    rest = sorted(set(range(G.n)) - family.covered)
    H, mapping = induced_subgraph(G, rest)
    ls = clocked("local_search", near_perfect_tiling, H, gamma)
    report["local_search"] = ls.report
    partial = Tiling.from_copies(map_copy(c, mapping) for c in ls.tiling.copies)
    leftover = sorted(set(rest) - set(partial.covered))
    report["leftover"] = len(leftover)
    try:
        absorbed = clocked("absorb", absorb_leftover, G, family, leftover)
        report["branch"] = "non-extremal"
        report["attempts"].append({"branch": "non-extremal", "outcome": "tiled"})
        return Tiling.from_copies(partial.copies + absorbed.copies)
    except AbsorptionFailure as exc:
        report["attempts"].append(
            {
                "branch": "non-extremal",
                "outcome": "absorption_failure",
                "block": list(exc.block),
            }
        )
        region = sorted(set(family.covered) | set(leftover))
        if len(region) <= LEFTOVER_EXACT_CAP:
            joint = clocked("absorb_exact", induced_perfect_tiling, G, region, budget)
            if joint is not None:
                report["branch"] = "non-extremal"
                report["attempts"].append(
                    {"branch": "non-extremal", "outcome": "tiled_by_leftover_exact"}
                )
                return Tiling.from_copies(partial.copies + joint.copies)
        report["attempts"].append(
            {"branch": "non-extremal", "outcome": "leftover_exact_failed", "region": len(region)}
        )
        return None


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dtiling", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    gen = sub.add_parser("gen", help="write a constructed instance")
    gen.add_argument("--kind", required=True, choices=[k for k in KINDS if k != "complete3p"])
    gen.add_argument("--n", required=True, type=int, help="order (STS: number of points)")
    gen.add_argument("--d", type=int, default=None, help="target min codegree (kind=random)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output file (default: stdout)")

    solve = sub.add_parser("solve", help="run the layered driver")
    solve.add_argument("file", help="instance file, or - for stdin")
    solve.add_argument("--mode", choices=["auto", "extremal", "absorb", "exact"], default="auto")
    solve.add_argument("--alpha", type=float, default=0.3)
    solve.add_argument("--gamma", type=float, default=0.1)
    solve.add_argument("--eps", type=float, default=0.25)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--node-limit", type=int, default=10_000_000)
    solve.add_argument("--time-limit", type=float, default=60.0)
    solve.add_argument("--cert", default=None, help="certificate output path")
    solve.add_argument("--paper-constants", action="store_true")
    solve.add_argument("--no-timings", action="store_true", help="omit timings for byte-stable output")

    verify = sub.add_parser("verify", help="check a certificate against an instance")
    verify.add_argument("file", help="instance file, or - for stdin")
    verify.add_argument("--cert", required=True)
    verify.add_argument("--perfect", action="store_true", help="require a perfect tiling")

    scan = sub.add_parser("scan", help="random-instance solve-rate table, JSON lines")
    scan.add_argument("--n-range", required=True, help="A:B:STEP, inclusive, multiples of 4")
    scan.add_argument("--trials", type=int, default=5)
    scan.add_argument("--d-offset", type=int, choices=[-1, 0, 1], default=0)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--jobs", type=int, default=1)
    scan.add_argument("--no-timings", action="store_true")

    oracle = sub.add_parser("oracle", help="exact solver only (ground truth)")
    oracle.add_argument("file", help="instance file, or - for stdin")
    oracle.add_argument("--node-limit", type=int, default=10_000_000)
    oracle.add_argument("--time-limit", type=float, default=60.0)
    oracle.add_argument("--cert", default=None)

    return parser


def _load_instance(path: str) -> Hypergraph3:
    if path == "-":
        return parse_instance(sys.stdin.read())
    return read_instance(path)


def _cmd_gen(args) -> int:
    d = args.d
    if args.kind == "random" and d is None:
        d = args.n // 4
    spec = ConstructionSpec(kind=args.kind, n=args.n, seed=args.seed, target_codegree=d)
    G = build_instance(spec)
    text = format_instance(G)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_STATUS_EXIT = {"tiled": EXIT_TILED, "infeasible": EXIT_INFEASIBLE, "exhausted": EXIT_EXHAUSTED}


def _cmd_solve(args) -> int:
    G = _load_instance(args.file)
    params = DriverParams(
        mode=args.mode,
        eps=args.eps,
        alpha=args.alpha,
        gamma=args.gamma,
        seed=args.seed,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        paper_constants=args.paper_constants,
        collect_timings=not args.no_timings,
    )
    result = solve_driver(G, params)
    report = result.report
    if result.tiling is not None:
        kind = "perfect" if len(result.tiling.covered) == G.n else "partial"
        text = format_certificate(result.tiling, kind)
        if args.cert:
            write_certificate(result.tiling, args.cert, kind)
            reread = read_certificate(args.cert)
            verdict = validate_tiling(G, reread.tiling, require_perfect=kind == "perfect")
            if not verdict.ok:
                raise AssertionError(f"written certificate failed revalidation: {verdict.violations}")
            report["certificate"] = args.cert
        else:
            report["certificate"] = None
            report["certificate_text"] = text
    else:
        report["certificate"] = None
    print(json.dumps(report, indent=2, sort_keys=True))
    return _STATUS_EXIT[result.status]


def _cmd_verify(args) -> int:
    G = _load_instance(args.file)
    try:
        cert = read_certificate(args.cert)
    except InputError as exc:
        print(f"certificate unreadable: {exc}")
        return 1
    require_perfect = args.perfect or cert.kind == "perfect"
    verdict = validate_tiling(G, cert.tiling, require_perfect=require_perfect)
    if verdict.ok:
        print(f"ok: {cert.kind} certificate with {cert.tiling.size} copies")
        return 0
    for line in verdict.violations:
        print(line)
    return 1


def _cmd_oracle(args) -> int:
    G = _load_instance(args.file)
    res = perfect_tiling_exact(G, SearchBudget(args.node_limit, args.time_limit))
    report = {
        "n": G.n,
        "status": res.status,
        "nodes": res.nodes,
        "copies": res.tiling.size if res.tiling is not None else None,
    }
    if args.cert and res.tiling is not None:
        write_certificate(res.tiling, args.cert, "perfect")
        report["certificate"] = args.cert
    print(json.dumps(report, indent=2, sort_keys=True))
    return {FOUND: EXIT_TILED, INFEASIBLE: EXIT_INFEASIBLE, EXHAUSTED: EXIT_EXHAUSTED}[res.status]


def _scan_seed(base: int, n: int, trial: int) -> int:
    return base * 1_000_003 + n * 1_009 + trial


def _scan_worker(task: tuple) -> dict:
    n, trial, seed, d = task
    G = random_codegree_instance(n, d, seed)
    t0 = time.perf_counter()
    result = solve_driver(G, DriverParams(seed=seed, collect_timings=False))
    ms = (time.perf_counter() - t0) * 1000
    return {"n": n, "trial": trial, "solved": result.status == "tiled", "ms": ms}


def _parse_n_range(parser: _Parser, spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error(f"--n-range must be A:B:STEP, got {spec!r}")
    try:
        a, b, step = (int(p) for p in parts)
    except ValueError:
        parser.error(f"--n-range fields must be integers, got {spec!r}")
    if step <= 0 or a > b or a <= 0:
        parser.error(f"--n-range needs 0 < A <= B and STEP > 0, got {spec!r}")
    values = list(range(a, b + 1, step))
    if any(v % 4 for v in values):
        parser.error("--n-range values must be divisible by 4")
    return values


def _cmd_scan(args, parser: _Parser) -> int:
    values = _parse_n_range(parser, args.n_range)
    if args.trials <= 0 or args.jobs <= 0:
        parser.error("--trials and --jobs must be positive")
    tasks = [
        (n, t, _scan_seed(args.seed, n, t), n // 4 + args.d_offset)
        for n in values
        for t in range(args.trials)
    ]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_scan_worker, tasks))
    else:
        results = [_scan_worker(t) for t in tasks]
    by_key = {(r["n"], r["trial"]): r for r in results}
    for n in values:
        rows = [by_key[(n, t)] for t in range(args.trials)]
        solved = sum(r["solved"] for r in rows)
        line = {
            "n": n,
            "d": n // 4 + args.d_offset,
            "trials": args.trials,
            "solved": solved,
            "fraction": solved / args.trials,
        }
        if not args.no_timings:
            line["mean_ms"] = round(sum(r["ms"] for r in rows) / args.trials, 3)
        print(json.dumps(line, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required")
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "scan":
            return _cmd_scan(args, parser)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command!r}")


def main_entry() -> None:
    sys.exit(main())
