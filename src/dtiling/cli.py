"""Command-line front end and the full solving driver.

The driver composes the pieces.  It first grows a maximal D-free set S
greedily, at every order.  When |S| > 3n/4 the instance is refuted at
once by the space barrier: every copy of a perfect tiling needs a vertex
outside S.  Otherwise, when G has at most ``SMALL_SEARCH_MAX_N``
vertices, auto mode runs the small-set search on all of G, which lists
no catalog; its answer, tiled or infeasible, is the solve's, as branch
``small-search``.  Its first descent is the greedy maximal tiling.  It
gives up once it has expanded ``G.m`` vertex sets, or n/4 on an extremal
G, so that there it succeeds exactly when the greedy tiling is perfect.
When it gives up, or G is larger, auto mode runs the extremal pipeline,
seeded by S, when |S| is at least the extremal threshold
t = (1 - eps) 3n/4, and else sets aside an absorbing family, tiles the
rest by the greedy maximal tiling, and absorbs the leftover; those steps
take their part of G as a vertex mask, so no subgraph is copied or
relabelled.  In auto mode any branch failure falls back to the exact
solver on all of G, the one quad catalog of G a solve builds; it also
refutes, within the budget, an instance whose barrier the greedy set
misses.
Forced modes report their own stall instead.  One ``SearchBudget``,
made when the solve starts, is the node pool and deadline of every
search in it: stages Q and T, the small-set search, which ticks it once
per expanded set, and the catalog search, which stops at once on a
spent budget.  The fallback's catalog reads it once per vertex row and
stops when it is spent; the greedy set runs no search, nor does the
absorption branch, so forced ``--mode absorb`` ticks none of it.
The report's ``dfree`` block holds what the greedy set measured: its
``size``, the ``threshold`` t and ``extremal`` (|S| >= t), plus S itself
as ``vertices`` at the space barrier; ``branch`` names the branch the
solve ended in.  ``small_search`` holds the small-set search's status
and nodes when it ran, and ``exact`` the catalog search's only when
that ran.
Exit codes of ``solve``: 0 tiled, 2 proven infeasible (by the space
barrier or by an exact search), 3 search exhausted or stalled, 64 usage
errors and malformed or oversized input.  ``verify`` exits 0 when the
certificate checks, 1 when its text is malformed or fails the check,
and 64 when the instance is malformed or either file cannot be opened.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import namedtuple

from .absorb import (
    AbsorptionFailure,
    ConstructionFailure,
    absorb_leftover,
    build_absorbing_family,
)
from .constructions import KINDS, build_instance, random_codegree_instance
from .core import (
    MAX_EDGES,
    MAX_N,
    Hypergraph3,
    InputError,
    Tiling,
    bits_of,
    is_D_free,
    mask_of,
    min_codegree,
    validate_tiling,
)
from .exact import (
    EXHAUSTED,
    FOUND,
    INFEASIBLE,
    NODE_LIMIT,
    TIME_LIMIT,
    SearchBudget,
    perfect_tiling_exact,
    small_tiling_exact,
)
from .extremal import (
    StageFailure,
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
    write_instance,
)
from .localsearch import near_perfect_tiling

# Auto mode runs the small-set search on all of G only up to this order.
SMALL_SEARCH_MAX_N = 24

EXIT_TILED = 0
EXIT_INFEASIBLE = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 64

# The solve's status, and its attempt's outcome, for each search status.
_OUTCOME = {FOUND: "tiled", INFEASIBLE: "infeasible", EXHAUSTED: "exhausted"}


class DriverParams(
    namedtuple(
        "DriverParams",
        "mode eps alpha seed node_limit time_limit",
        defaults=("auto", 0.25, 0.3, 0, NODE_LIMIT, TIME_LIMIT),
    )
):
    """The settings of one solve; ``mode`` is auto | extremal | absorb |
    exact, and the two limits are the whole solve's ``SearchBudget``."""

    __slots__ = ()


class DriverResult(namedtuple("DriverResult", "status tiling report")):
    """``status`` is tiled | infeasible | exhausted; ``tiling`` a Tiling
    or None; ``report`` the solve's report dict."""

    __slots__ = ()

    def __new__(cls, status: str, tiling: Tiling | None, report: dict | None = None):
        return super().__new__(cls, status, tiling, {} if report is None else report)


def solve_driver(G: Hypergraph3, params: DriverParams | None = None) -> DriverResult:
    """Run the layered strategy under one search budget.  The report's
    ``branch`` is the branch the solve ended in, ``attempts`` lists every
    branch tried, and in auto and extremal mode ``dfree`` holds what the
    greedy D-free set measured, timed as ``timings_ms["dfree"]``."""
    params = params or DriverParams()
    budget = SearchBudget(params.node_limit, params.time_limit)
    if G.n > MAX_N:
        raise InputError(f"the solver takes at most {MAX_N} vertices, got n={G.n}")
    if params.mode not in ("auto", "extremal", "absorb", "exact"):
        raise InputError(f"unknown mode {params.mode!r}")
    if G.n % 4:
        raise InputError(f"perfect tiling needs 4 | n, got n={G.n}")
    for name, value in (("eps", params.eps), ("alpha", params.alpha)):
        if not 0 < value < 1:
            raise InputError(f"{name} must lie in (0, 1), got {value}")

    report: dict = {
        "instance": {"n": G.n, "edges": G.m, "min_codegree": min_codegree(G)},
        "params": {
            "mode": params.mode,
            "eps": params.eps,
            "alpha": params.alpha,
            "seed": params.seed,
        },
        "attempts": [],
    }
    timings: dict[str, float] = {}

    def clocked(name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0) * 1000

    def finish(status: str, branch: str, tiling: Tiling | None) -> DriverResult:
        report["branch"] = branch
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
        threshold = (1 - params.eps) * (3 * G.n / 4)
        # The greedy D-free set is maximal as it stands: past 3n/4 it is
        # the space-barrier proof, and below it is the S the branches take.
        S = clocked("dfree", greedy_D_free_set, G)
        extremal_instance = len(S) >= threshold
        report["dfree"] = {"size": len(S), "threshold": threshold, "extremal": extremal_instance}
        # Space barrier: every copy of a perfect tiling needs a vertex
        # outside the D-free set S, so |S| > 3n/4 leaves too few of them.
        if 4 * len(S) > 3 * G.n:
            if not is_D_free(G, S):
                raise AssertionError("space-barrier set spans a copy")
            report["dfree"]["vertices"] = list(S)
            report["attempts"].append({"branch": "space-barrier", "outcome": "infeasible"})
            return finish("infeasible", "space-barrier", None)

    # The small-set search settles a small G with no catalog.  Its first
    # descent is the greedy tiling, and a success expands n/4 sets, so on
    # an extremal G the cap of n/4 keeps only that descent.
    if params.mode == "auto" and G.n <= SMALL_SEARCH_MAX_N:
        cap = G.n // 4 if extremal_instance else G.m
        res = clocked("small_search", small_tiling_exact, G, budget, cap)
        report["small_search"] = {"status": res.status, "nodes": res.nodes}
        report["attempts"].append({"branch": "small-search", "outcome": _OUTCOME[res.status]})
        if res.status != EXHAUSTED:
            return finish(_OUTCOME[res.status], "small-search", res.tiling)

    if params.mode == "extremal" or (params.mode == "auto" and extremal_instance):
        try:
            tiling, pipe_report = clocked(
                "extremal", run_extremal_pipeline, G, S, alpha=params.alpha, budget=budget
            )
            report["extremal"] = pipe_report
            report["attempts"].append({"branch": "extremal", "outcome": "tiled"})
            return finish("tiled", "extremal", tiling)
        except StageFailure as exc:
            report["attempts"].append(
                {"branch": "extremal", "outcome": "stage_failure", "reason": str(exc)}
            )
            if params.mode == "extremal":
                return finish("exhausted", "extremal", None)

    if params.mode == "absorb" or (params.mode == "auto" and not extremal_instance):
        outcome = _try_absorb_branch(G, params, report, clocked)
        if outcome is not None:
            return finish("tiled", "non-extremal", outcome)
        if params.mode == "absorb":
            return finish("exhausted", "non-extremal", None)

    res = clocked("exact", perfect_tiling_exact, G, budget)
    report["exact"] = {"status": res.status, "nodes": res.nodes, "optimal": res.optimal}
    report["attempts"].append({"branch": "exact", "outcome": _OUTCOME[res.status]})
    return finish(_OUTCOME[res.status], "exact-fallback", res.tiling)


def _try_absorb_branch(G, params, report, clocked):
    """Family + greedy tiling + absorption; None means the branch gave up."""
    try:
        family = clocked("family", build_absorbing_family, G, params.alpha, params.seed)
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
        "p": family.p,
    }
    rest = ((1 << G.n) - 1) & ~mask_of(family.covered)
    greedy = clocked("local_search", near_perfect_tiling, G, within=rest)
    leftover = rest & ~mask_of(greedy.covered)
    report["local_search"] = {"leftover": leftover.bit_count()}
    try:
        absorbed = clocked("absorb", absorb_leftover, G, family, bits_of(leftover))
    except AbsorptionFailure as exc:
        report["attempts"].append(
            {
                "branch": "non-extremal",
                "outcome": "absorption_failure",
                "block": list(exc.block),
            }
        )
        return None
    report["attempts"].append({"branch": "non-extremal", "outcome": "tiled"})
    return Tiling.from_copies(greedy.copies + absorbed.copies)


# ---------------------------------------------------------------------------
# command line


# argparse, json and concurrent.futures are imported by the functions
# that use them, so ``import dtiling`` does not load them for a library
# caller, which never runs a command.


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="dtiling", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    gen = sub.add_parser("gen", help="write a constructed instance")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--n", required=True, type=int, help="order (STS: number of points)")
    gen.add_argument("--d", type=int, default=None, help="target min codegree (kind=random)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output file (default: stdout)")

    defaults = DriverParams()
    solve = sub.add_parser("solve", help="run the layered driver")
    solve.add_argument("file", help="instance file, or - for stdin")
    solve.add_argument("--mode", choices=["auto", "extremal", "absorb", "exact"], default=defaults.mode)
    solve.add_argument("--alpha", type=float, default=defaults.alpha)
    solve.add_argument("--eps", type=float, default=defaults.eps)
    solve.add_argument("--seed", type=int, default=defaults.seed)
    solve.add_argument(
        "--node-limit", type=int, default=defaults.node_limit, help="search nodes for the whole solve"
    )
    solve.add_argument(
        "--time-limit", type=float, default=defaults.time_limit, help="deadline in seconds for the whole solve"
    )
    solve.add_argument("--cert", default=None, help="certificate output path")
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

    return parser


def _load_instance(path: str) -> Hypergraph3:
    if path == "-":
        return parse_instance(sys.stdin.read())
    return read_instance(path)


def _cmd_gen(args) -> int:
    G = build_instance(args.kind, args.n, args.seed, args.d)
    if args.out:
        write_instance(G, args.out)
    else:
        sys.stdout.write(format_instance(G))
    return 0


_STATUS_EXIT = {"tiled": EXIT_TILED, "infeasible": EXIT_INFEASIBLE, "exhausted": EXIT_EXHAUSTED}


def _cmd_solve(args) -> int:
    import json

    G = _load_instance(args.file)
    result = solve_driver(G, DriverParams(*(getattr(args, name) for name in DriverParams._fields)))
    report = result.report
    if args.no_timings:
        del report["timings_ms"]
    if result.tiling is not None:
        if args.cert:
            write_certificate(result.tiling, args.cert, "perfect")
            reread = read_certificate(args.cert)
            verdict = validate_tiling(G, reread.tiling, require_perfect=True)
            if not verdict.ok:
                raise AssertionError(f"written certificate failed revalidation: {verdict.violations}")
            report["certificate"] = args.cert
        else:
            report["certificate"] = None
            report["certificate_text"] = format_certificate(result.tiling, "perfect")
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


def _scan_seed(base: int, n: int, trial: int) -> int:
    return base * 1_000_003 + n * 1_009 + trial


def _scan_worker(task: tuple) -> dict:
    n, seed, d = task
    G = random_codegree_instance(n, d, seed)
    t0 = time.perf_counter()
    result = solve_driver(G, DriverParams(seed=seed))
    ms = (time.perf_counter() - t0) * 1000
    return {"solved": result.status == "tiled", "ms": ms, "branch": result.report["branch"]}


def _parse_n_range(parser, spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error(f"--n-range must be A:B:STEP, got {spec!r}")
    try:
        a, b, step = (int(p) for p in parts)
    except ValueError:
        parser.error(f"--n-range fields must be integers, got {spec!r}")
    if step <= 0 or a > b or a <= 0:
        parser.error(f"--n-range needs 0 < A <= B and STEP > 0, got {spec!r}")
    if b > MAX_N:
        parser.error(f"--n-range values must be at most MAX_N = {MAX_N}, got B = {b}")
    values = list(range(a, b + 1, step))
    if any(v % 4 for v in values):
        parser.error("--n-range values must be divisible by 4")
    # Each trial samples all C(n, 3) triples, as gen --kind random does.
    edges = math.comb(values[-1], 3)
    if edges > MAX_EDGES:
        parser.error(f"--n-range order {values[-1]} gives up to {edges} edges; the most is MAX_EDGES = {MAX_EDGES}")
    return values


# The branches an auto-mode solve can end in, each counted per scan line.
SCAN_BRANCHES = ("extremal", "non-extremal", "small-search", "exact-fallback", "space-barrier")


def _nearest_rank(ordered: list[float], q: float) -> float:
    """The q-quantile of an ascending list by the nearest-rank rule."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _cmd_scan(args, parser) -> int:
    import concurrent.futures
    import json

    values = _parse_n_range(parser, args.n_range)
    if args.trials <= 0 or args.jobs <= 0:
        parser.error("--trials and --jobs must be positive")
    tasks = [
        (n, _scan_seed(args.seed, n, t), n // 4 + args.d_offset)
        for n in values
        for t in range(args.trials)
    ]
    # A fork pool starts all its workers at once: never more than tasks or CPUs.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_worker, tasks))
    else:
        results = [_scan_worker(t) for t in tasks]
    # Both paths return the results in task order: each n's trials in turn.
    for i, n in enumerate(values):
        rows = results[i * args.trials : (i + 1) * args.trials]
        solved = sum(r["solved"] for r in rows)
        branches = dict.fromkeys(SCAN_BRANCHES, 0)
        for r in rows:
            branches[r["branch"]] += 1
        line = {
            "n": n,
            "d": n // 4 + args.d_offset,
            "trials": args.trials,
            "solved": solved,
            "fraction": solved / args.trials,
            "branches": branches,
        }
        if not args.no_timings:
            ms = sorted(r["ms"] for r in rows)
            line["mean_ms"] = round(sum(ms) / args.trials, 3)
            line["p50_ms"] = round(_nearest_rank(ms, 0.5), 3)
            line["p90_ms"] = round(_nearest_rank(ms, 0.9), 3)
            line["max_ms"] = round(ms[-1], 3)
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command!r}")


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
