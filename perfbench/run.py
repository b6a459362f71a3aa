"""Solve benchmark: seeded workloads through the CLI's text path.

Run from the repository root:

    python3 perfbench/run.py --workload threshold --seed 0 --seconds 38 --trace 0

Each solve goes instance text -> io.parse_instance -> cli.solve_driver ->
io.format_certificate -> io.parse_certificate -> core.validate_tiling,
as ``dtiling solve --cert`` does.  A workload is a closed loop: one client
in this process, one solve at a time, passes over the instance list for
about ``--seconds``.

Times are corrected for the host's speed.  The host is shared and its
speed drifts by up to half between minutes, which moves wall-clock times
between runs of the same code far more than the code does.  So a fixed
probe task (``probe``) is timed before the first solve of a pass and
after every solve, and each solve's wall time is scaled by
``PROBE_NOMINAL_S`` over the mean of the probe times on either side of
it.  The result reads as seconds on a host where the probe takes
``PROBE_NOMINAL_S``; the probe does not call the package, so a change to
the solver moves only the numerator.  The detail line keeps the raw
wall-clock figures.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` is a separate process that alternates traced and untraced
passes and prints the per-layer metrics; ``trace.overhead`` compares the
two kinds of pass, which run under the same machine load.  Metric names
and units come from BENCHMARK.json.  The last stdout line is the result
object; the line before it holds provenance, failures and the
certificate digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is repeated at least this many times and until this much time
# is spent on it, and its median reported.
SETUP_ROUNDS = 3
SETUP_SECONDS = 2.0
# Probe time of the reference host; scaled times read as seconds there.
PROBE_NOMINAL_S = 0.010

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer, layer_table  # noqa: E402

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dtiling; print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package or config)."""


def load_package():
    if not (SRC / "dtiling" / "__init__.py").is_file():
        raise BenchError(f"no dtiling package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dtiling

    if Path(dtiling.__file__).resolve().parent != SRC / "dtiling":
        raise BenchError(f"imported dtiling from {dtiling.__file__}, not from {SRC}")
    return dtiling


def load_config() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# one solve and its correctness gate


@dataclass
class Outcome:
    id: str
    seconds: float
    report: dict
    cert_digest: str
    problem: str | None
    scaled: float = 0.0  # ``seconds`` corrected for host speed


def probe() -> float:
    """Seconds taken by a fixed task of list, dict, set and sort work,
    the kind of work the solver does, so it slows when the host does.
    It builds only a few containers of ints, so it gives the garbage
    collector almost no allocations to count and the solver's heap does
    not change its time."""
    t0 = time.perf_counter()
    keys = [(i * 7919) % 100003 for i in range(24000)]
    index = {k: i for i, k in enumerate(keys)}
    sum(index[k] for k in sorted(set(keys)))
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two probes into
    seconds on the reference host."""
    return PROBE_NOMINAL_S / ((before + after) / 2)


def probed_pass(dt, instances) -> tuple[list[Outcome], list[float]]:
    """Solve every instance once, with a probe before the first solve and
    after each one; returns the outcomes, ``scaled`` filled in, and the
    probe times."""
    probes = [probe()]
    outcomes = []
    for inst in instances:
        o = solve_one(dt, inst)
        probes.append(probe())
        outcomes.append(dataclasses.replace(o, scaled=o.seconds * host_scale(*probes[-2:])))
    return outcomes, probes


def solve_one(dt, inst: workloads.Instance) -> Outcome:
    """Solve one instance through the text path and check the result.

    Package functions are looked up at call time so a tracer's wrappers
    are used.  Any exception is recorded as the outcome's problem.
    """
    t0 = time.perf_counter()
    try:
        G = dt.parse_instance(inst.text)
        res = dt.solve_driver(G, dt.DriverParams())
        cert_text = ""
        verdict = None
        if res.tiling is not None:
            kind = "perfect" if len(res.tiling.covered) == G.n else "partial"
            cert_text = dt.format_certificate(res.tiling, kind)
            cert = dt.parse_certificate(cert_text)
            verdict = dt.validate_tiling(G, cert.tiling, require_perfect=True)
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # recorded as a failed solve, never a crash
        return Outcome(inst.id, time.perf_counter() - t0, {}, "",
                       f"{type(exc).__name__}: {exc}"[:300])
    problem = None
    if inst.expect == workloads.DECIDED:
        if res.status not in (workloads.TILED, workloads.INFEASIBLE):
            problem = f"undecided: {res.status}"
    elif res.status != inst.expect:
        problem = f"expected {inst.expect}, got {res.status}"
    if problem is None and verdict is not None and not verdict.ok:
        problem = "certificate fails revalidation: " + "; ".join(verdict.violations[:3])
    digest = hashlib.sha256(f"{res.status}\n{cert_text}".encode()).hexdigest()
    return Outcome(inst.id, elapsed, res.report, digest, problem)


@dataclass
class RunLog:
    instances: list
    passes: list  # one list of Outcome per pass
    failures: list

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    def instance_medians(self, passes=None, field: str = "scaled") -> list[float]:
        """Each instance's median solve time over ``passes`` (default:
        all); ``field`` is ``scaled`` or the raw wall-clock ``seconds``."""
        passes = self.passes if passes is None else passes
        return [
            statistics.median(getattr(p[i], field) for p in passes)
            for i in range(len(self.instances))
        ]

    def suite_s(self, passes=None, field: str = "scaled") -> float:
        """Time to solve the list once: the sum of the instance medians."""
        return sum(self.instance_medians(passes, field))

    def solve_ms_p50(self, field: str = "scaled") -> float:
        """The median instance's median solve time, in milliseconds."""
        return statistics.median(self.instance_medians(field=field)) * 1000

    def digest(self) -> str:
        """Hash of every instance's verdict and certificate, first pass."""
        h = hashlib.sha256()
        for o in self.passes[0]:
            h.update(f"{o.id} {o.cert_digest}\n".encode())
        return h.hexdigest()

    def branch_mix(self) -> dict[str, int]:
        mix: dict[str, int] = {}
        for o in self.passes[0]:
            branch = o.report.get("branch", "none")
            mix[branch] = mix.get(branch, 0) + 1
        return dict(sorted(mix.items()))


def run_passes(instances, seconds: float, solve_pass, min_passes: int = 1) -> RunLog:
    """Call ``solve_pass(index)`` repeatedly; after ``min_passes``, start
    another pass only while at least half of it should fit in ``seconds``.

    A pass whose verdict or certificate differs from the first pass's is a
    failure too: solves are deterministic under a fixed seed.
    """
    log = RunLog(instances, [], [])
    start = time.perf_counter()
    while True:
        index = len(log.passes)
        t0 = time.perf_counter()
        outcomes = solve_pass(index)
        pass_s = time.perf_counter() - t0
        for i, o in enumerate(outcomes):
            problem = o.problem
            if problem is None and index and o.cert_digest != log.passes[0][i].cert_digest:
                problem = "verdict or certificate differs from pass 0"
            if problem is not None:
                log.failures.append({"id": o.id, "pass": index, "problem": problem})
        log.passes.append(outcomes)
        if len(log.passes) >= min_passes and time.perf_counter() - start + pass_s / 2 > seconds:
            return log


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def timed_setup(dt, workload: str, seed: int) -> tuple[list, float, float]:
    """Median over rounds of package import (fresh interpreter) plus
    generation, relabelling and formatting of the instance list, scaled
    for host speed by probes on either side of each round; also the
    median of the raw wall-clock rounds."""
    rounds: list[float] = []
    walls: list[float] = []
    instances = None
    before = probe()
    while len(walls) < SETUP_ROUNDS or sum(walls) < SETUP_SECONDS:
        imported = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        t0 = time.perf_counter()
        got = workloads.generate(dt, workload, seed)
        gen_s = time.perf_counter() - t0
        after = probe()
        if instances is not None and got != instances:
            raise BenchError("instance generation is not deterministic")
        instances = got
        walls.append(float(imported.stdout.strip()) + gen_s)
        rounds.append(walls[-1] * host_scale(before, after))
        before = after
    return instances, statistics.median(rounds), statistics.median(walls)


def untraced(dt, args) -> tuple[dict, dict]:
    instances, setup_s, setup_wall_s = timed_setup(dt, args.workload, args.seed)
    # Peak RSS is taken after the first pass: later passes only add
    # allocator growth of a long-lived process, which varies with the
    # number of passes that fit in the run.
    peak_mb: list[float] = []
    probes: list[float] = []

    def solve_pass(index):
        outcomes, times = probed_pass(dt, instances)
        probes.extend(times)
        if index == 0:
            peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return outcomes

    log = run_passes(instances, args.seconds, solve_pass)
    failed = len(log.failures)
    metrics = {
        "suite_s": log.suite_s(),
        "solve_ms_p50": log.solve_ms_p50(),
        "solve_rate": (log.attempted - failed) / log.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb[0],
    }
    detail = _detail(log, "untraced (end-to-end metrics)")
    detail["wall_clock"] = {
        "suite_s": log.suite_s(field="seconds"),
        "solve_ms_p50": log.solve_ms_p50(field="seconds"),
        "setup_s": setup_wall_s,
        "probe_ms_p50": statistics.median(probes) * 1000,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def report_counts(outcomes) -> dict[str, float]:
    """Counts read from the driver reports of one pass."""
    c = {
        "cli.branch.extremal": 0,
        "cli.branch.non-extremal": 0,
        "cli.branch.exact-fallback": 0,
        "cli.dfree_exact": 0,
        "extremal.t_candidates": 0,
        "extremal.stage_failures": 0,
        "localsearch.moves": 0,
        "localsearch.leftover": 0,
    }
    attempts = 0
    for o in outcomes:
        r = o.report
        key = f"cli.branch.{r.get('branch')}"
        if key in c:
            c[key] += 1
        c["cli.dfree_exact"] += r.get("dfree", {}).get("method") == "exact"
        m = (r.get("extremal", {}).get("matching") or {}).get("m", 0)
        c["extremal.t_candidates"] += m**4
        attempts += len(r.get("attempts", []))
        c["extremal.stage_failures"] += sum(
            a.get("outcome") == "stage_failure" for a in r.get("attempts", [])
        )
        c["localsearch.moves"] += sum(r.get("local_search", {}).get("moves", {}).values())
        c["localsearch.leftover"] += r.get("local_search", {}).get("leftover", 0)
    c["cli.attempts_per_solve"] = attempts / len(outcomes)
    return c


def fallback_mismatches(spans, outcomes) -> list[str]:
    """Solves whose traced exact-fallback nodes disagree with the report.

    The fallback is the ``perfect_tiling_exact`` call made directly by
    ``solve_driver``; its nodes must equal the report's ``exact.nodes``.
    """
    driver_spans = [i for i, s in enumerate(spans) if s.name == "cli.solve_driver"]
    if len(driver_spans) != len(outcomes):
        return []  # solve_driver absent or a solve raised before it
    nodes = {i: 0 for i in driver_spans}
    for s in spans:
        if s.name == "exact.perfect_tiling_exact" and s.parent in nodes:
            nodes[s.parent] += s.info.get("nodes", 0)
    return [
        o.id
        for i, o in zip(driver_spans, outcomes)
        if nodes[i] != o.report.get("exact", {}).get("nodes", 0)
    ]


def traced(dt, args) -> tuple[dict, dict]:
    """Even passes traced, odd passes untraced; per-layer values are the
    median over traced passes of per-pass totals."""
    instances = workloads.generate(dt, args.workload, args.seed)
    tracer = Tracer(dt)
    tables: list[dict] = []
    mismatches: list[str] = []

    def solve_pass(index):
        if index % 2:
            return probed_pass(dt, instances)[0]
        with tracer:
            outcomes = probed_pass(dt, instances)[0]
        spans = tracer.take()
        mismatches.extend(fallback_mismatches(spans, outcomes))
        tables.append({**layer_table(spans), **report_counts(outcomes)})
        return outcomes

    log = run_passes(instances, args.seconds, solve_pass, min_passes=2)
    metrics = {k: statistics.median(t[k] for t in tables) for k in tables[0]}
    metrics["trace.suite_s"] = log.suite_s(log.passes[0::2])
    metrics["trace.overhead"] = metrics["trace.suite_s"] / log.suite_s(log.passes[1::2])
    metrics["trace.absent"] = len(tracer.absent)
    detail = _detail(log, "traced run (per-layer metrics): even passes traced, odd untraced")
    detail.update(
        absent=tracer.absent,
        wrapped_sites=tracer.sites,
        fallback_node_mismatches=mismatches,
    )
    return metrics, detail


# ---------------------------------------------------------------------------
# provenance and output


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _detail(log: RunLog, source: str) -> dict:
    failed = len(log.failures)
    return {
        "source": source,
        "instances": len(log.instances),
        "passes": len(log.passes),
        "attempted": log.attempted,
        "failed": failed,
        "fail_rate": failed / log.attempted,
        "failures": log.failures[:50],
        "certificate_digest": log.digest(),
        "branch_mix": log.branch_mix(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        config = load_config()
        dt = load_package()
        metrics, detail = (traced if args.trace else untraced)(dt, args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wanted = config["per_layer" if args.trace else "end_to_end"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "provenance": {
            "commit": _git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
        },
        **detail,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not detail["failed"] and not detail.get("fallback_node_mismatches"),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
