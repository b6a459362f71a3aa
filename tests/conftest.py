import functools
import importlib
from pathlib import Path

import pytest

import dtiling


def _perfbench(name: str):
    """A module of ``perfbench``, imported from its file: ``perfbench`` is
    not a package.  Leaving the context also drops any path the module
    itself put on ``sys.path``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module(name)


@pytest.fixture(scope="session")
def benchmark_workloads():
    """The ``perfbench`` workload module."""
    return _perfbench("workloads")


@pytest.fixture(scope="session")
def benchmark_run():
    """The ``perfbench`` harness and tracer modules, ``(run, tracer)``."""
    return _perfbench("run"), _perfbench("tracer")


@pytest.fixture(scope="session")
def benchmark_instances(benchmark_workloads):
    """``benchmark_instances(workload, seed)``: the instances of a
    ``perfbench`` workload, generated once per test session."""

    @functools.lru_cache(maxsize=None)
    def instances(workload: str, seed: int) -> tuple:
        return tuple(benchmark_workloads.generate(dtiling, workload, seed))

    return instances
