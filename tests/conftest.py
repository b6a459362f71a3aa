import functools
import importlib
from pathlib import Path

import pytest

import dtiling


@pytest.fixture(scope="session")
def benchmark_workloads():
    """The ``perfbench`` workload module, imported from its file:
    ``perfbench`` is not a package."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("workloads")


@pytest.fixture(scope="session")
def benchmark_instances(benchmark_workloads):
    """``benchmark_instances(workload, seed)``: the instances of a
    ``perfbench`` workload, generated once per test session."""

    @functools.lru_cache(maxsize=None)
    def instances(workload: str, seed: int) -> tuple:
        return tuple(benchmark_workloads.generate(dtiling, workload, seed))

    return instances
