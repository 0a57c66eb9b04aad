import numpy as np
import pytest

from alphatest import harness
from alphatest.harness import ScenarioConfig, replicate_details

# master seeds for the frozen Monte Carlo batches
M3_NULL_SEED = 11
M1_NULL_SEED = 101


@pytest.fixture(scope="session")
def m3_null_details():
    """2000 null replications of Model 3 / normal / N=200 / T=100.

    Shared by the null-size, Fisher-law and independence checks so the
    batch is simulated once per session.
    """
    scenario = ScenarioConfig(
        n=200, t=100, cov_model="M3", error_dist="normal", m=0, seed=M3_NULL_SEED
    )
    return replicate_details(scenario, 0, 2000)


@pytest.fixture(scope="session")
def m3_null_details_n50():
    """The `m3_null_details` design at N=50: the small-N end of the
    independence check, which asserts the sum/max correlation falls as N
    grows."""
    scenario = ScenarioConfig(
        n=50, t=100, cov_model="M3", error_dist="normal", m=0, seed=M3_NULL_SEED
    )
    return replicate_details(scenario, 0, 2000)


@pytest.fixture(scope="session")
def m1_null_rejections():
    """1000 null replications of Model 1 / normal / N=200 / T=100."""
    scenario = ScenarioConfig(
        n=200, t=100, cov_model="M1", error_dist="normal", m=0, seed=M1_NULL_SEED
    )
    details = replicate_details(scenario, 0, 1000)
    return {
        name: [d[name].reject for d in details]
        for name in ("PY", "MAX1", "MAX2", "FC1", "FC2")
    }


class PoolSizes(list):
    """The `max_workers` of each process pool made, in order; `initializers`
    holds each pool's `initializer` and `chunksizes` each `map` call's
    `chunksize`."""

    def __init__(self):
        super().__init__()
        self.initializers, self.chunksizes = [], []


@pytest.fixture
def pool_sizes(monkeypatch):
    """A `PoolSizes` of the harness's process pools, recorded by a stand-in
    pool that runs its tasks in this process and starts nothing (nor calls
    its initializer).

    A live pool left by an earlier test is shut down first, so the stand-in
    is the one the harness makes; the stand-in is dropped afterwards."""
    sizes = PoolSizes()

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)
            sizes.initializers.append(initializer)

        def map(self, fn, *iterables, chunksize=1):
            sizes.chunksizes.append(chunksize)
            return map(fn, *iterables)

        def shutdown(self, wait=True):
            pass

    harness._drop_pool()
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    yield sizes
    harness._drop_pool()


class EigenCalls(list):
    """(solver name, argument) of each `np.linalg.eigh`/`eigvalsh` call, in order."""

    def counts(self) -> dict:
        """{"eigh": calls, "eigvalsh": calls}."""
        return {solver: sum(name == solver for name, _ in self) for solver in ("eigh", "eigvalsh")}

    def shapes(self, solver=None) -> list:
        """The argument shape of each call, or of each call to `solver`."""
        return [np.shape(a) for name, a in self if solver in (None, name)]


@pytest.fixture
def eigen_calls(monkeypatch):
    """Records every `np.linalg.eigh` and `eigvalsh` call the test makes, in
    an `EigenCalls`; the solvers themselves run unchanged."""
    calls = EigenCalls()
    for name in ("eigh", "eigvalsh"):
        def recorded(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls.append((_name, a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls
