import os

import numpy as np
import pytest
from hypothesis import settings

import sourcecond as sc
from sourcecond.experiments import shepp_logan

# HYPOTHESIS_PROFILE=ci draws the same examples on every run
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def phantom64():
    return shepp_logan(64)


@pytest.fixture(scope="session")
def denoise_cert(phantom64):
    """Exact TV certificate for the 64x64 phantom with identity forward map.

    Shared by the round-trip and error-estimate tests; ``build_seconds``
    records the wall-clock cost so tests can account for it.
    """
    import time

    t0 = time.perf_counter()
    u = phantom64
    fwd = sc.IdentityMap(u.shape)
    a = sc.grad2(*u.shape)
    cfg = sc.SolveConfig(max_iters=200_000, grad_tol=1e-10, record_every=100)
    report = sc.solve_range_cd(u, fwd, a, sc.ProxFunctional("group_l21"), cfg)
    check = sc.verify_tv_subgradient(report.v, report.q, u, 1e-6)
    return {
        "u": u,
        "fwd": fwd,
        "grad_op": a,
        "report": report,
        "check": check,
        "build_seconds": time.perf_counter() - t0,
    }


@pytest.fixture
def metric_halves(monkeypatch):
    """Counts the two-part stopping metrics of range-CD, PALM and PDHG
    (``_mean_of_halves``): ``counts["metrics"]`` calls, of which
    ``counts["second"]`` took the second half.  Setting ``counts["full"]``
    makes every metric take both halves, as on every step before the stop
    test that skips a second half which cannot stop the solve."""
    from sourcecond import solvers, varreg

    mean = solvers._mean_of_halves
    counts = {"metrics": 0, "second": 0, "full": False}

    def counted(first, second, exact, grad_tol):
        def taken():
            counts["second"] += 1
            return second()

        counts["metrics"] += 1
        return mean(first, taken, exact or counts["full"], grad_tol)

    for module in (solvers, varreg):
        monkeypatch.setattr(module, "_mean_of_halves", counted)
    return counts
