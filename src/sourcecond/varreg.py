"""Variational TV regularization solved with a primal-dual scheme, plus the
error-estimate bookkeeping used to turn certificate norms into bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, VerificationError
from .functionals import project_group_ball, tv_value
from .operators import (FourierSamplingMap, IdentityMap, LinearMap, MatrixMap,
                        grad2, real_inner)
from .solvers import _BOUND_SLACK, SolveConfig, _finish


@dataclass
class VarRegProblem:
    """Least-squares data term with a TV-type penalty: ``0.5||Ku-g||^2 + alpha ||Au||_{2,1}``."""

    K: LinearMap
    data: np.ndarray
    alpha: float
    A: LinearMap

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if np.shape(self.data) != self.K.codomain_shape:
            raise InputError("data must live in the codomain of K")
        if self.K.domain_shape != self.A.domain_shape:
            raise InputError("K and A must share a domain")


@dataclass
class ErrorEstimate:
    """A-priori worst-case bound bookkeeping.

    ``alpha_star`` is the noise-adapted weight ``delta / ||v||`` and ``bound``
    the resulting worst-case value ``||v|| * delta``.  The stored ``delta`` is
    re-derived as ``alpha_star * v_norm`` so both identities hold exactly in
    floating point (this can move it by one ulp from the input).
    """

    v_norm: float
    delta: float
    alpha_star: float
    bound: float


def error_estimate(v: np.ndarray, delta: float) -> ErrorEstimate:
    """Noise-adapted weight and worst-case bound from a certificate norm."""
    if delta < 0:
        raise InputError("delta must be nonnegative")
    v_norm = float(np.linalg.norm(v))
    if v_norm == 0.0:
        raise InputError("zero certificate: the adapted weight is undefined")
    alpha_star = delta / v_norm
    delta_eff = alpha_star * v_norm
    return ErrorEstimate(v_norm=v_norm, delta=delta_eff, alpha_star=alpha_star,
                         bound=v_norm * delta_eff)


def _data_prox_factory(problem: VarRegProblem, tau: float):
    """Closed-form solver for ``argmin_x 0.5||x - z||^2 + (tau/2)||Kx - g||^2``."""
    K, g = problem.K, problem.data
    if isinstance(K, IdentityMap):
        kg = tau * np.asarray(g, dtype=float)

        def prox_identity(z):
            return (z + kg) / (1.0 + tau)

        return prox_identity
    if isinstance(K, FourierSamplingMap):
        # The normal operator of the real-linear composite is diagonal in
        # Fourier space with the symmetrized mask as its symbol.  The symbol
        # is even under k -> -k and the input is real, so the half spectrum
        # of a real FFT carries the whole solve.
        shape = K.domain_shape
        symbol = 1.0 + tau * K.symmetrized()[:, :shape[1] // 2 + 1]
        kg = tau * K.adjoint(g)

        def prox_fourier(z):
            rhs = np.fft.rfft2(z + kg, norm="ortho")
            rhs /= symbol
            return np.fft.irfft2(rhs, s=shape, norm="ortho")

        return prox_fourier
    if isinstance(K, MatrixMap):
        m = K.matrix
        system = np.eye(m.shape[1]) + tau * (m.T @ m)
        factor = np.linalg.cholesky(system)
        kg = tau * (m.T @ np.asarray(g, dtype=float))

        def prox_dense(z):
            rhs = z + kg
            return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))

        return prox_dense
    raise ConfigurationError(
        f"no closed-form data prox for forward map of type {type(K).__name__}")


def _relative_change(new, old):
    num = float(np.linalg.norm(new - old))
    den = float(np.linalg.norm(new))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def solve_pdhg(problem: VarRegProblem, cfg: SolveConfig):
    """Primal-dual hybrid gradient for the TV-regularized least-squares problem.

    The TV term is dualized (per-pixel projection onto the alpha-ball); the
    quadratic data term stays in the primal prox, which is closed form for
    the supported forward maps.  Defaults ``tau = 1/8`` and ``sigma = 1`` so
    that ``tau * sigma * ||A||^2 <= 1``.  Stops when the mean relative change
    of primal and dual iterates falls below ``cfg.grad_tol``.

    Returns ``(solution, dual_field, report)``.
    """
    tau = cfg.tau if cfg.tau is not None else 1.0 / 8.0
    sigma = cfg.sigma if cfg.sigma is not None else 1.0
    lam_a = problem.A.norm_bound ** 2
    if tau * sigma * lam_a > _BOUND_SLACK:
        raise ConfigurationError(
            f"tau*sigma*||A||^2 = {tau * sigma * lam_a} exceeds 1")

    data_prox = _data_prox_factory(problem, tau)
    A = problem.A
    u = np.zeros(A.domain_shape)
    q = np.zeros(A.codomain_shape)
    u_bar = u
    history = []
    metric = float("inf")

    # With grad_tol == 0 the metric is only read at record steps, so it is
    # computed only there; in between it is stale, and the strict test
    # ``metric < cfg.grad_tol`` cannot pass on it.
    check_every_step = cfg.grad_tol > 0
    for k in range(1, cfg.max_iters + 1):
        q_new = project_group_ball(q + sigma * A.apply(u_bar), problem.alpha)
        u_new = data_prox(u - tau * A.adjoint(q_new))
        u_bar = 2.0 * u_new - u
        record = k % cfg.record_every == 0 or k == cfg.max_iters
        if record or check_every_step:
            metric = 0.5 * (_relative_change(u_new, u) + _relative_change(q_new, q))
        u, q = u_new, q_new
        if record:
            history.append((k, metric))
        if metric < cfg.grad_tol:
            report = _finish(u, q, k, metric, history, "tolerance")
            return u, q, report

    report = _finish(u, q, cfg.max_iters, metric, history, "max_iters")
    return u, q, report


def bregman_distance_tv(u: np.ndarray, w: np.ndarray, q_w: np.ndarray) -> float:
    """Generalized TV distance from ``w`` to ``u`` for a subgradient field at ``w``.

    ``TV(u) - TV(w) - <A^T q_w, u - w>``; tiny negative values (roundoff) are
    clipped to zero, anything below -1e-8 means ``q_w`` is not a subgradient.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    a = grad2(*u.shape)
    if w.shape != u.shape or np.shape(q_w) != a.codomain_shape:
        raise InputError("inconsistent shapes for Bregman distance")
    value = tv_value(u) - tv_value(w) - real_inner(a.adjoint(np.asarray(q_w, dtype=float)), u - w)
    if value < -1e-8:
        raise VerificationError(
            f"negative distance {value}: the supplied field is not a subgradient at w")
    return max(value, 0.0)
