"""Variational TV regularization solved with a primal-dual scheme, plus the
error-estimate bookkeeping used to turn certificate norms into bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, VerificationError
from .functionals import project_group_ball, tv_value
from .operators import LinearMap, grad2, norm, real_inner
from .solvers import SolveConfig, _finish, _iterate, _squared_bound

_BOUND_SLACK = 1.0 + 1e-12  # tolerate roundoff when tau*sigma*||A||^2 is exactly 1


@dataclass
class VarRegProblem:
    """Least-squares data term with a TV-type penalty: ``0.5||Ku-g||^2 + alpha ||Au||_{2,1}``."""

    K: LinearMap
    data: np.ndarray
    alpha: float
    A: LinearMap

    def __post_init__(self):
        if not self.alpha > 0:  # also refuses NaN
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
    v_norm = norm(v)
    if v_norm == 0.0:
        raise InputError("zero certificate: the adapted weight is undefined")
    alpha_star = delta / v_norm
    delta_eff = alpha_star * v_norm
    return ErrorEstimate(v_norm=v_norm, delta=delta_eff, alpha_star=alpha_star,
                         bound=v_norm * delta_eff)


def _peak(x) -> float:
    return float(np.max(np.abs(x)))


def norm_ratio(x, y) -> float:
    """``norm(x) / norm(y)``: 0 when both norms are zero, infinite when only
    ``norm(y)`` is.  ``operators.norm`` rescales a sum of squares that
    overflows, so finite arrays give a finite ratio unless a norm or the
    ratio itself passes the float range.

    When a norm passes it and ``y`` is finite, the ratio is taken as
    ``(norm(x / px) / norm(y / py)) * (px / py)``, ``px`` and ``py`` the
    largest magnitudes, one scale per array, so that neither norm overflows
    nor flushes to zero; it is infinite when ``x`` holds an infinite entry.
    """
    num, den = norm(x), norm(y)
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    if num > 0.0 and (math.isinf(num) or math.isinf(den)) and _peak(y) < math.inf:
        x_peak, y_peak = _peak(x), _peak(y)
        if x_peak == math.inf:
            return math.inf
        return norm(np.divide(x, x_peak)) / norm(np.divide(y, y_peak)) * (x_peak / y_peak)
    return num / den


def _relative_change(new, old, work=None):
    """``norm(new - old) / norm(new)`` by ``norm_ratio``, with the difference
    written to ``work`` when it is given.  A difference that overflows is
    infinite, without a floating-point warning."""
    with np.errstate(over="ignore"):
        change = np.subtract(new, old, out=work)
    return norm_ratio(change, new)


def solve_pdhg(problem: VarRegProblem, cfg: SolveConfig):
    """Primal-dual hybrid gradient for the TV-regularized least-squares problem.

    The TV term is dualized (per-pixel projection onto the alpha-ball); the
    quadratic data term stays in the primal prox ``z -> (I + tau K* K)^{-1}
    (z + tau K* g)``, whose solve ``K.normal_resolvent(tau)`` is closed form
    for the supported forward maps.  The steps are ``tau = 1/8`` and
    ``sigma = 1``, so that ``tau * sigma * ||A||^2 <= 1`` for the gradient
    (``||A|| <= sqrt(8)``); a caller-supplied ``A`` whose norm bound breaks
    that is refused.  The stopping metric is the mean of its two halves,
    the relative changes of the primal and the dual iterate over the last
    step, so it is first taken after one step.

    The iterates, the extrapolated primal point and the right-hand side of
    the data prox live in work arrays allocated once per solve.  The
    gradient and divergence (``A.apply(u_bar, out=)``, ``A.adjoint(q,
    out=)``), ball projection and data prox write into them, and the
    updates are in-place ufuncs in the order of the plain formulas, so the
    iterates are theirs bit for bit.  ``u`` and the iterate before it
    swap two image buffers: a step builds the data prox's right-hand side in
    the buffer of the iterate before the last and solves it in place
    (``solve(r, out=r)``), so it allocates no image or field of its own.
    The ball projection allocates its squared-norm plane and the mask of the
    groups that may leave the ball, and takes roots and scale factors only
    for those when they are at most one group in ten
    (``project_group_ball``); a masked solve allocates its half spectra.
    With ``sigma = 1`` the dual step adds ``A u_bar`` unscaled, which is
    exact.

    Returns ``(solution, dual_field, report)``.
    """
    tau, sigma = 1.0 / 8.0, 1.0
    lam_a = _squared_bound(problem.A)
    if tau * sigma * lam_a > _BOUND_SLACK:
        raise ConfigurationError(
            f"tau*sigma*||A||^2 = {tau * sigma * lam_a} exceeds 1")

    solve = problem.K.normal_resolvent(tau)
    kg = tau * problem.K.adjoint(problem.data)
    A = problem.A
    u, u_old = np.zeros(A.domain_shape), np.empty(A.domain_shape)
    u_bar = np.zeros(A.domain_shape)
    q, q_old = np.zeros(A.codomain_shape), np.zeros(A.codomain_shape)
    u_diff, q_diff = np.empty(A.domain_shape), np.empty(A.codomain_shape)

    def q_change():
        return _relative_change(q, q_old, q_diff)

    def measure():
        return _relative_change(u, u_old, u_diff), q_change

    def advance(_measured):
        nonlocal u, q, u_old, q_old
        # the new u and q overwrite the ones before the last
        u_old, u, q_old, q = u, u_old, q, q_old
        A.apply(u_bar, out=q)
        np.add(q_old, q, out=q)
        project_group_ball(q, problem.alpha, out=q)
        A.adjoint(q, out=u)  # the data prox's rhs, u_old - tau A* q + tau K* g
        np.multiply(tau, u, out=u)
        np.subtract(u_old, u, out=u)
        np.add(u, kg, out=u)
        solve(u, out=u)
        np.multiply(2.0, u, out=u_bar)
        np.subtract(u_bar, u_old, out=u_bar)

    advance(None)  # into iterate 1, where the loop starts
    outcome = _iterate(cfg, measure, advance, start=1)
    return u, q, _finish(u, q, *outcome)


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
