"""Iterative schemes for source-condition and range-condition certificates.

Three solvers are provided:

* accelerated gradient descent on the smooth convex certificate objective
  (regularizers with a closed-form prox),
* explicit coordinate descent for composite regularizers ``J(u) = H(Au + b)``,
  which produces the certificate pair ``(v, q)``,
* a proximal alternating scheme that additionally sparsifies the data-space
  certificate to learn a Fourier sampling pattern.

All solvers start from zero arrays and report a full audit trail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError
from .functionals import ProxFunctional, soft_threshold
from .operators import LinearMap, SamplingMask, real_inner

_BOUND_SLACK = 1.0 + 1e-12  # tolerate roundoff when steps are set exactly at the bound


@dataclass
class SolveConfig:
    """Budget and step sizes for one solve.

    ``tau``/``sigma`` may be left as None, in which case the solver derives
    the largest admissible value from the operator norm bounds.
    ``record_every`` controls both history recording and (for the accelerated
    scheme) how often the stopping criterion is evaluated.
    """

    max_iters: int = 1000
    grad_tol: float = 0.0
    tau: float | None = None
    sigma: float | None = None
    record_every: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if self.grad_tol < 0:
            raise ConfigurationError("grad_tol must be nonnegative")
        if self.tau is not None and self.tau <= 0:
            raise ConfigurationError("tau must be positive")
        if self.sigma is not None and self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be at least 1")


@dataclass
class SolveReport:
    """Result of a solve: certificate candidate(s) plus an audit trail."""

    v: np.ndarray
    q: np.ndarray | None
    iterations: int
    final_grad_norm: float
    v_norm: float
    history: list = field(default_factory=list)
    termination: str = "max_iters"
    nnz: int | None = None


def _finish(v, q, iterations, grad_norm, history, termination, nnz=None) -> SolveReport:
    history = list(history)
    if not history or history[-1][0] != iterations:
        history.append((iterations, grad_norm))
    return SolveReport(v=v, q=q, iterations=iterations, final_grad_norm=grad_norm,
                       v_norm=float(np.linalg.norm(v)), history=history,
                       termination=termination, nnz=nnz)


def bregman_loss(u: np.ndarray, p: np.ndarray, prox: ProxFunctional) -> float:
    """Bi-convex loss whose p-gradient is ``prox(p) - u``.

    Evaluated through the proximal point ``w = prox(p)`` as
    ``0.5 * ||u - w||^2 + J(u) - J(w) - <p - w, u - w>``.
    """
    w = prox.prox(p)
    quad = 0.5 * float(np.sum(np.abs(u - w) ** 2))
    return quad + prox.value(u) - prox.value(w) - real_inner(p - w, u - w)


def source_objective(v: np.ndarray, u_true: np.ndarray, fwd: LinearMap,
                     prox: ProxFunctional) -> float:
    """Value of the convex certificate objective at data-space candidate ``v``."""
    return bregman_loss(u_true, u_true + fwd.adjoint(v), prox)


def source_gradient(v: np.ndarray, u_true: np.ndarray, fwd: LinearMap,
                    prox: ProxFunctional) -> np.ndarray:
    """Gradient of the certificate objective: ``K (prox(u + K* v) - u)``."""
    if np.shape(v) != fwd.codomain_shape:
        raise InputError("v must live in the data space of the forward map")
    if np.shape(u_true) != fwd.domain_shape:
        raise InputError("u_true must live in the domain of the forward map")
    return _source_gradient(v, u_true, fwd, prox)


def _source_gradient(v, u_true, fwd, prox):
    # source_gradient without its shape checks, for a loop that made them once
    return fwd.apply(prox.prox(u_true + fwd.adjoint(v)) - u_true)


def solve_source_gd(u_true: np.ndarray, fwd: LinearMap, prox: ProxFunctional,
                    cfg: SolveConfig, accelerate: bool = True,
                    monitor=None) -> SolveReport:
    """Minimize the certificate objective by (accelerated) gradient descent.

    Uses heavy-ball extrapolation with the classical t-sequence and a
    gradient-based adaptive restart; ``accelerate=False`` gives plain descent.
    The iteration starts from zero and stops once the gradient norm at the
    iterate drops to ``cfg.grad_tol`` (checked every ``cfg.record_every``
    iterations) or the budget runs out.

    Parameters
    ----------
    u_true : ndarray
        Known solution whose certificate is sought.
    fwd : LinearMap
        Forward map of the inverse problem.
    prox : ProxFunctional
        Regularizer with closed-form prox.
    cfg : SolveConfig
        Step size ``tau`` (default ``1 / norm_bound^2``) and budgets.
    monitor : callable, optional
        Called as ``monitor(k, v)`` at every recording step.
    """
    lam = fwd.norm_bound ** 2
    tau = cfg.tau if cfg.tau is not None else (1.0 / lam if lam > 0 else 1.0)
    if lam > 0 and tau > _BOUND_SLACK / lam:
        raise ConfigurationError(
            f"tau={tau} exceeds the stability bound 1/norm_bound^2={1.0 / lam}")

    dtype = complex if fwd.codomain_complex else float
    v = np.zeros(fwd.codomain_shape, dtype=dtype)
    y = v
    t = 1.0
    history = []

    # the shapes are checked once, here; the loop skips the checks
    gnorm = float(np.linalg.norm(source_gradient(v, u_true, fwd, prox)))
    history.append((0, gnorm))
    if monitor is not None:
        monitor(0, v)
    if gnorm <= cfg.grad_tol:
        return _finish(v, None, 0, gnorm, history, "tolerance")

    for k in range(1, cfg.max_iters + 1):
        g = _source_gradient(y, u_true, fwd, prox)
        v_next = y - tau * g
        if accelerate:
            step = v_next - v
            if real_inner(g, step) > 0:
                # extrapolation is fighting the gradient: restart the momentum
                t = 1.0
                y = v_next
            else:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                y = v_next + ((t - 1.0) / t_next) * step
                t = t_next
        else:
            y = v_next
        v = v_next

        if k % cfg.record_every == 0 or k == cfg.max_iters:
            gnorm = float(np.linalg.norm(_source_gradient(v, u_true, fwd, prox)))
            history.append((k, gnorm))
            if monitor is not None:
                monitor(k, v)
            if gnorm <= cfg.grad_tol:
                return _finish(v, None, k, gnorm, history, "tolerance")

    return _finish(v, None, cfg.max_iters, gnorm, history, "max_iters")


def solve_range_cd(u_true: np.ndarray, fwd: LinearMap, grad_op: LinearMap,
                   prox_h: ProxFunctional, cfg: SolveConfig,
                   b: np.ndarray | None = None) -> SolveReport:
    """Coordinate descent for the range-condition certificate pair ``(v, q)``.

    Minimizes ``0.5 ||K* v - A* q||^2`` plus the subgradient-membership loss of
    ``q`` at ``A u + b``, alternating explicit gradient steps in ``v`` and
    ``q``.  Admissible step sizes are ``tau <= 1/||K||^2`` and
    ``sigma <= 1/(||A||^2 + 1)``; the stopping metric is the mean of the two
    partial-derivative norms evaluated at the current pair.

    The metric at a pair and the step from it share ``K* v``, ``A* q``,
    ``d = K* v - A* q``, ``K d`` and ``prox(a + q)``; each is computed once
    and carried into the step.  An iteration therefore applies ``K*`` (to the
    new ``v``) and ``K`` (to ``d``) once each, which is two FFTs for Fourier
    sampling, the gradient twice, the divergence once and the prox once.
    Every carried term is the same floating-point expression as when the
    metric is evaluated apart from the step, so the iterates, the history
    and the termination are bit for bit those of the unshared loop.
    """
    lam_k = fwd.norm_bound ** 2
    lam_a = grad_op.norm_bound ** 2 + 1.0
    tau = cfg.tau if cfg.tau is not None else (1.0 / lam_k if lam_k > 0 else 1.0)
    sigma = cfg.sigma if cfg.sigma is not None else 1.0 / lam_a
    if lam_k > 0 and tau > _BOUND_SLACK / lam_k:
        raise ConfigurationError(
            f"tau={tau} exceeds the stability bound 1/||K||^2={1.0 / lam_k}")
    if sigma > _BOUND_SLACK / lam_a:
        raise ConfigurationError(
            f"sigma={sigma} exceeds the stability bound 1/(||A||^2+1)={1.0 / lam_a}")

    a_field = grad_op.apply(u_true)
    if b is not None:
        a_field = a_field + b
    dtype = complex if fwd.codomain_complex else float
    v = np.zeros(fwd.codomain_shape, dtype=dtype)
    q = np.zeros(grad_op.codomain_shape)
    history = []

    kv = fwd.adjoint(v)
    for k in range(cfg.max_iters + 1):
        aq = grad_op.adjoint(q)
        d = kv - aq
        kd = fwd.apply(d)
        shrunk = prox_h.prox(a_field + q)
        metric = 0.5 * (float(np.linalg.norm(kd))
                        + float(np.linalg.norm(-grad_op.apply(d) + shrunk - a_field)))
        if k % cfg.record_every == 0 or k == cfg.max_iters:
            history.append((k, metric))
        if metric <= cfg.grad_tol:
            return _finish(v, q, k, metric, history, "tolerance")
        if k == cfg.max_iters:
            break
        v = v - tau * kd
        kv = fwd.adjoint(v)
        q = q - sigma * (grad_op.apply(aq - kv) + shrunk - a_field)

    return _finish(v, q, cfg.max_iters, metric, history, "max_iters")


def solve_palm(u_true: np.ndarray, grad_op: LinearMap, prox_h: ProxFunctional,
               beta: float, cfg: SolveConfig) -> SolveReport:
    """Learn a sparse data-space certificate by proximal alternating steps.

    The data-space block carries an extra one-norm penalty with weight
    ``beta`` (complex modulus shrinkage) so that its zero set defines a
    Fourier sampling pattern.  Defaults: ``tau = 1`` (the smooth coupling of
    the data block is 1-Lipschitz because the DFT is unitary) and
    ``sigma = 1/(||A||^2 + 1)``.

    Returns the complex certificate in ``report.v``, the dual field in
    ``report.q`` and the number of nonzero entries in ``report.nnz``.
    """
    if beta <= 0:
        raise ConfigurationError("beta must be positive")
    tau = cfg.tau if cfg.tau is not None else 1.0
    lam_a = grad_op.norm_bound ** 2 + 1.0
    sigma = cfg.sigma if cfg.sigma is not None else 1.0 / lam_a
    if tau > _BOUND_SLACK:
        raise ConfigurationError("tau exceeds the stability bound 1 of the data block")
    if sigma > _BOUND_SLACK / lam_a:
        raise ConfigurationError(
            f"sigma={sigma} exceeds the stability bound 1/(||A||^2+1)={1.0 / lam_a}")

    a_field = grad_op.apply(u_true)
    n_y, n_x = u_true.shape
    vt = np.zeros((n_y, n_x), dtype=complex)
    q = np.zeros(grad_op.codomain_shape)

    def step(vt_cur, q_cur):
        aq = grad_op.adjoint(q_cur)
        coupled = np.fft.fft2(aq, norm="ortho")
        vt_new = soft_threshold(vt_cur - tau * (vt_cur - coupled), tau * beta)
        back = np.real(np.fft.ifft2(vt_new, norm="ortho"))
        q_new = q_cur - sigma * (grad_op.apply(aq - back)
                                 + prox_h.prox(q_cur + a_field) - a_field)
        return vt_new, q_new

    def displacement(vt_cur, q_cur, vt_new, q_new):
        dv = float(np.linalg.norm(vt_new - vt_cur)) / tau
        dq = float(np.linalg.norm(q_new - q_cur)) / sigma
        return 0.5 * (dv + dq)

    history = []
    k = 0
    while k < cfg.max_iters:
        vt_new, q_new = step(vt, q)
        metric = displacement(vt, q, vt_new, q_new)
        if metric <= cfg.grad_tol:
            history.append((k, metric))
            return _finish(vt, q, k, metric, history, "tolerance",
                           nnz=int(np.count_nonzero(vt)))
        k += 1
        vt, q = vt_new, q_new
        if k % cfg.record_every == 0:
            history.append((k, metric))

    probe = step(vt, q)
    metric = displacement(vt, q, *probe)
    return _finish(vt, q, cfg.max_iters, metric, history, "max_iters",
                   nnz=int(np.count_nonzero(vt)))


def extract_mask(v_tilde: np.ndarray) -> SamplingMask:
    """Sampling pattern from the support of a data-space certificate.

    The zero-frequency entry is always included: certificates built from
    zero-mean subgradient fields cannot reach it on their own.
    """
    grid = np.asarray(v_tilde) != 0
    grid[0, 0] = True
    return SamplingMask(grid)


def range_data(u_true: np.ndarray, fwd: LinearMap, v: np.ndarray,
               alpha: float) -> np.ndarray:
    """Exact data for which ``u_true`` minimizes the variational problem:
    ``K u_true + alpha * v``."""
    if alpha <= 0:
        raise InputError("alpha must be positive")
    return fwd.apply(u_true) + alpha * np.asarray(v)
