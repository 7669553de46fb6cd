"""Iterative schemes for source-condition and range-condition certificates.

Three solvers are provided:

* accelerated gradient descent on the smooth convex certificate objective
  (regularizers with a closed-form prox),
* explicit coordinate descent for composite regularizers ``J(u) = H(Au)``,
  which produces the certificate pair ``(v, q)``,
* a proximal alternating scheme that additionally sparsifies the data-space
  certificate to learn a Fourier sampling pattern.

All solvers start from zero arrays, share one loop and report a full audit
trail.  Their step sizes follow from the norm bounds of the operators they
are given, so a solve is set by its budget alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError
from .functionals import ProxFunctional, soft_threshold
from .operators import (LinearMap, SamplingMask, fourier_sampling, full_mask, full_spectrum,
                        irdft2, mirror_weights, rdft2, real_inner)


@dataclass
class SolveConfig:
    """Budget of one solve.

    Every solver runs the loop ``_iterate``: it records every
    ``record_every``-th iterate and the last, and stops at a metric
    ``<= grad_tol``, at a NaN metric ("diverged") or at the budget.
    Accelerated descent (and PDHG with ``grad_tol == 0``) takes its metric
    only at record steps.  Step sizes are not set here: each solver derives
    them from the norm bounds of its operators.
    """

    max_iters: int = 1000
    grad_tol: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        # ``not x >= 0`` and ``not x > 0`` also refuse NaN
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ConfigurationError("max_iters must be an integer of at least 1")
        if not self.grad_tol >= 0:
            raise ConfigurationError("grad_tol must be nonnegative")
        if not isinstance(self.record_every, numbers.Integral) or self.record_every < 1:
            raise ConfigurationError("record_every must be an integer of at least 1")


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


def _iterate(cfg: SolveConfig, measure, advance, every_step: bool, start: int = 0):
    """The iteration loop of every solver, over iterates ``start..max_iters``.

    ``advance()`` steps from iterate ``k`` to ``k + 1``; ``measure()`` gives
    the stopping metric at the current one, at record steps (which enter the
    history) and, with ``every_step``, at all others.  The loop stops at the
    first metric ``<= cfg.grad_tol``, at a NaN metric or at the budget, and
    returns ``(iterations, metric, history, termination)``, the arguments
    ``_finish`` takes after the iterates.
    """
    history = []
    for k in range(start, cfg.max_iters + 1):
        last = k == cfg.max_iters
        record = last or k % cfg.record_every == 0
        if record or every_step:
            metric = measure()
            if record:
                history.append((k, metric))
            if metric <= cfg.grad_tol:
                return k, metric, history, "tolerance"
            if math.isnan(metric):
                return k, metric, history, "diverged"
        if not last:
            advance()
    return cfg.max_iters, metric, history, "max_iters"


def _data_step(fwd: LinearMap) -> float:
    """Step ``1/||K||^2`` of a data block from the norm bound of ``K``
    (1 for the zero map)."""
    lam = fwd.norm_bound ** 2
    return 1.0 / lam if lam > 0 else 1.0


def _dual_step(grad_op: LinearMap) -> float:
    """Step ``1/(||A||^2 + 1)`` of a dual block from the norm bound of ``A``."""
    return 1.0 / (grad_op.norm_bound ** 2 + 1.0)


def solve_source_gd(u_true: np.ndarray, fwd: LinearMap, prox: ProxFunctional,
                    cfg: SolveConfig) -> SolveReport:
    """Minimize the certificate objective by accelerated gradient descent.

    Uses heavy-ball extrapolation with the classical t-sequence and a
    gradient-based adaptive restart, with the step ``tau = 1/||K||^2`` from
    the norm bound of ``fwd`` (1 for the zero map), the inverse Lipschitz
    constant of the gradient.  The iteration starts from zero and stops once
    the gradient norm at the iterate drops to ``cfg.grad_tol`` (checked every
    ``cfg.record_every`` iterations) or the budget runs out.

    Parameters
    ----------
    u_true : ndarray
        Known solution whose certificate is sought.
    fwd : LinearMap
        Forward map of the inverse problem.
    prox : ProxFunctional
        Regularizer with closed-form prox.
    cfg : SolveConfig
        Budget.
    """
    tau = _data_step(fwd)
    # v is built in the data space; the loop skips source_gradient's checks
    if np.shape(u_true) != fwd.domain_shape:
        raise InputError("u_true must live in the domain of the forward map")

    dtype = complex if fwd.codomain_complex else float
    v = np.zeros(fwd.codomain_shape, dtype=dtype)
    y = v
    t = 1.0

    def measure():
        return float(np.linalg.norm(_source_gradient(v, u_true, fwd, prox)))

    def advance():
        nonlocal v, y, t
        g = _source_gradient(y, u_true, fwd, prox)
        v_next = y - tau * g
        step = v_next - v
        if real_inner(g, step) > 0:
            # extrapolation is fighting the gradient: restart the momentum
            t = 1.0
            y = v_next
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = v_next + ((t - 1.0) / t_next) * step
            t = t_next
        v = v_next

    outcome = _iterate(cfg, measure, advance, every_step=False)
    return _finish(v, None, *outcome)


def solve_range_cd(u_true: np.ndarray, fwd: LinearMap, grad_op: LinearMap,
                   prox_h: ProxFunctional, cfg: SolveConfig) -> SolveReport:
    """Coordinate descent for the range-condition certificate pair ``(v, q)``.

    Minimizes ``0.5 ||K* v - A* q||^2`` plus the subgradient-membership loss of
    ``q`` at ``A u``, alternating explicit gradient steps in ``v`` and ``q``.
    The steps come from the norm bounds: ``tau = 1/||K||^2`` (1 for the zero
    map) and ``sigma = 1/(||A||^2 + 1)``.  The stopping metric is the mean of
    the two partial-derivative norms evaluated at the current pair.

    ``v`` starts at zero and each step moves it by ``-tau K d`` with
    ``d = K* v - A* q``, so ``v = K D`` for the real image ``D``, the sum of
    the ``-tau d``.  The solver holds ``D`` and the carried ``K* v`` instead
    of ``v``: a step updates ``K* v`` by ``-tau K* K d`` and ``v = K D`` is
    formed once, at the end.  The metric at a pair and the step from it share
    ``A* q``, ``d``, ``K* K d`` and ``prox(a + q)``, so an iteration calls
    ``fwd.normal`` once (one real FFT pair for Fourier sampling, no transform
    for a full mask), the gradient twice, the divergence once and the prox
    once.

    The iterates and the shared terms live in work arrays allocated once per
    solve.  The gradient, divergence and prox write into them through
    ``apply_into``, ``adjoint_into`` and ``prox(..., out=)``, and the updates
    are in-place ufuncs that keep the order of every operation, so the
    iterates are those of the plain formulas, bit for bit.  A step allocates
    no image or field of its own; ``fwd.normal`` and the per-pixel norms
    inside the prox still allocate theirs.
    """
    tau = _data_step(fwd)
    sigma = _dual_step(grad_op)
    a_field = grad_op.apply(u_true)
    image = np.zeros(fwd.domain_shape)  # D, with v = K D
    kv = np.zeros(fwd.domain_shape)  # K* v
    q = np.zeros(grad_op.codomain_shape)
    # the terms the metric carries into the step, and work space for both
    aq = np.empty(fwd.domain_shape)
    d = np.empty(fwd.domain_shape)
    scaled = np.empty(fwd.domain_shape)
    shrunk = np.empty(grad_op.codomain_shape)
    field = np.empty(grad_op.codomain_shape)
    kkd = None

    def measure():
        nonlocal kkd
        grad_op.adjoint_into(q, aq)
        np.subtract(kv, aq, out=d)
        kkd, kd_norm = fwd.normal(d)
        np.add(a_field, q, out=shrunk)
        prox_h.prox(shrunk, out=shrunk)
        grad_op.apply_into(d, field)  # -A d + prox(a + q) - a
        np.negative(field, out=field)
        np.add(field, shrunk, out=field)
        np.subtract(field, a_field, out=field)
        return 0.5 * (kd_norm + float(np.linalg.norm(field)))

    def advance():
        np.multiply(tau, d, out=scaled)
        np.subtract(image, scaled, out=image)
        np.multiply(tau, kkd, out=scaled)
        np.subtract(kv, scaled, out=kv)
        np.subtract(aq, kv, out=aq)
        grad_op.apply_into(aq, field)  # A (A* q - K* v) + prox(a + q) - a
        np.add(field, shrunk, out=field)
        np.subtract(field, a_field, out=field)
        np.multiply(sigma, field, out=field)
        np.subtract(q, field, out=q)

    outcome = _iterate(cfg, measure, advance, every_step=True)
    return _finish(fwd.apply(image), q, *outcome)


def solve_palm(u_true: np.ndarray, grad_op: LinearMap, prox_h: ProxFunctional,
               beta: float, cfg: SolveConfig) -> SolveReport:
    """Learn a sparse data-space certificate by proximal alternating steps.

    The data-space block carries an extra one-norm penalty with weight
    ``beta`` (complex modulus shrinkage) so that its zero set defines a
    Fourier sampling pattern.  It couples through the unitary DFT ``F``, the
    full-mask Fourier map, and the steps come from the norm bounds:
    ``tau = 1/||F||^2``, exactly 1, and ``sigma = 1/(||A||^2 + 1)``.

    The stopping metric at iterate ``k`` is the mean of ``||dv||/tau`` and
    ``||dq||/sigma`` over the step *from* ``k``, so it is taken on every step
    and the step reuses it; at the budget it measures a step not taken.

    ``v`` starts at zero, and each step shrinks a combination of ``v`` and
    ``F`` of a real image, so ``v`` stays Hermitian.  The solver holds its
    half spectrum (``rdft2``): a step takes one ``rdft2``/``irdft2`` pair,
    ``||dv||`` and ``nnz`` count each stored entry with its mirror
    multiplicity, and the full ``v`` is formed once, at the end.  The
    iterates live in work arrays allocated once per solve, written by
    in-place ufuncs in the order of the plain formulas.

    Returns the complex certificate in ``report.v``, the dual field in
    ``report.q`` and the number of nonzero entries in ``report.nnz``.
    """
    if beta <= 0:
        raise ConfigurationError("beta must be positive")
    shape = u_true.shape
    tau = _data_step(fourier_sampling(full_mask(shape)))
    sigma = _dual_step(grad_op)
    weights = mirror_weights(shape[1])

    a_field = grad_op.apply(u_true)
    half_shape = (shape[0], weights.size)
    vt = np.zeros(half_shape, dtype=complex)
    q = np.zeros(grad_op.codomain_shape)
    # the step the metric measured, taken by advance, and work space
    vt_new = np.empty(half_shape, dtype=complex)
    q_new = np.empty(grad_op.codomain_shape)
    coupled = np.empty(half_shape, dtype=complex)
    aq = np.empty(shape)
    field = np.empty(grad_op.codomain_shape)
    shrunk = np.empty(grad_op.codomain_shape)

    def measure():
        grad_op.adjoint_into(q, aq)
        rdft2(aq, out=coupled)
        np.subtract(vt, coupled, out=coupled)  # vt - tau (vt - F aq)
        np.multiply(tau, coupled, out=coupled)
        np.subtract(vt, coupled, out=coupled)
        soft_threshold(coupled, tau * beta, out=vt_new)
        back = irdft2(vt_new, shape)
        np.subtract(aq, back, out=back)  # q - sigma (A (aq - back) + prox(q + a) - a)
        grad_op.apply_into(back, field)
        np.add(q, a_field, out=shrunk)
        prox_h.prox(shrunk, out=shrunk)
        np.add(field, shrunk, out=field)
        np.subtract(field, a_field, out=field)
        np.multiply(sigma, field, out=field)
        np.subtract(q, field, out=q_new)
        np.subtract(vt_new, vt, out=coupled)
        power = coupled.real * coupled.real + coupled.imag * coupled.imag
        dv = math.sqrt(float(np.add.reduce(weights * power, axis=None)))
        np.subtract(q_new, q, out=field)
        return 0.5 * (dv / tau + float(np.linalg.norm(field)) / sigma)

    def advance():
        nonlocal vt, q, vt_new, q_new
        vt, vt_new = vt_new, vt
        q, q_new = q_new, q

    outcome = _iterate(cfg, measure, advance, every_step=True)
    nnz = int(np.count_nonzero(vt, axis=0) @ weights)
    return _finish(full_spectrum(vt, shape[1]), q, *outcome, nnz=nnz)


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
