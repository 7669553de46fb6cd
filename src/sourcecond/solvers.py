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
import sys
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, InputError
from .functionals import ProxFunctional, soft_threshold
from .operators import (LinearMap, SamplingMask, full_spectrum, irdft2, mirror_weights, norm,
                        rdft2, real_inner)


def _fits(value, kind) -> bool:
    """Whether ``value`` can stand for a field annotated ``kind``: an int (no
    bool), a finite int or float, a string, a dict, a list or tuple whose
    entries fit a ``tuple[...]``, or any of these for ``X | None``."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if args:  # ``X | None``
        return any(_fits(value, k) for k in args)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:  # NaN, inf and integers beyond float's range fail the bound
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check_fields(config) -> None:
    """Refuse, with ``ConfigurationError``, a field of the dataclass ``config``
    that does not fit its annotation; every config calls it first."""
    kinds = typing.get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if not _fits(value, kinds[f.name]):
            raise ConfigurationError(
                f"bad config value: {f.name}={value!r} is not of type {f.type}")


@dataclass
class SolveConfig:
    """Budget of one solve: at most ``max_iters`` steps, a stop at a metric
    ``<= grad_tol``, and a record of every ``record_every``-th iterate and
    the last.  ``_iterate`` states when the metric is taken.  Step sizes are
    not set here: each solver derives them from its operators.
    """

    max_iters: int = 1000
    grad_tol: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if self.grad_tol < 0:
            raise ConfigurationError("grad_tol must be nonnegative")
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


def _finish(v, q, iterations, grad_norm, history, termination) -> SolveReport:
    history = list(history)
    if not history or history[-1][0] != iterations:
        history.append((iterations, grad_norm))
    return SolveReport(v=v, q=q, iterations=iterations, final_grad_norm=grad_norm,
                       v_norm=norm(v), history=history, termination=termination)


def bregman_loss(u: np.ndarray, p: np.ndarray, prox: ProxFunctional) -> float:
    """Bi-convex loss whose p-gradient is ``prox(p) - u``.

    Evaluated through the proximal point ``w = prox(p)`` as
    ``0.5 * ||u - w||^2 + J(u) - J(w) - <p - w, u - w>``.
    """
    w = prox.prox(p)
    quad = 0.5 * norm(u - w) ** 2
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


def _iterate(cfg: SolveConfig, measure, advance, start: int = 0, halves: bool = True):
    """The iteration loop of every solver, over iterates ``start..max_iters``,
    and the one owner of the stop rule.

    The metric at an iterate is taken at every record step (every
    ``cfg.record_every``-th iterate and the last), where it enters the
    history, and, when ``halves`` is set and ``cfg.grad_tol > 0``, at every
    other step too.  The loop stops at the first metric ``<= cfg.grad_tol``
    ("tolerance"), at a NaN metric ("diverged") or at the budget
    ("max_iters"); only an exact zero meets a zero tolerance.

    With ``halves``, ``measure()`` returns ``(first, second)``: a norm, and
    a function that takes the other norm.  The metric is their mean, and a
    non-record step calls ``second`` only when ``first`` is not finite or
    is at most ``2 * cfg.grad_tol`` (``_mean_of_halves``); a NaN that only
    ``second`` carries is then found once it reaches ``first`` or at the
    next record step.  Without ``halves``, ``measure()`` returns the metric.

    ``advance(measured)`` steps from iterate ``k`` to ``k + 1``, told
    whether the loop takes the metric there, so that a step can give the
    norms it makes with its work (range-CD's ``||K d||``) only where they
    are read.  Returns ``(iterations, metric, history, termination)``, the
    arguments ``_finish`` takes after the iterates.
    """
    last, every, tol = cfg.max_iters, cfg.record_every, cfg.grad_tol
    every_step = halves and tol > 0
    history = []
    record = start == last or start % every == 0
    for k in range(start, last + 1):
        if record or every_step:
            metric = _mean_of_halves(*measure(), record, tol) if halves else measure()
            if record:
                history.append((k, metric))
            if metric <= tol:
                return k, metric, history, "tolerance"
            if math.isnan(metric):
                return k, metric, history, "diverged"
        if k < last:
            record = k + 1 == last or (k + 1) % every == 0
            advance(record or every_step)
    return last, metric, history, "max_iters"


def _mean_of_halves(first: float, second, exact: bool, tol: float) -> float:
    """The two-part metric ``0.5 * (first + second())``.

    Unless ``exact``, ``second`` is not called when ``0.5 * first`` is finite
    and above ``tol``, and that value is returned instead: ``second()``
    is a norm, so the mean is at least ``0.5 * first`` in floating point too
    and cannot stop the loop.
    """
    half = 0.5 * first
    if not exact and half > tol and math.isfinite(first):
        return half
    return 0.5 * (first + second())


def _squared_bound(op: LinearMap) -> float:
    """``||op||^2`` from the norm bound of ``op``; a bound whose square is
    not finite (infinite, NaN or past about 1.34e154) is refused."""
    try:
        square = op.norm_bound ** 2
    except OverflowError:  # a float bound whose square passes the float range
        square = math.inf
    if not math.isfinite(square):
        raise ConfigurationError(
            f"the norm bound {op.norm_bound} of {type(op).__name__} has no finite square")
    return square


def _data_step(fwd: LinearMap) -> float:
    """Step ``1/||K||^2`` of a data block from the norm bound of ``K``
    (1 for the zero map)."""
    lam = _squared_bound(fwd)
    return 1.0 / lam if lam > 0 else 1.0


def _dual_step(grad_op: LinearMap) -> float:
    """Step ``1/(||A||^2 + 1)`` of a dual block from the norm bound of ``A``."""
    return 1.0 / (_squared_bound(grad_op) + 1.0)


def solve_source_gd(u_true: np.ndarray, fwd: LinearMap, prox: ProxFunctional,
                    cfg: SolveConfig) -> SolveReport:
    """Minimize the certificate objective by accelerated gradient descent.

    Uses heavy-ball extrapolation with the classical t-sequence and a
    gradient-based adaptive restart, with the step ``tau = 1/||K||^2`` from
    the norm bound of ``fwd`` (1 for the zero map), the inverse Lipschitz
    constant of the gradient.  The iteration starts from zero; its metric,
    taken at record steps only, is the norm of the gradient at the iterate.

    The iterates and the gradient's terms live in work arrays allocated once
    per solve, and the shapes are checked once, here.  ``v`` and the next
    ``v`` swap two buffers; ``y``, the step, the gradient ``g`` and
    ``z = u + K* y`` have one each, and a restart copies the next ``v`` into
    ``y``.  A step takes ``K* y`` and ``K z`` by ``adjoint(y, out=)`` and
    ``apply(z, out=)``, shrinks ``z`` in place (``ProxFunctional.in_place``: for
    the one-norm, ``soft_threshold``'s arithmetic with its divisor
    ``max(|z|, 5e-324)``, in two more work arrays) and updates by in-place
    ufuncs in the order of the plain formulas, with ``tau`` and the momentum
    factor as 0-d operands, so the iterates are those of the plain formulas
    bit for bit and a step allocates nothing.  The metric at a record step
    is the norm of ``source_gradient`` at ``v``, formed by the plain calls.
    The loop runs under one ``np.errstate(invalid="ignore")`` instead of the
    shrinkage entering one per call: an infinite entry makes NaN without a
    warning, and the solve ends "diverged".  A complex ``u_true`` needs a
    map with a complex codomain, as its gradient is complex.

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
    tau = np.array(_data_step(fwd))
    # v is built in the data space; the loop skips source_gradient's checks
    if np.shape(u_true) != fwd.domain_shape:
        raise InputError("u_true must live in the domain of the forward map")

    dtype = complex if fwd.codomain_complex else float
    v = np.zeros(fwd.codomain_shape, dtype=dtype)
    u = np.asarray(u_true)
    z = u + fwd.adjoint(v)  # u + K* y, in the dtype the sum takes
    if z.dtype.kind == "c" and dtype is float:
        raise InputError("a complex u_true needs a forward map with a complex codomain")
    v_next, y, step, g = (np.zeros_like(v) for _ in range(4))
    shrink = prox.in_place(z)
    t, momentum = 1.0, np.zeros(())  # the 0-d operand of (t - 1) / t_next
    if dtype is complex:
        def ascent():
            return real_inner(g, step)
    else:
        product = np.empty_like(g)

        def ascent():  # real_inner's sum, into a work array
            return np.add.reduce(np.multiply(g, step, out=product), axis=None)

    def measure():
        return norm(_source_gradient(v, u_true, fwd, prox))

    def advance(_measured):
        nonlocal v, v_next, t
        fwd.adjoint(y, out=z)
        np.add(u, z, out=z)
        shrink()
        np.subtract(z, u, out=z)
        fwd.apply(z, out=g)
        np.multiply(tau, g, out=v_next)
        np.subtract(y, v_next, out=v_next)
        np.subtract(v_next, v, out=step)
        if ascent() > 0:
            # extrapolation is fighting the gradient: restart the momentum
            t = 1.0
            np.copyto(y, v_next)
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            momentum[()] = (t - 1.0) / t_next
            np.multiply(momentum, step, out=y)
            np.add(v_next, y, out=y)
            t = t_next
        v, v_next = v_next, v

    with np.errstate(invalid="ignore"):
        outcome = _iterate(cfg, measure, advance, halves=False)
    return _finish(v, None, *outcome)


def solve_range_cd(u_true: np.ndarray, fwd: LinearMap, grad_op: LinearMap,
                   prox_h: ProxFunctional, cfg: SolveConfig) -> SolveReport:
    """Coordinate descent for the range-condition certificate pair ``(v, q)``.

    Minimizes ``0.5 ||K* v - A* q||^2`` plus the subgradient-membership loss of
    ``q`` at ``A u``, alternating explicit gradient steps in ``v`` and ``q``.
    The steps come from the norm bounds: ``tau = 1/||K||^2`` (1 for the zero
    map) and ``sigma = 1/(||A||^2 + 1)``.  The stopping metric is the mean of
    the two partial-derivative norms evaluated at the current pair:
    ``||K d||`` and the norm of the field residual, its two halves.

    ``v`` starts at zero and each step moves it by ``-tau K d`` with
    ``d = K* v - A* q``, so ``v = K D`` for the real image ``D``, the sum of
    the ``-tau d``.  The solver holds ``D`` and the carried ``K* v`` instead
    of ``v``: a step updates ``K* v`` by ``-tau K* K d`` and ``v = K D`` is
    formed once, at the end.  The metric at a pair and the step from it share
    ``A* q``, ``d``, ``K* K d`` and ``prox(a + q)``, which are computed once
    per pair, by the step into it.  ``fwd.normal`` returns ``||K d||`` with
    ``K* K d`` on the steps into an iterate where ``_iterate`` takes the
    metric; the other steps call ``fwd.normal(d, norm=False)``.  So a step
    calls ``fwd.normal`` once
    (one real FFT pair for Fourier sampling, no transform for a full mask),
    the gradient once, the divergence once and the prox once; a metric that
    takes its field norm adds one gradient, three field passes and a norm.

    The iterates and the shared terms live in work arrays allocated once per
    solve.  The gradient, divergence and prox write into them through
    ``apply(..., out=)``, ``adjoint(..., out=)`` and ``prox(..., out=)``, and
    the updates are in-place ufuncs that keep the order of every operation,
    so the iterates are those of the plain formulas, bit for bit, whichever
    steps take the metric.  A step allocates no image or field of its own; a
    masked ``fwd.normal`` still allocates its half spectra, and the group
    shrinkage its squared-norm plane, the mask of the groups that may cross
    the threshold and, when more than one group in ten may, the factors of
    the whole field (``group_soft_threshold``).
    """
    tau = _data_step(fwd)
    sigma = _dual_step(grad_op)
    a_field = grad_op.apply(u_true)
    image = np.zeros(fwd.domain_shape)  # D, with v = K D
    kv = np.zeros(fwd.domain_shape)  # K* v
    q = np.zeros(grad_op.codomain_shape)
    # the terms the metric and the step share, and work space for both
    aq = np.empty(fwd.domain_shape)
    d = np.empty(fwd.domain_shape)
    scaled = np.empty(fwd.domain_shape)
    shrunk = np.empty(grad_op.codomain_shape)
    field = np.empty(grad_op.codomain_shape)
    kkd = kd_norm = None

    def share(measured):
        nonlocal kkd, kd_norm
        grad_op.adjoint(q, out=aq)
        np.subtract(kv, aq, out=d)
        kkd, kd_norm = fwd.normal(d, norm=measured)
        np.add(a_field, q, out=shrunk)
        prox_h.prox(shrunk, out=shrunk)

    def field_norm():
        grad_op.apply(d, out=field)  # -A d + prox(a + q) - a
        np.negative(field, out=field)
        np.add(field, shrunk, out=field)
        np.subtract(field, a_field, out=field)
        return norm(field)

    def measure():
        return kd_norm, field_norm

    def advance(measured):
        np.multiply(tau, d, out=scaled)
        np.subtract(image, scaled, out=image)
        np.multiply(tau, kkd, out=scaled)
        np.subtract(kv, scaled, out=kv)
        np.subtract(aq, kv, out=aq)
        grad_op.apply(aq, out=field)  # A (A* q - K* v) + prox(a + q) - a
        np.add(field, shrunk, out=field)
        np.subtract(field, a_field, out=field)
        np.multiply(sigma, field, out=field)
        np.subtract(q, field, out=q)
        share(measured)

    share(True)  # iterate 0 is always recorded
    outcome = _iterate(cfg, measure, advance)
    return _finish(fwd.apply(image), q, *outcome)


def solve_palm(u_true: np.ndarray, grad_op: LinearMap, prox_h: ProxFunctional,
               beta: float, cfg: SolveConfig) -> SolveReport:
    """Learn a sparse data-space certificate by proximal alternating steps.

    The data-space block carries an extra one-norm penalty with weight
    ``beta`` (complex modulus shrinkage) so that its zero set defines a
    Fourier sampling pattern.  It couples through the unitary DFT ``F``, the
    full-mask Fourier map, and the steps come from the norm bounds:
    ``tau = 1/||F||^2``, which is 1 because a unitary map has norm 1 (so the
    data step is written without it), and ``sigma = 1/(||A||^2 + 1)``.

    The stopping metric at iterate ``k`` is the mean of its two halves,
    ``||dv||/tau`` and ``||dq||/sigma``, over the step *from* ``k``, so each
    step is computed once, into the iterate it comes from, and the metric
    takes only the two displacement norms; at the budget it measures a step
    not taken.

    ``v`` starts at zero, and each step shrinks a combination of ``v`` and
    ``F`` of a real image, so ``v`` stays Hermitian.  The solver holds its
    half spectrum (``rdft2``): a step takes one ``rdft2``/``irdft2`` pair,
    ``||dv||`` counts each stored entry with its mirror multiplicity, and
    the full ``v`` is formed once, at the end.  The
    iterates live in work arrays allocated once per solve, written by
    in-place ufuncs in the order of the plain formulas.

    Returns the complex certificate in ``report.v`` and the dual field in
    ``report.q``.
    """
    if beta <= 0:
        raise ConfigurationError("beta must be positive")
    shape = u_true.shape
    sigma = _dual_step(grad_op)
    weights = mirror_weights(shape[1])

    a_field = grad_op.apply(u_true)
    half_shape = (shape[0], weights.size)
    vt = np.zeros(half_shape, dtype=complex)
    q = np.zeros(grad_op.codomain_shape)
    # the step from the current iterate, and work space
    vt_new = np.empty(half_shape, dtype=complex)
    q_new = np.empty(grad_op.codomain_shape)
    coupled = np.empty(half_shape, dtype=complex)
    aq = np.empty(shape)
    field = np.empty(grad_op.codomain_shape)
    shrunk = np.empty(grad_op.codomain_shape)

    def step():
        grad_op.adjoint(q, out=aq)
        rdft2(aq, out=coupled)
        np.subtract(vt, coupled, out=coupled)  # vt - (vt - F aq), with tau = 1
        np.subtract(vt, coupled, out=coupled)
        soft_threshold(coupled, beta, out=vt_new)
        back = irdft2(vt_new, shape)
        np.subtract(aq, back, out=back)  # q - sigma (A (aq - back) + prox(q + a) - a)
        grad_op.apply(back, out=field)
        np.add(q, a_field, out=shrunk)
        prox_h.prox(shrunk, out=shrunk)
        np.add(field, shrunk, out=field)
        np.subtract(field, a_field, out=field)
        np.multiply(sigma, field, out=field)
        np.subtract(q, field, out=q_new)

    def dq_norm():
        np.subtract(q_new, q, out=field)
        return norm(field) / sigma

    def measure():
        np.subtract(vt_new, vt, out=coupled)
        return norm(coupled, weights), dq_norm

    def advance(_measured):
        nonlocal vt, q, vt_new, q_new
        vt, vt_new = vt_new, vt
        q, q_new = q_new, q
        step()

    step()
    outcome = _iterate(cfg, measure, advance)
    return _finish(full_spectrum(vt, shape[1]), q, *outcome)


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
