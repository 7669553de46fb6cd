"""Regularizer values, proximal maps, and a-posteriori subgradient checks.

Covers the one-norm, the group (2,1)-norm on two-channel fields, isotropic
total variation, and the norm-ball indicator used for projections.  All
proximal maps are closed form and firmly nonexpansive.

A field is a real array of two or more axes with ``shape[0] == 2``; the group
of a pixel is ``(z[0][p], z[1][p])``, and the groups of any other array are
its entries.  The dual fields of ``GradientMap`` are fields, with zero pads
that every group kernel maps to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .operators import _check_out, grad2


def _is_field(z: np.ndarray) -> bool:
    return z.ndim >= 2 and z.shape[0] == 2 and not np.iscomplexobj(z)


def _magnitudes(z: np.ndarray, pairs: bool) -> np.ndarray:
    """A new array of the norms of the 2-vectors of a field with ``pairs``,
    bit for bit ``sqrt(sum(z * z, axis=0))``, else of the entries' moduli."""
    if not pairs:
        return np.abs(z)
    z0, z1 = z[0], z[1]
    r = z0 * z0
    r += z1 * z1
    return np.sqrt(r, out=r if r.dtype.kind == "f" else None)  # or an integer field


def _scale_into(z: np.ndarray, factor: np.ndarray, out, pairs: bool) -> np.ndarray:
    """``z * factor`` written into ``out`` (a new array if it is None, or ``z``
    itself); with ``pairs`` each factor scales one 2-vector of a field."""
    if out is None:
        out = np.empty(z.shape, np.result_type(z, factor))
    else:
        _check_out(out, z.shape)
    if pairs:
        np.multiply(z[0], factor, out=out[0])
        np.multiply(z[1], factor, out=out[1])
    else:
        np.multiply(z, factor, out=out)
    return out


@np.errstate(invalid="ignore")  # raised by infinite entries only
def _shrink(z: np.ndarray, r: np.ndarray, beta: float, out, pairs: bool) -> np.ndarray:
    """``z * factor`` as by ``_scale_into``, with ``factor = max(r - beta, 0) / r``
    where the group magnitude ``r > 0`` and 0 elsewhere; NaN where ``r`` is inf or NaN."""
    # np.maximum returns a scalar for 0-d input; out= needs an array
    factor = np.asarray(np.maximum(r - beta, 0.0))
    np.divide(factor, r, out=factor, where=r > 0)
    if out is None and not pairs:  # the descent's per-step prox: no further call
        return z * factor
    return _scale_into(z, factor, out, pairs)


def soft_threshold(z: np.ndarray, beta: float = 1.0, out=None) -> np.ndarray:
    """Componentwise shrinkage towards zero by ``beta``.

    Real entries follow ``sign(z) * max(|z| - beta, 0)``; complex entries are
    shrunk in modulus, with 0 mapping to 0.  An infinite or NaN entry comes
    out NaN, without a floating-point warning.  The result goes to ``out``
    when it is given, an array of the shape of ``z`` or ``z`` itself.
    """
    if not beta >= 0:
        raise InputError("shrinkage weight must be nonnegative")
    z = np.asarray(z)
    return _shrink(z, np.abs(z), beta, out, pairs=False)


def group_soft_threshold(z: np.ndarray, beta: float = 1.0, out=None) -> np.ndarray:
    """Pixelwise shrinkage of the 2-vectors of a field by ``beta`` in the
    Euclidean norm; anything but a field is refused.  A zero 2-vector stays
    zero, and one holding inf or NaN comes out NaN, without a floating-point
    warning.  The result goes to ``out`` when it is given, an array of the
    shape of ``z`` or ``z`` itself."""
    if not beta >= 0:
        raise InputError("shrinkage weight must be nonnegative")
    z = np.asarray(z)
    if not _is_field(z):
        raise InputError(f"group shrinkage needs a real (2, ...) field, got {z.shape} {z.dtype}")
    z = np.asarray(z, dtype=float)
    return _shrink(z, _magnitudes(z, True), beta, out, pairs=True)


def project_group_ball(z: np.ndarray, radius: float = 1.0, out=None) -> np.ndarray:
    """Project onto the Euclidean ball of the given radius, groupwise.

    A field has one ball per 2-vector; anything else is clamped componentwise,
    complex entries in modulus, by a real factor on their real and imaginary
    parts.  A group holding NaN comes out NaN for a finite radius and is kept
    for an infinite one.  In a group outside the ball an infinite entry (or
    part) comes out NaN (``0 * inf``) and a finite one 0, without a
    floating-point warning.  The result goes to ``out`` when it is given, an
    array of the shape of ``z`` or ``z`` itself.
    """
    if not radius >= 0:
        raise InputError("ball radius must be nonnegative")
    z = np.asarray(z)
    pairs = _is_field(z)
    r = _magnitudes(z, pairs)
    with np.errstate(invalid="ignore"):  # 0 / 0, discarded, and 0 * inf
        if radius == np.inf:
            scale = np.ones(np.shape(r))
        elif radius > 0:
            # radius / radius == 1.0 exactly, so groups inside the ball are kept
            scale = radius / np.maximum(r, radius)
        else:  # groups of norm 0 (squares may underflow) are kept
            scale = np.where(r == 0, 1.0, 0.0 / r)
        if z.dtype.kind != "c":
            return _scale_into(z, scale, out, pairs)
        if out is None:
            out = np.empty(z.shape, np.result_type(z, scale))
        _check_out(out, z.shape)
        _scale_into(z.real, scale, out.real, False)
        _scale_into(z.imag, scale, out.imag, False)
        return out


def tv_value(u: np.ndarray) -> float:
    """Isotropic total variation: sum of Euclidean norms of forward differences."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < 2 or u.shape[1] < 2:
        raise InputError("total variation needs a 2D grid of at least 2x2")
    # the pads of the gradient hold no group
    return float(np.sum(_magnitudes(grad2(*u.shape).apply(u)[:, :-1, :-1], True)))


class ProxFunctional:
    """A weighted convex functional with a closed-form proximal map.

    kind
        "l1" for the one-norm, "group_l21" for the pixelwise (2,1)-norm on
        two-channel fields, or "indicator_norm_ball" for the indicator of the
        unit-scale ball (whose prox is the projection).
    scale
        Nonnegative weight; for norms this multiplies the functional, for the
        indicator it is the ball radius.
    """

    KINDS = ("l1", "group_l21", "indicator_norm_ball")

    def __init__(self, kind: str, scale: float = 1.0):
        if kind not in self.KINDS:
            raise InputError(f"unknown functional kind {kind!r}")
        if not scale >= 0:  # also refuses NaN
            raise InputError("scale must be nonnegative")
        self.kind = kind
        self.scale = float(scale)

    def __repr__(self):
        return f"ProxFunctional({self.kind!r}, scale={self.scale})"

    def value(self, z: np.ndarray) -> float:
        """Value at ``z``, over the groups that ``prox`` uses."""
        z = np.asarray(z)
        pairs = self.kind != "l1" and _is_field(z)
        if self.kind == "group_l21" and not pairs:
            raise InputError(f"group norm needs a real (2, ...) field, got {z.shape} {z.dtype}")
        r = _magnitudes(z, pairs)
        if self.kind == "indicator_norm_ball":
            return 0.0 if float(r.max(initial=0.0)) <= self.scale else float("inf")
        return self.scale * float(np.sum(r))

    def prox(self, z: np.ndarray, out=None) -> np.ndarray:
        """Proximal map at ``z``, written to ``out`` when it is given (an
        array of the shape of ``z`` or ``z`` itself)."""
        if self.kind == "l1":
            return soft_threshold(z, self.scale, out=out)
        if self.kind == "group_l21":
            return group_soft_threshold(z, self.scale, out=out)
        return project_group_ball(z, self.scale, out=out)


@dataclass
class SubgradientCheck:
    """Outcome of an a-posteriori subgradient membership test."""

    max_group_norm: float
    support_mismatch: float
    residual: float
    tol: float
    passed: bool


def verify_l1_subgradient(p: np.ndarray, w: np.ndarray, tol: float = 1e-6) -> SubgradientCheck:
    """Check ``p`` against the componentwise subdifferential of the one-norm at ``w``.

    On the support of ``w`` the entries of ``p`` must match ``sign(w)``; off
    the support they must lie in [-1, 1], up to ``tol``.
    """
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if p.shape != w.shape:
        raise InputError("p and w must have equal shapes")
    on = w != 0
    support_mismatch = float(np.max(np.abs(p[on] - np.sign(w[on])), initial=0.0))
    max_group_norm = float(np.max(np.abs(p[~on]), initial=0.0))
    passed = bool(support_mismatch <= tol and max_group_norm <= 1.0 + tol)
    return SubgradientCheck(max_group_norm, support_mismatch, 0.0, tol, passed)


def verify_tv_subgradient(v: np.ndarray, q: np.ndarray, u: np.ndarray,
                          tol: float = 1e-6) -> SubgradientCheck:
    """Check that ``v = A^T q`` certifies membership in the TV subdifferential at ``u``.

    Requires the dual field ``q`` to stay in the pointwise unit ball, to align
    with the normalized gradient of ``u`` wherever that gradient is nonzero,
    and the divergence identity ``v = A^T q`` to hold up to ``tol``.  ``q``
    has the ``(2, n_y, n_x)`` layout of ``grad2(*u.shape)``, whose pads hold
    no group: their values are ignored.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    q = np.asarray(q, dtype=float)
    a = grad2(*u.shape)
    if v.shape != u.shape or q.shape != a.codomain_shape:
        raise InputError("inconsistent shapes for TV subgradient check")
    residual = float(np.linalg.norm(v - a.adjoint(q)))
    norm_ok = residual <= tol * max(1.0, float(np.linalg.norm(v)))
    # the pads of q hold no group; the adjoint reads them as zero too
    max_group_norm = float(_magnitudes(q[:, :-1, :-1], True).max(initial=0.0))
    gu = a.apply(u)
    gnorm = _magnitudes(gu, True)
    active = gnorm > 0  # never a pad: the gradient is zero there
    unit = gu[:, active] / gnorm[active]
    support_mismatch = float(np.max(_magnitudes(q[:, active] - unit, True), initial=0.0))
    passed = bool(norm_ok and max_group_norm <= 1.0 + tol and support_mismatch <= tol)
    return SubgradientCheck(max_group_norm, support_mismatch, residual, tol, passed)
