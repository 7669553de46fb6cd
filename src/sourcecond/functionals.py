"""Regularizer values, proximal maps, and a-posteriori subgradient checks.

Covers the one-norm, the group (2,1)-norm on two-channel fields, isotropic
total variation, and the norm-ball indicator used for projections.  All
proximal maps are closed form and firmly nonexpansive.

A two-channel field holds its channels on the leading axis, shape
``(2, ...)``: the group of a pixel is ``(z[0][p], z[1][p])``, and each
channel is a contiguous plane.  The dual fields of ``GradientMap`` are such
fields, with zero pads that every group kernel maps to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .operators import _check_out, grad2


def _pair_norm(z: np.ndarray) -> np.ndarray:
    """Euclidean norms of the 2-vectors along the leading axis, from the two
    channel planes; equal bit for bit to ``sqrt(sum(z * z, axis=0))``."""
    z0, z1 = z[0], z[1]
    return np.sqrt(z0 * z0 + z1 * z1)


def soft_threshold(z: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Componentwise shrinkage towards zero by ``beta``.

    Real entries follow ``sign(z) * max(|z| - beta, 0)``; complex entries are
    shrunk in modulus, with 0 mapping to 0.  The result is ``z * factor`` with
    ``factor = max(|z| - beta, 0) / |z|`` where ``|z| > 0`` and 0 elsewhere,
    so an infinite entry (``inf / inf``) comes out NaN, as does a NaN entry,
    without a floating-point warning.
    """
    if not beta >= 0:
        raise InputError("shrinkage weight must be nonnegative")
    z = np.asarray(z)
    mag = np.abs(z)
    with np.errstate(invalid="ignore"):  # raised by infinite entries only
        # np.maximum returns a scalar for 0-d input; out= needs an array
        factor = np.asarray(np.maximum(mag - beta, 0.0))
        np.divide(factor, mag, out=factor, where=mag > 0)
        return z * factor


def _scale_into(z: np.ndarray, factor: np.ndarray, out, pairs: bool) -> np.ndarray:
    """``z * factor`` written into ``out`` (a new array if it is None), where
    with ``pairs`` each factor scales one 2-vector along the leading axis,
    one channel plane at a time.  ``out`` may be ``z`` itself.
    """
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


def group_soft_threshold(z: np.ndarray, beta: float = 1.0, out=None) -> np.ndarray:
    """Pixelwise shrinkage of 2-vectors by ``beta`` in the Euclidean norm.

    ``z`` has shape (2, ...); a zero 2-vector stays zero.  The result goes to
    ``out`` when it is given, an array of the shape of ``z`` or ``z`` itself.
    """
    if not beta >= 0:
        raise InputError("shrinkage weight must be nonnegative")
    z = np.asarray(z, dtype=float)
    if z.ndim < 1 or z.shape[0] != 2:
        raise InputError(f"group shrinkage needs a leading axis of length 2, got {z.shape}")
    r = _pair_norm(z)
    factor = np.maximum(r - beta, 0.0)
    factor /= np.where(r > 0, r, 1.0)
    return _scale_into(z, factor, out, pairs=True)


def project_group_ball(z: np.ndarray, radius: float = 1.0, out=None) -> np.ndarray:
    """Project onto the Euclidean ball of the given radius, groupwise.

    Real arrays of two or more axes whose leading axis has length 2 are
    treated as vector fields (one ball per 2-vector along that axis);
    anything else is clamped componentwise, complex
    entries in modulus.  A group holding NaN comes out NaN in every entry.
    The result goes to ``out`` when it is given, an array of the shape of
    ``z`` or ``z`` itself.
    """
    if not radius >= 0:
        raise InputError("ball radius must be nonnegative")
    z = np.asarray(z)
    pairs = z.ndim >= 2 and z.shape[0] == 2 and not np.iscomplexobj(z)
    r = _pair_norm(z) if pairs else np.abs(z)
    if 0 < radius < np.inf:
        # radius / radius == 1.0 exactly, so groups inside the ball are kept
        scale = radius / np.maximum(r, radius)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(r > radius, radius / np.where(r > 0, r, 1.0), 1.0)
    return _scale_into(z, scale, out, pairs)


def tv_value(u: np.ndarray) -> float:
    """Isotropic total variation: sum of Euclidean norms of forward differences."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < 2 or u.shape[1] < 2:
        raise InputError("total variation needs a 2D grid of at least 2x2")
    dy = u[1:, :-1] - u[:-1, :-1]
    dx = u[:-1, 1:] - u[:-1, :-1]
    return float(np.sum(np.sqrt(dy * dy + dx * dx)))


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

    def _group_norms(self, z):
        z = np.asarray(z)
        if self.kind == "group_l21":
            return np.sqrt(np.sum(np.asarray(z, dtype=float) ** 2, axis=0))
        return np.abs(z)

    def value(self, z: np.ndarray) -> float:
        r = self._group_norms(z)
        if self.kind == "indicator_norm_ball":
            return 0.0 if float(r.max(initial=0.0)) <= self.scale else float("inf")
        return self.scale * float(np.sum(r))

    def prox(self, z: np.ndarray, out=None) -> np.ndarray:
        """Proximal map at ``z``, written to ``out`` when it is given (an
        array of the shape of ``z`` or ``z`` itself)."""
        if self.kind == "l1":
            shrunk = soft_threshold(z, self.scale)
            if out is None:
                return shrunk
            _check_out(out, shrunk.shape)
            np.copyto(out, shrunk)
            return out
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
    qnorm = np.sqrt(np.sum(q * q, axis=0))[:-1, :-1]
    max_group_norm = float(qnorm.max(initial=0.0))
    gu = a.apply(u)
    gnorm = np.sqrt(np.sum(gu * gu, axis=0))
    active = gnorm > 0  # never a pad: the gradient is zero there
    if np.any(active):
        unit = gu[:, active] / gnorm[active]
        support_mismatch = float(np.max(np.linalg.norm(q[:, active] - unit, axis=0)))
    else:
        support_mismatch = 0.0
    passed = bool(norm_ok and max_group_norm <= 1.0 + tol and support_mismatch <= tol)
    return SubgradientCheck(max_group_norm, support_mismatch, residual, tol, passed)
