"""Regularizer values, proximal maps, and a-posteriori subgradient checks.

Covers the one-norm, the group (2,1)-norm on two-channel fields, isotropic
total variation, and the norm-ball indicator used for projections.  All
proximal maps are closed form and firmly nonexpansive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .operators import grad2


def _magnitude(z: np.ndarray) -> np.ndarray:
    return np.abs(z)


def _pair_norm(z: np.ndarray) -> np.ndarray:
    """Euclidean norms of the 2-vectors along the trailing axis, from channel
    views; equal bit for bit to ``sqrt(sum(z * z, axis=-1))``."""
    z0, z1 = z[..., 0], z[..., 1]
    return np.sqrt(z0 * z0 + z1 * z1)


def soft_threshold(z: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Componentwise shrinkage towards zero by ``beta``.

    Real entries follow ``sign(z) * max(|z| - beta, 0)``; complex entries are
    shrunk in modulus, with 0 mapping to 0.
    """
    if beta < 0:
        raise InputError("shrinkage weight must be nonnegative")
    z = np.asarray(z)
    mag = _magnitude(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(mag > 0, np.maximum(mag - beta, 0.0) / np.where(mag > 0, mag, 1.0), 0.0)
    return z * factor


def group_soft_threshold(z: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Pixelwise shrinkage of 2-vectors by ``beta`` in the Euclidean norm.

    ``z`` has shape (..., 2); a zero 2-vector stays zero.
    """
    if beta < 0:
        raise InputError("shrinkage weight must be nonnegative")
    z = np.asarray(z, dtype=float)
    if z.ndim < 1 or z.shape[-1] != 2:
        raise InputError(f"group shrinkage needs a trailing axis of length 2, got {z.shape}")
    r = _pair_norm(z)
    factor = np.maximum(r - beta, 0.0)
    factor /= np.where(r > 0, r, 1.0)
    return z * factor[..., None]


def project_group_ball(z: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Project onto the Euclidean ball of the given radius, groupwise.

    Real arrays with a trailing axis of length 2 are treated as vector fields
    (one ball per 2-vector); anything else is clamped componentwise, complex
    entries in modulus.  A group holding NaN comes out NaN in every entry.
    """
    z = np.asarray(z)
    if z.ndim >= 2 and z.shape[-1] == 2 and not np.iscomplexobj(z):
        r = _pair_norm(z)[..., None]
    else:
        r = np.abs(z)
    if 0 < radius < np.inf:
        # radius / radius == 1.0 exactly, so groups inside the ball are kept
        return z * (radius / np.maximum(r, radius))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(r > radius, radius / np.where(r > 0, r, 1.0), 1.0)
    return z * scale


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
        if scale < 0:
            raise InputError("scale must be nonnegative")
        self.kind = kind
        self.scale = float(scale)

    def __repr__(self):
        return f"ProxFunctional({self.kind!r}, scale={self.scale})"

    def _group_norms(self, z):
        z = np.asarray(z)
        if self.kind == "group_l21":
            return np.sqrt(np.sum(np.asarray(z, dtype=float) ** 2, axis=-1))
        return np.abs(z)

    def value(self, z: np.ndarray) -> float:
        r = self._group_norms(z)
        if self.kind == "indicator_norm_ball":
            return 0.0 if float(r.max(initial=0.0)) <= self.scale else float("inf")
        return self.scale * float(np.sum(r))

    def prox(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "l1":
            return soft_threshold(z, self.scale)
        if self.kind == "group_l21":
            return group_soft_threshold(z, self.scale)
        return project_group_ball(z, self.scale)


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
    passed = support_mismatch <= tol and max_group_norm <= 1.0 + tol
    return SubgradientCheck(max_group_norm, support_mismatch, 0.0, tol, passed)


def verify_tv_subgradient(v: np.ndarray, q: np.ndarray, u: np.ndarray,
                          tol: float = 1e-6) -> SubgradientCheck:
    """Check that ``v = A^T q`` certifies membership in the TV subdifferential at ``u``.

    Requires the dual field ``q`` to stay in the pointwise unit ball, to align
    with the normalized gradient of ``u`` wherever that gradient is nonzero,
    and the divergence identity ``v = A^T q`` to hold up to ``tol``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    q = np.asarray(q, dtype=float)
    a = grad2(*u.shape)
    if v.shape != u.shape or q.shape != a.codomain_shape:
        raise InputError("inconsistent shapes for TV subgradient check")
    residual = float(np.linalg.norm(v - a.adjoint(q)))
    norm_ok = residual <= tol * max(1.0, float(np.linalg.norm(v)))
    qnorm = np.sqrt(np.sum(q * q, axis=-1))
    max_group_norm = float(qnorm.max(initial=0.0))
    gu = a.apply(u)
    gnorm = np.sqrt(np.sum(gu * gu, axis=-1))
    active = gnorm > 0
    if np.any(active):
        unit = gu[active] / gnorm[active][:, None]
        support_mismatch = float(np.max(np.linalg.norm(q[active] - unit, axis=-1)))
    else:
        support_mismatch = 0.0
    passed = norm_ok and max_group_norm <= 1.0 + tol and support_mismatch <= tol
    return SubgradientCheck(max_group_norm, support_mismatch, residual, tol, passed)
