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

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .operators import _check_out, grad2, norm


def _is_field(z: np.ndarray) -> bool:
    return z.ndim >= 2 and z.shape[0] == 2 and not np.iscomplexobj(z)


def _squares(z: np.ndarray) -> np.ndarray:
    """A new array of the squared norms ``z[0] * z[0] + z[1] * z[1]`` of
    the 2-vectors of a field."""
    z0, z1 = z[0], z[1]
    s = z0 * z0
    s += z1 * z1
    return s


def _magnitudes(z: np.ndarray, pairs: bool) -> np.ndarray:
    """A new array of the norms of the 2-vectors of a field with ``pairs``,
    bit for bit ``sqrt(sum(z * z, axis=0))``, else of the entries' moduli."""
    if not pairs:
        return np.abs(z)
    s = _squares(z)
    return np.sqrt(s, out=s if s.dtype.kind == "f" else None)  # or an integer field


# the least positive normal float: a bound whose square is below it (or
# overflows) gives no exact test in _moving_groups
_TINY = float(np.finfo(float).tiny)


def _moving_groups(s: np.ndarray, bound: float, out):
    """The flat indices of the groups of a float field, with squared norms
    ``s``, whose norm may exceed ``bound``, or None when the kernel should
    scale the whole field instead.

    A group with ``s <= bound**2 * (1 - 1e-12)`` has a norm, rounded as
    ``sqrt(s)``, of at most ``bound``: the square and the product round by
    far less than the margin when ``bound**2`` is a normal float, and the
    square root is rounded correctly.  Every other group, NaN and inf ones
    included, may move.  None is returned when more than one group in ten
    may move, when ``bound**2`` is 0, subnormal or infinite, or when
    ``out`` is not C-contiguous (its flat view would not write through).
    """
    square = bound * bound
    if not _TINY <= square < math.inf or not (out is None or out.flags.c_contiguous):
        return None
    inside = s <= square * (1.0 - 1e-12)
    if 10 * (inside.size - np.count_nonzero(inside)) > inside.size:
        return None
    return np.flatnonzero(~inside)


def _scale_moving(z: np.ndarray, s: np.ndarray, moving: np.ndarray, factor_of, out,
                  keep: bool) -> np.ndarray:
    """``z * factor`` as by ``_scale_into`` for a float field, with the
    factors of the groups at the flat indices ``moving`` from
    ``factor_of(sqrt(s[moving]))``.  Every other group's factor is 1.0 with
    ``keep`` and 0.0 otherwise; those groups are copied, or multiplied by
    0.0 (signed zeros kept), without a root or a division."""
    entries = np.concatenate((moving, moving + s.size))  # in both channels
    # collected before out, which may be z, is written
    moved = z.reshape(-1).take(entries).reshape(2, -1)
    moved *= factor_of(np.sqrt(s.reshape(-1).take(moving)))
    if out is None:
        out = np.empty(z.shape)
    if not keep:
        np.multiply(z, 0.0, out=out)
    elif out is not z:
        np.copyto(out, z)
    out.reshape(-1)[entries] = moved.reshape(-1)
    return out


def _scale_into(z: np.ndarray, factor: np.ndarray, out, pairs: bool) -> np.ndarray:
    """``z * factor`` written into ``out`` (a new array if it is None, or ``z``
    itself, checked by the caller); with ``pairs`` each factor scales one
    2-vector of a field."""
    if out is None:
        out = np.empty(z.shape, np.result_type(z, factor))
    if pairs:
        np.multiply(z[0], factor, out=out[0])
        np.multiply(z[1], factor, out=out[1])
    else:
        np.multiply(z, factor, out=out)
    return out


# 0-d operands of the shrinkage: a ufunc converts a Python float on every call
_ZERO = np.zeros(())
_LEAST = np.array(5e-324)  # the least positive float64
_ZERO.flags.writeable = _LEAST.flags.writeable = False


def _shrink_factor(r: np.ndarray, beta, factor=None, least=_LEAST) -> np.ndarray:
    """``max(r - beta, 0) / max(r, least)`` for a float array ``r >= 0`` of
    group magnitudes, ``least`` the least positive float of its dtype; ``r``
    is overwritten with the divisor, and the factor goes to ``factor`` when
    it is given.

    Where ``r > 0`` the divisor is ``r`` itself, as no positive float is
    below the least one.  Where ``r == 0`` the numerator ``max(0 - beta, 0)``
    is 0.0 and so is the factor.  Where ``r`` is inf or NaN the factor is NaN
    (the caller ignores the invalid-operation warnings of infinite entries).
    """
    factor = np.subtract(r, beta, out=np.empty_like(r) if factor is None else factor)
    np.maximum(factor, _ZERO, out=factor)
    np.maximum(r, least, out=r)
    return np.divide(factor, r, out=factor)


def _ball_scale(r: np.ndarray, radius: float) -> np.ndarray:
    """``radius / max(r, radius)``, computed in ``r`` when it is a float
    array (a new one, which the caller gives up)."""
    if not isinstance(r, np.ndarray) or r.dtype.kind != "f":  # 0-d, or integer norms
        return radius / np.maximum(r, radius)
    np.maximum(r, radius, out=r)
    return np.divide(radius, r, out=r)


def _check_kernel_out(z: np.ndarray, out) -> None:
    """Refuse an ``out`` of the wrong shape, or one that cannot hold the
    float (or, for a complex ``z``, complex) result of a kernel on ``z``."""
    if out is None:
        return
    _check_out(out, z.shape)
    result = "complex" if z.dtype.kind == "c" else "float"
    dtype = np.asarray(out).dtype
    if dtype.kind not in ("c" if result == "complex" else "fc"):
        raise InputError(f"an output array of dtype {dtype} cannot hold the {result} result")


# invalid: raised by infinite entries only; over: raised by numpy's scalar
# product of 0-d complex operands, without out=, whose parts are both near
# the float limit, though the product, z times a factor in [0, 1], is exact
# (no step here overflows)
@np.errstate(invalid="ignore", over="ignore")
def soft_threshold(z: np.ndarray, beta: float = 1.0, out=None) -> np.ndarray:
    """Componentwise shrinkage towards zero by ``beta``.

    Real entries follow ``sign(z) * max(|z| - beta, 0)``; complex entries are
    shrunk in modulus, with 0 mapping to 0.  An infinite or NaN entry comes
    out NaN, without a floating-point warning.  The result goes to ``out``
    when it is given, an array of the shape of ``z`` or ``z`` itself, whose
    dtype can hold the float (or complex) result.

    Each entry is ``z * factor`` with ``factor = max(r - beta, 0) / max(r,
    least)`` of its modulus ``r``, ``least`` the least positive float (5e-324
    in float64): the divisor is ``r`` wherever ``r > 0``, and where ``r`` is
    0 the numerator and so the factor are 0.0, so the bytes are those of the
    ``np.where`` formula that divides only where ``r > 0``.  The moduli and
    the factors are the call's two temporaries, and the divisor is written
    over the moduli.  ``ProxFunctional.in_place`` runs the same arithmetic in
    work arrays, for a loop that sets the error state once.
    """
    if not beta >= 0:
        raise InputError("shrinkage weight must be nonnegative")
    z = np.asarray(z)
    _check_kernel_out(z, out)
    r = np.asarray(np.abs(z))
    if r.dtype.kind != "f":  # the moduli of integers
        r = r.astype(float)
    least = _LEAST if r.dtype == np.float64 else np.finfo(r.dtype).smallest_subnormal
    return np.multiply(z, _shrink_factor(r, beta, least=least), out=out)


@np.errstate(invalid="ignore")  # raised by infinite entries only
def group_soft_threshold(z: np.ndarray, beta: float = 1.0, out=None) -> np.ndarray:
    """Pixelwise shrinkage of the 2-vectors of a field by ``beta`` in the
    Euclidean norm; anything but a field is refused.  A zero 2-vector stays
    zero, and one holding inf or NaN comes out NaN, without a floating-point
    warning.  The result goes to ``out`` when it is given, an array of the
    shape of ``z`` or ``z`` itself, whose dtype can hold a float result.

    A group whose norm is at most ``beta`` shrinks to zero.  When at most one
    group in ten may be longer (``_moving_groups``, from the squared norms
    and ``beta**2``), the square root and the division are taken on those
    groups alone and every other group is multiplied by 0.0; otherwise they
    are taken on the whole field.  Either way each entry is ``z * factor``
    with the factor ``max(r - beta, 0) / r`` of the whole-field formula, in
    which a group of norm ``r <= beta`` gets exactly 0.0, so both paths give
    the same bytes.
    """
    if not beta >= 0:
        raise InputError("shrinkage weight must be nonnegative")
    z = np.asarray(z)
    if not _is_field(z):
        raise InputError(f"group shrinkage needs a real (2, ...) field, got {z.shape} {z.dtype}")
    z = np.asarray(z, dtype=float)
    _check_kernel_out(z, out)
    s = _squares(z)
    moving = _moving_groups(s, beta, out)
    if moving is not None:
        return _scale_moving(z, s, moving, lambda r: _shrink_factor(r, beta), out, keep=False)
    return _scale_into(z, _shrink_factor(np.sqrt(s, out=s), beta), out, pairs=True)


@np.errstate(invalid="ignore")  # 0 / 0, discarded, and 0 * inf
def project_group_ball(z: np.ndarray, radius: float = 1.0, out=None) -> np.ndarray:
    """Project onto the Euclidean ball of the given radius, groupwise.

    A field has one ball per 2-vector; anything else is clamped componentwise,
    complex entries in modulus, by a real factor on their real and imaginary
    parts.  A group holding NaN comes out NaN for a finite radius and is kept
    for an infinite one.  In a group outside the ball an infinite entry (or
    part) comes out NaN (``0 * inf``) and a finite one 0, without a
    floating-point warning.  The result goes to ``out`` when it is given, an
    array of the shape of ``z`` or ``z`` itself, whose dtype can hold the
    float (or complex) result.

    A group is scaled by ``radius / max(r, radius)``, which is exactly 1.0
    for a group of norm ``r <= radius``.  On a float64 field at a finite
    positive radius, when at most one group in ten may lie outside the ball
    (``_moving_groups``, from the squared norms and ``radius**2``), the
    square root and the division are taken on those groups alone and every
    other group is copied as it is, the bytes ``z * 1.0`` gives; otherwise
    they are taken on the whole field.  Both paths give the same bytes.
    """
    if not radius >= 0:
        raise InputError("ball radius must be nonnegative")
    z = np.asarray(z)
    _check_kernel_out(z, out)
    pairs = _is_field(z)
    if pairs and z.dtype == float:
        s = _squares(z)
        moving = _moving_groups(s, radius, out)
        if moving is not None:
            return _scale_moving(z, s, moving, lambda r: _ball_scale(r, radius), out, keep=True)
        r = np.sqrt(s, out=s)
    else:
        r = _magnitudes(z, pairs)
    if radius == np.inf:
        scale = np.ones(np.shape(r))
    elif radius > 0:
        # radius / radius == 1.0 exactly, so groups inside the ball are kept
        scale = _ball_scale(r, radius)
    else:  # groups of norm 0 (squares may underflow) are kept
        scale = np.where(r == 0, 1.0, 0.0 / r)
    if z.dtype.kind != "c":
        return _scale_into(z, scale, out, pairs)
    if out is None:
        out = np.empty(z.shape, np.result_type(z, scale))
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

    def in_place(self, z: np.ndarray):
        """A function of no arguments that overwrites ``z``, a float64 or
        complex128 array the caller holds, with ``prox(z)``, for a loop that
        takes the prox of the same array many times.

        For the one-norm it runs the arithmetic of ``soft_threshold`` in work
        arrays allocated here, with its checks made here and ``scale`` a 0-d
        operand, so each call gives the bytes of ``soft_threshold`` and
        allocates nothing.  It does not set the error state: the caller
        ignores invalid-operation warnings, which infinite entries raise.
        The other kinds call ``prox(z, out=z)``.
        """
        if self.kind != "l1":
            return lambda: self.prox(z, out=z)
        if z.dtype not in (np.float64, np.complex128):
            raise InputError(f"an in-place prox needs a float64 or complex128 array, got {z.dtype}")
        beta = np.array(self.scale)
        magnitude, factor = np.empty(z.shape), np.empty(z.shape)

        def shrink():
            np.abs(z, out=magnitude)
            _shrink_factor(magnitude, beta, factor)
            np.multiply(z, factor, out=z)

        return shrink


@dataclass
class SubgradientCheck:
    """Outcome of an a-posteriori subgradient membership test."""

    max_group_norm: float
    support_mismatch: float
    residual: float
    tol: float
    passed: bool


def _check_tol(tol) -> None:
    """Refuse a ``tol`` that is not a finite, nonnegative number (a bool is none)."""
    if isinstance(tol, bool) or not (isinstance(tol, (int, float))
                                     and 0 <= tol <= sys.float_info.max):
        raise InputError(f"tol must be a finite, nonnegative number, got {tol!r}")


def verify_l1_subgradient(p: np.ndarray, w: np.ndarray, tol: float = 1e-6) -> SubgradientCheck:
    """Check ``p`` against the componentwise subdifferential of the one-norm at ``w``.

    On the support of ``w`` the entries of ``p`` must match ``sign(w)``; off
    the support they must lie in [-1, 1], up to ``tol``.
    """
    _check_tol(tol)
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
    _check_tol(tol)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    q = np.asarray(q, dtype=float)
    a = grad2(*u.shape) if u.ndim == 2 else None
    if a is None or v.shape != u.shape or q.shape != a.codomain_shape:
        raise InputError(f"TV subgradient check needs a 2-D image u, with v of its shape and "
                         f"q of its gradient's; got {u.shape}, {v.shape} and {q.shape}")
    residual = norm(v - a.adjoint(q))
    norm_ok = residual <= tol * max(1.0, norm(v))
    # the pads of q hold no group; the adjoint reads them as zero too
    max_group_norm = float(_magnitudes(q[:, :-1, :-1], True).max(initial=0.0))
    gu = a.apply(u)
    gnorm = _magnitudes(gu, True)
    active = gnorm > 0  # never a pad: the gradient is zero there
    unit = gu[:, active] / gnorm[active]
    support_mismatch = float(np.max(_magnitudes(q[:, active] - unit, True), initial=0.0))
    passed = bool(norm_ok and max_group_norm <= 1.0 + tol and support_mismatch <= tol)
    return SubgradientCheck(max_group_norm, support_mismatch, residual, tol, passed)
