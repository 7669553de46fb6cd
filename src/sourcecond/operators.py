"""Linear operators with explicit adjoints and operator-norm bounds.

All maps act on plain numpy arrays.  Complex arrays are treated as pairs of
real arrays, so the relevant inner product is ``Re <x, y>`` and adjoints are
taken with respect to it.  Apply/adjoint are pure functions and instances are
immutable after construction, so maps can be shared freely between threads.
``apply(x, out=)``/``adjoint(y, out=)`` write the same result into a caller's
array, so that a solver can hold its work arrays for a whole solve.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ConfigurationError, InputError

GRAD2_NORM_BOUND = math.sqrt(8.0)


def real_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real inner product; complex arrays count as stacked real pairs.

    Real operands skip the conjugate and the real part; ``np.add.reduce`` is
    the pairwise sum ``np.sum`` runs, so both branches round alike.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind == "c" or y.dtype.kind == "c":
        return float(np.real(np.sum(x * np.conj(y))))
    return float(np.add.reduce(x * y, axis=None))


def norm(x: np.ndarray, weights=None) -> float:
    """Euclidean norm of ``x``, complex entries counting as real pairs: the
    one place where every norm of a metric, a stop, a check or a summary is
    summed.  ``weights`` (broadcast against ``x``) count each entry that
    many times, as a half spectrum counts its mirrors (``mirror_weights``).

    The plain sum is ``einsum``'s loop over the flat float view, not BLAS's
    ``ddot``, which sums in another order when it threads.

    A sum of squares that overflows (past about 1e154) is taken again of
    ``x / peak``, ``peak`` its largest magnitude, and scaled by ``peak``, so
    a finite ``x`` has a finite norm unless the norm passes the float range.
    """
    with np.errstate(over="ignore"):  # an overflowing sum is rescaled below
        if weights is None:
            f = np.ravel(x, order="K")
            f = f.view(f.real.dtype)  # complex entries as real pairs
            n = math.sqrt(float(np.einsum("i,i->", f, f)))
        else:
            n = math.sqrt(float(np.add.reduce(weights * (x.real * x.real + x.imag * x.imag),
                                              axis=None)))
    if math.isinf(n):
        peak = float(np.max(np.abs(x)))
        if peak < math.inf:
            return peak * norm(x / peak, weights)
    return n


_norm = norm  # for the methods whose ``norm`` flag hides the function


def _check_out(out, shape) -> None:
    if np.shape(out) != tuple(shape):
        raise InputError(f"expected an output array of shape {tuple(shape)}, "
                         f"got {np.shape(out)}")


def _write(result, out, shape):
    """``result``, or ``out``, checked to be of ``shape``, with ``result``
    copied into it when it is given: the ``out=`` of a map without an
    in-place form."""
    if out is None:
        return result
    _check_out(out, shape)
    np.copyto(out, result)
    return out


class LinearMap(ABC):
    """A forward/adjoint pair with shape metadata and a norm bound.

    ``norm_bound`` is an upper bound on the operator norm with respect to the
    real inner product, used by the solvers to derive admissible step sizes.
    ``apply`` and ``adjoint`` write their result into ``out`` when it is
    given, an array of the result's shape, and return it; a subclass must
    accept ``out=None``.
    """

    domain_complex = False
    codomain_complex = False

    def __init__(self, domain_shape, codomain_shape, norm_bound: float):
        self.domain_shape = tuple(domain_shape)
        self.codomain_shape = tuple(codomain_shape)
        self.norm_bound = float(norm_bound)

    @abstractmethod
    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward action."""

    @abstractmethod
    def adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Adjoint action with respect to the real inner product."""

    def normal(self, x: np.ndarray, norm: bool = True) -> tuple[np.ndarray, float | None]:
        """Normal operator and image norm: ``(K* K x, ||K x||)``, or
        ``(K* K x, None)`` with ``norm=False``, which skips the norm.  A
        norm taken in another call is the same float, bit for bit."""
        kx = self.apply(x)
        return self.adjoint(kx), _norm(kx) if norm else None

    def normal_resolvent(self, tau: float):
        """``solve(r, out=None) -> (I + tau K* K)^{-1} r``, for maps with a
        closed form.  The solve writes to ``out`` when it is given, an array
        of the domain's shape or ``r`` itself, and otherwise returns a new
        array and leaves ``r`` as it was."""
        raise ConfigurationError(
            f"no closed-form resolvent for forward map of type {type(self).__name__}")

    def _check_domain(self, x):
        if np.shape(x) != self.domain_shape:
            raise InputError(
                f"expected domain shape {self.domain_shape}, got {np.shape(x)}")

    def _check_codomain(self, y):
        if np.shape(y) != self.codomain_shape:
            raise InputError(
                f"expected codomain shape {self.codomain_shape}, got {np.shape(y)}")


def _blas_vector(x) -> bool:
    return (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64
            and x.flags.c_contiguous)


def _scalar_resolvent(tau):
    """The resolvent of ``K* K = I``: division by ``1 + tau``."""
    def solve(r, out=None):
        return np.divide(r, 1.0 + tau, out=out)

    return solve


class MatrixMap(LinearMap):
    """Dense matrix as a LinearMap; adjoint is the transpose.  The norm bound
    is the power-iteration estimate ``power_norm`` of the matrix; a matrix
    whose estimate overflows sets no step and is refused.  Its products stay
    on BLAS, which does not thread them at the lasso's sizes (50x76 at most)."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise InputError("MatrixMap needs a 2D matrix")
        self.matrix = matrix
        self._transpose = matrix.T
        self._blas = matrix.flags.c_contiguous or matrix.flags.f_contiguous
        super().__init__((matrix.shape[1],), (matrix.shape[0],), 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            self.norm_bound = power_norm(self)
        if not math.isfinite(self.norm_bound):
            raise ConfigurationError("the matrix's norm bound is not finite: "
                                     "its products overflow")

    # Given ``out``, ``ndarray.dot`` writes the product into it.  On a
    # contiguous matrix and a C-contiguous float64 vector it makes the BLAS
    # call of ``@``; on others ``@`` may take its own loop, so they take ``@``
    # and a copy.  ``dot`` refuses a vector of the wrong length, or an ``out``
    # that is not a C-contiguous float64 vector of the product's length, with
    # ValueError, and then the checks refuse it too or the product is copied.
    def apply(self, x, out=None):
        if out is not None and self._blas and _blas_vector(x):
            try:
                return self.matrix.dot(x, out=out)
            except ValueError:
                pass
        self._check_domain(x)
        return _write(self.matrix @ x, out, self.codomain_shape)

    def adjoint(self, y, out=None):
        if out is not None and self._blas and _blas_vector(y):
            try:
                return self._transpose.dot(y, out=out)
            except ValueError:
                pass
        self._check_codomain(y)
        return _write(self._transpose @ y, out, self.domain_shape)

    def normal_resolvent(self, tau):
        """Cholesky factor ``L`` of ``I + tau M^T M`` once; a call solves with
        ``L`` and then ``L^T``."""
        m = self.matrix
        factor = np.linalg.cholesky(np.eye(m.shape[1]) + tau * (m.T @ m))

        def solve(r, out=None):
            return _write(np.linalg.solve(factor.T, np.linalg.solve(factor, r)), out,
                          self.domain_shape)

        return solve


class IdentityMap(LinearMap):
    def __init__(self, shape):
        super().__init__(shape, shape, 1.0)

    def apply(self, x, out=None):
        self._check_domain(x)
        return _write(np.array(x, copy=True), out, self.codomain_shape)

    def adjoint(self, y, out=None):
        self._check_codomain(y)
        return _write(np.array(y, copy=True), out, self.domain_shape)

    def normal(self, x, norm=True):
        """``(x, ||x||)``, with ``x`` itself returned."""
        self._check_domain(x)
        return x, _norm(x) if norm else None

    def normal_resolvent(self, tau):
        return _scalar_resolvent(tau)


class SamplingMask:
    """Boolean Cartesian sampling pattern on an ``n_y x n_x`` frequency grid.

    The grid lives in unshifted DFT coordinates (zero frequency at ``[0, 0]``).
    """

    def __init__(self, grid: np.ndarray):
        grid = np.asarray(grid)
        if grid.ndim != 2:
            raise InputError("mask grid must be 2D")
        self.grid = grid.astype(bool)
        self.grid.flags.writeable = False
        self.count = int(np.count_nonzero(self.grid))

    @property
    def shape(self):
        return self.grid.shape

    def __eq__(self, other):
        return isinstance(other, SamplingMask) and np.array_equal(self.grid, other.grid)


def full_mask(shape) -> SamplingMask:
    return SamplingMask(np.ones(shape, dtype=bool))


def _axis_band(n: int, w: int) -> np.ndarray:
    """Boolean selection of ``w`` frequencies centered on zero along one axis."""
    if w > n:
        raise InputError(f"low-pass block of {w} does not fit axis of {n}")
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    if w == n:
        return np.ones(n, dtype=bool)
    # Even widths cannot be symmetric; the surplus goes to positive frequencies.
    lo, hi = -((w - 1) // 2), w // 2
    return (freqs >= lo) & (freqs <= hi)


def lowpass_mask(shape, width: int, height: int | None = None) -> SamplingMask:
    """Centered rectangular low-pass block in frequency space."""
    n_y, n_x = shape
    if height is None:
        height = width
    if width < 1 or height < 1:
        raise InputError("low-pass block must be at least 1x1")
    sel_y = _axis_band(n_y, height)
    sel_x = _axis_band(n_x, width)
    return SamplingMask(sel_y[:, None] & sel_x[None, :])


class SamplingMap(LinearMap):
    """Diagonal 0/1 selection of Fourier coefficients; self-adjoint, idempotent."""

    domain_complex = True
    codomain_complex = True

    def __init__(self, mask: SamplingMask):
        self.mask = mask
        bound = 1.0 if mask.count > 0 else 0.0
        super().__init__(mask.shape, mask.shape, bound)

    def apply(self, x, out=None):
        self._check_domain(x)
        return _write(np.where(self.mask.grid, x, 0), out, self.codomain_shape)

    def adjoint(self, y, out=None):
        return self.apply(y, out)


class FourierSamplingMap(LinearMap):
    """Composite map: orthonormal 2D DFT followed by Cartesian sampling.

    Acts on real images.  As a real-linear map its adjoint under the real
    inner product is ``v -> Re(ifft2(mask * v))``.

    The normal operator ``K* K`` is diagonal in Fourier space with the
    symmetrized mask as its symbol.  The symbol is even under ``k -> -k`` and
    images are real, so its part on the half spectrum of a real FFT carries
    every normal product and resolvent.  A full mask makes the symbol 1
    everywhere, and then ``K* K = I`` and neither takes a transform.
    """

    codomain_complex = True

    def __init__(self, mask: SamplingMask):
        self.mask = mask
        self._full = mask.count == mask.grid.size
        symbol = self.symmetrized()
        n_x = mask.shape[1]
        self._half_symbol = np.ascontiguousarray(symbol[:, :n_x // 2 + 1])
        self._half_symbol.flags.writeable = False
        # ||K x||^2 over the half spectrum
        self._norm_weight = mirror_weights(n_x) * self._half_symbol
        # The largest singular value of the real-linear composite is governed
        # by the symmetrized mask (frequency k paired with -k).
        peak = float(symbol.max()) if mask.count > 0 else 0.0
        super().__init__(mask.shape, mask.shape, math.sqrt(peak))

    def symmetrized(self) -> np.ndarray:
        """Average of the mask with its frequency-negated mirror."""
        g = self.mask.grid.astype(float)
        flipped = np.roll(g[::-1, ::-1], (1, 1), axis=(0, 1))
        return 0.5 * (g + flipped)

    def apply(self, x, out=None):
        self._check_domain(x)
        return _write(np.where(self.mask.grid, np.fft.fft2(x, norm="ortho"), 0), out,
                      self.codomain_shape)

    def adjoint(self, y, out=None):
        self._check_codomain(y)
        return _write(np.real(np.fft.ifft2(np.where(self.mask.grid, y, 0), norm="ortho")),
                      out, self.domain_shape)

    def normal(self, x, norm=True):
        """``(K* K x, ||K x||)`` from one ``rdft2`` and one ``irdft2``, or
        ``(x, ||x||)`` with ``x`` itself when the mask is full."""
        self._check_domain(x)
        if self._full:
            return x, _norm(x) if norm else None
        half = rdft2(x)
        kx_norm = _norm(half, self._norm_weight) if norm else None
        half *= self._half_symbol
        return irdft2(half, self.domain_shape), kx_norm

    def normal_resolvent(self, tau):
        """Division by ``1 + tau * symbol`` between one ``rdft2`` and one
        ``irdft2``, or by ``1 + tau`` when the mask is full."""
        if self._full:
            return _scalar_resolvent(tau)
        shape = self.domain_shape
        symbol = 1.0 + tau * self._half_symbol

        def solve(r, out=None):
            rhs = rdft2(r)
            rhs /= symbol
            return irdft2(rhs, shape, out=out)

        return solve


class GradientMap(LinearMap):
    """Forward-difference gradient from ``n_y x n_x`` to ``2 x n_y x n_x``.

    A dual field is a C-contiguous ``(2, n_y, n_x)`` array: channel 0 holds
    the vertical difference ``u[i+1, j] - u[i, j]`` and channel 1 the
    horizontal one ``u[i, j+1] - u[i, j]``, both on the interior grid
    ``i < n_y-1, j < n_x-1``.  The last row and the last column of each
    channel are structural zeros, the *pads*: ``apply`` writes zeros there
    and ``adjoint`` reads whatever they hold as zero.  On this layout each
    difference is one subtraction of two shifted views of the flattened
    image, and each divergence term one update of the flattened result.

    ``apply`` and ``adjoint`` compute into ``out`` when it is given, which
    must also be C-contiguous, instead of allocating.
    """

    def __init__(self, n_y: int, n_x: int):
        if n_y < 2 or n_x < 2:
            raise InputError("gradient needs a grid of at least 2x2")
        super().__init__((n_y, n_x), (2, n_y, n_x), GRAD2_NORM_BOUND)

    def apply(self, u, out=None):
        self._check_domain(u)
        uf = np.asarray(u, dtype=float).reshape(-1)
        out = _flat_out(out, self.codomain_shape)
        n_x = self.domain_shape[1]
        m = uf.size - n_x  # the rows above the last one
        dy, dx = out.reshape(2, -1)
        np.subtract(uf[n_x:], uf[:m], out=dy[:m])
        np.subtract(uf[1:m + 1], uf[:m], out=dx[:m])
        out[:, -1] = 0.0
        out[:, :, -1] = 0.0  # dx there wrapped round to the next row
        return out

    def adjoint(self, q, out=None):
        """Negative divergence.  Each pixel takes ``((0 + south) - here) +
        east) - here`` over the terms its interior neighbours give, in this
        order, so signed zeros come out as from four slice updates."""
        self._check_codomain(q)
        q = np.asarray(q, dtype=float)
        out = _flat_out(out, self.domain_shape)
        n_x = self.domain_shape[1]
        qf = np.ascontiguousarray(q).reshape(2, -1)
        flat = out.reshape(-1)
        # the zero fill and the first update in one pass: 0 + south, and 0
        # on the first row, which has no south term
        np.add(0.0, qf[0, :-n_x], out=flat[n_x:])
        flat[:n_x] = 0.0
        np.subtract(flat, qf[0], out=flat)
        np.add(flat[1:], qf[1, :-1], out=flat[1:])
        np.subtract(flat, qf[1], out=flat)
        # The pads reached only the last row, the last column and the first
        # column (through channel 1 wrapping round).  These are set again
        # from their interior terms alone, so a pad's value never reaches the
        # result; the leading ``0.0 +`` turns a -0 term into +0, as adding it
        # to the zero fill does.
        dy, dx = q
        np.add(0.0, dy[-2, :-1], out=out[-1, :-1])
        out[-1, -1] = 0.0
        np.add(0.0, dx[:-1, -2], out=out[:-1, -1])
        first = out[1:-1, 0]
        np.add(0.0, dy[:-2, 0], out=first)
        np.subtract(first, dy[1:-1, 0], out=first)
        np.subtract(first, dx[1:-1, 0], out=first)
        return out


def _flat_out(out, shape) -> np.ndarray:
    """``out``, checked to be C-contiguous of ``shape`` so that its flat view
    writes through, or a new array when it is None."""
    if out is None:
        return np.empty(shape)
    _check_out(out, shape)
    if not out.flags.c_contiguous:
        raise InputError("the output array must be C-contiguous")
    return out


def vandermonde(samples: np.ndarray, degree: int) -> MatrixMap:
    """Vandermonde matrix map: entry (i, p) equals ``samples[i] ** p``."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 1:
        raise InputError("samples must be a non-empty 1D vector")
    if not np.all(np.isfinite(samples)):
        raise InputError("samples must be finite")
    if degree < 0:
        raise InputError("degree must be nonnegative")
    matrix = np.vander(samples, degree + 1, increasing=True)
    return MatrixMap(matrix)


def dft2(image: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Orthonormal 2D DFT (or its inverse) of a real or complex grid."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise InputError("dft2 expects a 2D array")
    if direction == "forward":
        return np.fft.fft2(image, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft2(image, norm="ortho")
    raise InputError(f"unknown direction {direction!r}")


def rdft2(image: np.ndarray, out=None) -> np.ndarray:
    """Orthonormal 2D DFT of a real image on its half spectrum: columns
    ``0..n_x//2`` of ``dft2(image)``, the rest being their conjugate
    mirrors (``full_spectrum``).  The result goes to ``out`` when it is
    given, a complex array of shape ``(n_y, n_x//2 + 1)``.

    The two 1-D passes of ``np.fft.rfft2`` run directly, a real FFT along
    the rows and then a complex FFT down the columns in place, so the result
    is ``rfft2``'s bit for bit without the fixed cost of its n-D wrapper."""
    half = np.fft.rfft(image, axis=1, norm="ortho", out=out)
    return np.fft.fft(half, axis=0, norm="ortho", out=half)


def irdft2(half: np.ndarray, shape, out=None) -> np.ndarray:
    """The real image of ``shape`` whose half spectrum is ``half``, the
    inverse of ``rdft2``; ``half`` is left as it was.  The image goes to
    ``out`` when it is given, a float array of ``shape``, and to a new array
    otherwise.

    The two 1-D passes of ``np.fft.irfft2`` run directly, a complex inverse
    FFT down the columns into a new array and then a real inverse FFT along
    the rows, so the result is ``irfft2``'s bit for bit."""
    columns = np.fft.ifft(half, n=shape[0], axis=0, norm="ortho")
    return np.fft.irfft(columns, n=shape[1], axis=1, norm="ortho", out=out)


def mirror_weights(n_x: int) -> np.ndarray:
    """How often each column of a half spectrum of width ``n_x // 2 + 1``
    stands in the full spectrum of width ``n_x``: a column whose mirror is
    not stored counts twice; column 0 and, for even widths, column
    ``n_x/2`` are their own mirrors and count once."""
    weight = np.full(n_x // 2 + 1, 2)
    weight[0] = 1
    if n_x % 2 == 0:
        weight[-1] = 1
    return weight


def full_spectrum(half: np.ndarray, n_x: int) -> np.ndarray:
    """The Hermitian spectrum of width ``n_x`` whose stored columns are
    ``half``: column ``j > n_x//2`` holds the conjugate of column ``n_x - j``
    at the negated row frequency."""
    n_y, stored = half.shape
    full = np.empty((n_y, n_x), dtype=half.dtype)
    full[:, :stored] = half
    mirrored = half[:, n_x - stored:0:-1]  # columns n_x - j for j = stored..n_x-1
    np.conjugate(np.roll(mirrored[::-1], 1, axis=0), out=full[:, stored:])  # rows -k_y
    return full


def sampling(mask: SamplingMask) -> SamplingMap:
    return SamplingMap(mask)


def fourier_sampling(mask: SamplingMask) -> FourierSamplingMap:
    return FourierSamplingMap(mask)


def grad2(n_y: int, n_x: int) -> GradientMap:
    return GradientMap(n_y, n_x)


def _random_element(shape, want_complex: bool, rng) -> np.ndarray:
    x = rng.standard_normal(shape)
    if want_complex:
        x = x + 1j * rng.standard_normal(shape)
    return x


def power_norm(m: LinearMap, iters: int = 100, tol: float = 1e-10) -> float:
    """Estimate the largest singular value by power iteration on ``m* m``.

    Deterministic: the start vector comes from a fixed seed-0 generator.
    Returns 0 for the zero map.
    """
    if iters < 1:
        raise InputError("iters must be at least 1")
    rng = np.random.default_rng(0)
    x = _random_element(m.domain_shape, m.domain_complex, rng)
    x = x / norm(x)
    lam = 0.0
    for _ in range(iters):
        z = m.adjoint(m.apply(x))
        lam_new = norm(z)
        if lam_new == 0.0:
            return 0.0
        x = z / lam_new
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return math.sqrt(lam)


def adjoint_gap(m: LinearMap, rng, n_pairs: int = 20) -> float:
    """Worst relative adjoint defect over random test pairs."""
    worst = 0.0
    for _ in range(n_pairs):
        x = _random_element(m.domain_shape, m.domain_complex, rng)
        y = _random_element(m.codomain_shape, m.codomain_complex, rng)
        lhs = real_inner(m.apply(x), y)
        rhs = real_inner(x, m.adjoint(y))
        scale = norm(x) * norm(y)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
