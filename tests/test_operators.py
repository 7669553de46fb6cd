import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sourcecond as sc
from sourcecond.errors import ConfigurationError, InputError
from sourcecond.operators import irdft2, norm, rdft2


# every transform numpy.fft offers, the 2-D ones and their 1-D passes
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fft", "ifft", "rfft", "irfft")
# one real FFT pair, as rdft2 and irdft2 run it
REAL_PAIR = ["rfft", "fft", "ifft", "irfft"]


def all_test_maps(rng):
    """One instance of every concrete map type, with the layouts that the
    ``out=`` paths tell apart: C, F and strided matrices, and masked, full
    and odd-shaped sampling."""
    mask = sc.lowpass_mask((12, 16), 5, 3)
    odd = sc.SamplingMask(rng.random((7, 9)) < 0.4)
    a = rng.standard_normal((6, 4))
    return [
        sc.MatrixMap(a),
        sc.MatrixMap(np.asfortranarray(a)),
        sc.MatrixMap(np.repeat(a, 2, axis=1)[:, ::2]),  # strided
        sc.vandermonde(rng.uniform(-1, 1, 8), 5),
        sc.IdentityMap((7,)),
        sc.sampling(mask),
        sc.sampling(odd),
        sc.fourier_sampling(mask),
        sc.fourier_sampling(sc.full_mask((8, 8))),
        sc.fourier_sampling(odd),
        sc.grad2(9, 7),
    ]


class TestVandermonde:
    def test_powers_of_two(self):
        m = sc.vandermonde(np.array([2.0]), 2)
        assert np.array_equal(m.matrix, [[1.0, 2.0, 4.0]])

    def test_monomial_basis(self):
        m = sc.vandermonde(np.array([0.0, 1.0]), 1)
        assert np.array_equal(m.matrix, [[1.0, 0.0], [1.0, 1.0]])

    def test_paper_scale_shape(self):
        m = sc.vandermonde(np.linspace(0, 1, 50), 75)
        assert m.matrix.shape == (50, 76)
        assert m.domain_shape == (76,) and m.codomain_shape == (50,)

    def test_zero_to_the_zero_is_one(self):
        m = sc.vandermonde(np.array([0.0]), 3)
        assert np.array_equal(m.matrix, [[1.0, 0.0, 0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            sc.vandermonde(np.array([1.0, np.nan]), 2)
        with pytest.raises(InputError):
            sc.vandermonde(np.array([np.inf]), 1)


def _lasso_map(coeffs):
    from sourcecond.experiments import Lasso1DConfig, make_lasso_data

    return make_lasso_data(Lasso1DConfig(coeffs_true=coeffs))[0]


class TestMatrixProductsInto:
    """``apply(x, out=)``/``adjoint(y, out=)`` write the bytes of
    ``apply``/``adjoint`` (``@``), through ``ndarray.dot`` where both make
    the same BLAS call and through ``@`` and a copy elsewhere."""

    @staticmethod
    def _maps(rng):
        from sourcecond.experiments import DEG5_COEFFS, DEG20_COEFFS

        maps = [_lasso_map(DEG5_COEFFS), _lasso_map(DEG20_COEFFS)]
        for shape in [(50, 76), (7, 3), (1, 9), (9, 1), (300, 200)]:
            a = rng.standard_normal(shape)
            maps += [sc.MatrixMap(a), sc.MatrixMap(np.asfortranarray(a)),
                     sc.MatrixMap(np.repeat(a, 2, axis=1)[:, ::2])]  # strided
        return maps

    @staticmethod
    def _vectors(rng, n):
        x = rng.standard_normal(2 * n)
        return [x[:n], x[::2], x[:n][::-1], np.round(10 * x[:n]).astype(int)]

    def test_same_bytes_as_the_allocating_products(self, rng):
        for m in self._maps(rng):
            for x in self._vectors(rng, m.domain_shape[0]):
                out = np.empty(m.codomain_shape)
                assert m.apply(x, out=out) is out
                assert out.tobytes() == m.apply(x).tobytes()
            for y in self._vectors(rng, m.codomain_shape[0]):
                out = np.empty(m.domain_shape)
                assert m.adjoint(y, out=out) is out
                assert out.tobytes() == m.adjoint(y).tobytes()

    def test_into_a_strided_array(self, rng):
        # dot writes only C-contiguous arrays; the product is copied instead
        m = sc.MatrixMap(rng.standard_normal((4, 3)))
        x, out = rng.standard_normal(3), np.empty(8)[::2]
        assert m.apply(x, out=out) is out and out.tobytes() == m.apply(x).tobytes()

    def test_into_its_own_input(self, rng):
        m = sc.MatrixMap(rng.standard_normal((5, 5)))
        x = rng.standard_normal(5)
        want = m.apply(x)
        assert m.apply(x, out=x) is x and x.tobytes() == want.tobytes()

    def test_complex_product_into_a_complex_array(self, rng):
        m = sc.MatrixMap(rng.standard_normal((4, 3)))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = np.empty(4, dtype=complex)
        assert m.apply(x, out=out).tobytes() == m.apply(x).tobytes()
        with pytest.raises(TypeError):
            m.apply(x, out=np.empty(4))

    @pytest.mark.parametrize("x, out", [
        (np.ones(3), np.empty(4)),        # a vector of the wrong length
        (np.ones(4), np.empty(3)),        # an out of the wrong length
        (np.ones((4, 2)), np.empty((4, 2))),  # a batch of vectors
        (np.ones(4), np.empty((4, 1))),
    ])
    def test_refuses_wrong_shapes(self, x, out):
        m = sc.MatrixMap(np.ones((4, 4)))
        with pytest.raises(InputError):
            m.apply(x, out=out)
        with pytest.raises(InputError):
            m.adjoint(x, out=out)


class TestEveryMapWritesIntoOut:
    """Every shipped map takes ``out=`` on ``apply`` and ``adjoint``: the
    call returns ``out``, holding the bytes of the allocating call, and
    refuses an ``out`` of the wrong shape."""

    @staticmethod
    def _pairs(rng):
        """``(map, x, y)``, with ``x`` in its domain and ``y`` in its codomain."""
        for m in all_test_maps(rng):
            x = rng.standard_normal(m.domain_shape)
            y = rng.standard_normal(m.codomain_shape)
            if m.domain_complex:
                x = x + 1j * rng.standard_normal(m.domain_shape)
            if m.codomain_complex:
                y = y + 1j * rng.standard_normal(m.codomain_shape)
            yield m, x, y

    def test_same_bytes_as_the_allocating_call(self, rng):
        for m, x, y in self._pairs(rng):
            for call, arg in ((m.apply, x), (m.adjoint, y)):
                want = call(arg)
                out = np.full_like(want, np.nan)  # stale contents must not reach it
                assert call(arg, out=out) is out
                assert out.tobytes() == want.tobytes(), type(m).__name__

    def test_refuses_an_out_of_the_wrong_shape(self, rng):
        for m, x, y in self._pairs(rng):
            for call, arg in ((m.apply, x), (m.adjoint, y)):
                want = call(arg)
                for shape in (want.shape + (1,), (want.size + 1,)):
                    with pytest.raises(InputError):
                        call(arg, out=np.empty(shape, dtype=want.dtype))


@pytest.mark.parametrize("value", [1e160, 1e200])
def test_matrix_whose_bound_overflows_is_refused(value):
    # power iteration overflows on the matrix, so its bound can set no step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="not finite"):
            sc.MatrixMap(np.full((3, 3), value))


class TestDft2:
    def test_dc_of_ones(self):
        f = sc.dft2(np.ones((4, 4)))
        assert abs(f[0, 0] - 4.0) < 1e-12
        off = np.abs(f).copy()
        off[0, 0] = 0
        assert off.max() < 1e-12

    def test_unitary_roundtrip(self, rng):
        u = rng.standard_normal((8, 8))
        back = sc.dft2(sc.dft2(u), "inverse")
        assert np.max(np.abs(back - u)) < 1e-12

    def test_single_pixel_flat_spectrum(self):
        # oracle: direct evaluation of the double sum
        u = np.array([[1.0, 0.0], [0.0, 0.0]])
        expected = np.zeros((2, 2), dtype=complex)
        for p in range(2):
            for q in range(2):
                acc = 0.0j
                for l in range(2):
                    for j in range(2):
                        acc += u[l, j] * np.exp(-2j * np.pi * (p * l / 2 + q * j / 2))
                expected[p, q] = acc / 2.0
        got = sc.dft2(u)
        assert np.max(np.abs(got - expected)) < 1e-15
        assert np.max(np.abs(got - 0.5)) < 1e-15

    def test_parseval(self, rng):
        u = rng.standard_normal((13, 9))
        assert abs(np.linalg.norm(sc.dft2(u)) - np.linalg.norm(u)) <= 1e-12 * np.linalg.norm(u)

    def test_rejects_bad_direction(self):
        with pytest.raises(InputError):
            sc.dft2(np.ones((2, 2)), "sideways")


class TestRdft2:
    """``rdft2``/``irdft2`` run the 1-D passes of numpy's ``rfft2``/``irfft2``
    and give their results byte for byte."""

    _SHAPES = pytest.mark.parametrize("shape", [
        (2, 2), (5, 2), (2, 5), (4, 4), (7, 7), (16, 17), (48, 47), (47, 48), (64, 64),
        (400, 400),
    ], ids=lambda s: f"{s[0]}x{s[1]}")

    @_SHAPES
    def test_forward_is_rfft2(self, rng, shape):
        x = rng.standard_normal(shape)
        want = np.fft.rfft2(x, norm="ortho")
        got = rdft2(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        out = np.full(want.shape, np.nan + 1j)
        assert rdft2(x, out=out) is out and out.tobytes() == want.tobytes()

    @_SHAPES
    def test_inverse_is_irfft2_and_keeps_its_input(self, rng, shape):
        half = np.fft.rfft2(rng.standard_normal(shape), norm="ortho")
        half *= rng.uniform(0.5, 1.5, half.shape)  # not the spectrum of a real image
        kept = half.copy()
        want = np.fft.irfft2(half, s=shape, norm="ortho")
        got = irdft2(half, shape)
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert half.tobytes() == kept.tobytes()


class TestSampling:
    def test_all_true_is_identity(self, rng):
        s = sc.sampling(sc.full_mask((5, 4)))
        x = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        assert np.array_equal(s.apply(x), x)

    def test_all_false_is_zero(self, rng):
        s = sc.sampling(sc.SamplingMask(np.zeros((5, 4), dtype=bool)))
        assert not np.any(s.apply(rng.standard_normal((5, 4))))
        assert s.norm_bound == 0.0

    def test_lowpass_block_count(self):
        mask = sc.lowpass_mask((400, 400), 130)
        assert mask.count == 16900

    def test_idempotent_self_adjoint(self, rng):
        s = sc.sampling(sc.lowpass_mask((8, 8), 3))
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        once = s.apply(x)
        assert np.array_equal(s.apply(once), once)
        assert np.array_equal(s.adjoint(x), s.apply(x))

    def test_mask_count_matches_grid(self, rng):
        grid = rng.standard_normal((6, 6)) > 0.3
        mask = sc.SamplingMask(grid)
        assert mask.count == int(grid.sum())

    def test_lowpass_includes_dc_and_is_centered(self):
        mask = sc.lowpass_mask((16, 16), 3)
        assert mask.grid[0, 0]
        assert mask.count == 9
        # 3x3 block around zero frequency
        assert mask.grid[0, 1] and mask.grid[1, 0] and mask.grid[15, 15]

    def test_lowpass_too_big(self):
        with pytest.raises(InputError):
            sc.lowpass_mask((8, 8), 9)


class TestGrad2:
    def test_direct_differences(self):
        a = sc.grad2(2, 2)
        out = a.apply(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert out.shape == (2, 2, 2)
        assert out[0, 0, 0] == 2.0 and out[1, 0, 0] == 1.0

    def test_annihilates_constants(self):
        a = sc.grad2(6, 5)
        assert not np.any(a.apply(np.full((6, 5), 3.7)))

    def test_adjoint_identity_vs_dense(self, rng):
        # oracle: explicit matrix assembly from the difference stencil
        n = 16
        a = sc.grad2(n, n)
        # the rows of the pads (last row and column of each channel) are zero
        dense = np.zeros((2, n, n, n, n))
        for i in range(n - 1):
            for j in range(n - 1):
                dense[0, i, j, i + 1, j] += 1.0
                dense[0, i, j, i, j] -= 1.0
                dense[1, i, j, i, j + 1] += 1.0
                dense[1, i, j, i, j] -= 1.0
        dense = dense.reshape(2 * n * n, n * n)
        u = rng.standard_normal((n, n))
        q = rng.standard_normal((2, n, n))
        lhs = float(np.dot(a.apply(u).ravel(), q.ravel()))
        rhs = float(np.dot(u.ravel(), a.adjoint(q).ravel()))
        assert abs(lhs - rhs) < 1e-12 * (np.linalg.norm(u) * np.linalg.norm(q))
        assert np.max(np.abs(a.apply(u).ravel() - dense @ u.ravel())) == 0.0
        assert np.max(np.abs(a.adjoint(q).ravel() - dense.T @ q.ravel())) < 1e-14

    def test_adjoint_zero_mean(self, rng):
        a = sc.grad2(10, 12)
        q = rng.standard_normal((2, 10, 12))
        assert abs(a.adjoint(q).sum()) < 1e-12

    def test_norm_bound(self):
        assert sc.grad2(32, 32).norm_bound == pytest.approx(np.sqrt(8.0))

    def test_too_small(self):
        with pytest.raises(InputError):
            sc.grad2(1, 5)


class TestPowerNorm:
    def test_identity(self):
        assert sc.power_norm(sc.IdentityMap((5,))) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        m = sc.MatrixMap(np.diag([1.0, 3.0]))
        assert sc.power_norm(m, iters=200, tol=1e-14) == pytest.approx(3.0, abs=1e-6)

    def test_zero_map(self):
        m = sc.MatrixMap(np.zeros((3, 3)))
        assert sc.power_norm(m) == 0.0

    def test_grad2_against_dense_svd(self):
        # oracle: dense SVD of the assembled matrix; the top of the spectrum
        # is tightly clustered, so the estimate sits just below the true value
        n = 32
        a = sc.grad2(n, n)
        est = sc.power_norm(a, iters=500)
        assert 2.7 < est <= np.sqrt(8.0)
        cols = [a.apply(e.reshape(n, n)).ravel() for e in np.eye(n * n)]
        top = np.linalg.svd(np.column_stack(cols), compute_uv=False)[0]
        assert est <= top * (1 + 1e-10)
        assert est == pytest.approx(top, rel=1e-4)

    def test_deterministic(self):
        m = sc.MatrixMap(np.arange(12.0).reshape(4, 3))
        assert sc.power_norm(m) == sc.power_norm(m)

    def test_matrix_map_default_bound(self):
        m = sc.vandermonde(np.linspace(0, 1, 50), 20)
        assert m.norm_bound == sc.power_norm(m)
        assert m.norm_bound == pytest.approx(np.linalg.norm(m.matrix, 2), rel=1e-8)


class TestLinearMapInvariants:
    def test_adjoint_consistency_randomized(self, rng):
        for m in all_test_maps(rng):
            assert sc.adjoint_gap(m, rng, n_pairs=20) <= 1e-10

    def test_norm_bound_dominates(self, rng):
        for m in all_test_maps(rng):
            for _ in range(10):
                x = rng.standard_normal(m.domain_shape)
                if m.domain_complex:
                    x = x + 1j * rng.standard_normal(m.domain_shape)
                assert np.linalg.norm(m.apply(x)) <= m.norm_bound * np.linalg.norm(x) * (1 + 1e-9)

    def test_shape_checks(self, rng):
        m = sc.grad2(4, 4)
        with pytest.raises(InputError):
            m.apply(np.zeros((3, 3)))
        with pytest.raises(InputError):
            m.adjoint(np.zeros((4, 4)))

    def test_dft_isometry_as_map(self, rng):
        k = sc.fourier_sampling(sc.full_mask((8, 8)))
        u = rng.standard_normal((8, 8))
        assert abs(np.linalg.norm(k.apply(u)) - np.linalg.norm(u)) <= 1e-12 * np.linalg.norm(u)


class TestFourierSampling:
    def test_adjoint_is_real_backprojection(self, rng):
        mask = sc.lowpass_mask((8, 8), 3)
        k = sc.fourier_sampling(mask)
        v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        expected = np.real(np.fft.ifft2(np.where(mask.grid, v, 0), norm="ortho"))
        assert np.allclose(k.adjoint(v), expected)

    def test_apply_is_masked_dft(self, rng):
        mask = sc.lowpass_mask((8, 8), 3)
        k = sc.fourier_sampling(mask)
        u = rng.standard_normal((8, 8))
        out = k.apply(u)
        assert not np.any(out[~mask.grid])
        assert np.allclose(out[mask.grid], sc.dft2(u)[mask.grid])

    def test_asymmetric_mask_norm_bound(self, rng):
        # one off-DC frequency without its mirror: norm is 1/sqrt(2)
        grid = np.zeros((8, 8), dtype=bool)
        grid[1, 2] = True
        k = sc.fourier_sampling(sc.SamplingMask(grid))
        assert k.norm_bound == pytest.approx(1 / np.sqrt(2))
        for _ in range(20):
            x = rng.standard_normal((8, 8))
            assert np.linalg.norm(k.apply(x)) <= k.norm_bound * np.linalg.norm(x) * (1 + 1e-9)


# mask kind -> strategy of a mask on the given shape; even low-pass widths
# below the grid width are not symmetric under k -> -k
_MASKS = {
    "random": lambda shape: hnp.arrays(np.bool_, shape).map(sc.SamplingMask),
    "even-width-lowpass": lambda shape: st.tuples(
        st.integers(1, shape[1] // 2), st.integers(1, shape[0])).map(
            lambda wh: sc.lowpass_mask(shape, 2 * wh[0], wh[1])),
    "full": lambda shape: st.just(sc.full_mask(shape)),
}

# odd and even heights and widths
_SHAPES = st.tuples(st.integers(2, 11), st.integers(2, 11))

# Entries are 0 or of magnitude at least 1e-150, so that their squares are
# normal floats.  A norm taken over subnormal squares (all entries near
# 3e-159, say) has no bits left for a 1e-12 relative bound, whatever the
# implementation, so the bound is asked only of inputs above underflow.
_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-150, 1e3), st.floats(-1e3, -1e-150))

# map kind -> strategy of a forward map with a closed-form resolvent
_RESOLVENT_MAPS = {
    **{f"fourier-{kind}": _SHAPES.flatmap(mask).map(sc.fourier_sampling)
       for kind, mask in _MASKS.items()},
    "identity": _SHAPES.map(sc.IdentityMap),
    "matrix": hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                         elements=st.floats(-1.0, 1.0)).map(sc.MatrixMap),
}


class TestNormal:
    """``normal(x)`` against ``(adjoint(apply(x)), ||apply(x)||)``."""

    @pytest.mark.parametrize("kind", sorted(_MASKS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fourier_matches_adjoint_of_apply(self, kind, data):
        shape = data.draw(_SHAPES)
        k = sc.fourier_sampling(data.draw(_MASKS[kind](shape)))
        x = data.draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
        kx = k.apply(x)
        got, norm = k.normal(x)
        scale = np.linalg.norm(x)
        assert got.shape == shape and got.dtype == np.float64
        assert np.linalg.norm(got - k.adjoint(kx)) <= 1e-12 * scale
        assert abs(norm - np.linalg.norm(kx)) <= 1e-12 * scale

    def test_full_mask_runs_no_transform(self, rng, monkeypatch):
        # K* K = I: normal returns x itself, the resolvent divides by 1 + tau
        maps = (sc.fourier_sampling(sc.full_mask((6, 7))), sc.IdentityMap((6, 7)))
        for name in FFT_NAMES:
            monkeypatch.setattr(np.fft, name, None)
        x = rng.standard_normal((6, 7))
        for k in maps:
            got, norm = k.normal(x)
            assert got is x and norm == sc.operators.norm(x)
            assert np.array_equal(k.normal_resolvent(0.125)(x), x / 1.125)

    def test_only_full_mask_is_identity(self, rng, monkeypatch):
        # one frequency missing: normal and resolvent each take a real FFT
        # pair, rdft2's two passes and irdft2's two
        grid = np.ones((6, 7), dtype=bool)
        grid[1, 2] = False
        k = sc.fourier_sampling(sc.SamplingMask(grid))
        calls = []
        for name in FFT_NAMES:
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        x = rng.standard_normal((6, 7))
        got, _ = k.normal(x)
        assert calls == REAL_PAIR and not np.array_equal(got, x)
        got = k.normal_resolvent(0.125)(x)
        assert calls == REAL_PAIR * 2 and not np.allclose(got, x / 1.125)

    def test_default_is_adjoint_of_apply(self, rng):
        for m in all_test_maps(rng):
            x = rng.standard_normal(m.domain_shape)
            if m.domain_complex:
                x = x + 1j * rng.standard_normal(m.domain_shape)
            got, norm = m.normal(x)
            kx = m.apply(x)
            assert np.allclose(got, m.adjoint(kx), rtol=0.0, atol=1e-12 * np.linalg.norm(x))
            assert norm == pytest.approx(np.linalg.norm(kx), rel=1e-12)

    def test_norm_skipped_when_asked(self, rng):
        # norm=False returns None for the norm and the same K* K x, bytes and
        # all, on every kind of map
        maps = [sc.fourier_sampling(sc.lowpass_mask((8, 9), 3)),
                sc.fourier_sampling(sc.full_mask((8, 9))), sc.IdentityMap((8, 9)),
                *all_test_maps(rng)]
        for m in maps:
            x = rng.standard_normal(m.domain_shape)
            if m.domain_complex:
                x = x + 1j * rng.standard_normal(m.domain_shape)
            want, norm = m.normal(x)
            got, skipped = m.normal(x, norm=False)
            assert skipped is None and isinstance(norm, float)
            assert got.tobytes() == want.tobytes()

    def test_shape_check(self):
        for m in (sc.fourier_sampling(sc.lowpass_mask((8, 8), 3)),
                  sc.fourier_sampling(sc.full_mask((8, 8)))):
            with pytest.raises(InputError):
                m.normal(np.zeros((8, 7)))


class TestNorm:
    """``operators.norm``, the one place where a norm is summed."""

    def test_bytes_of_the_plain_norm(self, rng):
        # real, complex, field and strided inputs: einsum's sum of squares
        # over the flat float view, complex entries as real pairs, bit for bit
        xs = [rng.standard_normal(7), rng.standard_normal((5, 6)),
              rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
              rng.standard_normal((2, 9, 8)), np.zeros((3, 3))]
        for x in xs + [xs[3][:, ::2, 1:]]:
            f = np.ravel(x, order="K")
            f = f.view(float) if f.dtype.kind == "c" else f
            want = math.sqrt(float(np.einsum("i,i->", f, f)))
            got = norm(x)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("shape", [(8, 8), (7, 9)])
    def test_bytes_of_the_weighted_half_spectrum_sum(self, rng, shape):
        # the expression the half-spectrum norms summed before they came here,
        # with mirror weights alone and with the symbol folded in
        half = rdft2(rng.standard_normal(shape))
        weights = sc.operators.mirror_weights(shape[1])
        symbol = sc.fourier_sampling(sc.lowpass_mask(shape, 3))._norm_weight
        for w in (weights, symbol):
            power = half.real * half.real + half.imag * half.imag
            want = math.sqrt(float(np.add.reduce(w * power, axis=None)))
            assert norm(half, w) == want
        # every column weighted with its mirrors: the norm of the full spectrum
        assert norm(half, weights) == pytest.approx(
            np.linalg.norm(sc.operators.full_spectrum(half, shape[1])), rel=1e-14)

    def test_finite_past_overflow_of_the_squares(self):
        x = np.full((3, 4), 1e200)
        assert norm(x) == pytest.approx(1e200 * math.sqrt(12), rel=1e-15)
        assert norm(x * 1j) == pytest.approx(1e200 * math.sqrt(12), rel=1e-15)
        assert norm(x, np.full(4, 2.0)) == pytest.approx(1e200 * math.sqrt(24), rel=1e-15)
        # a norm beyond the float range is still infinite
        assert norm(np.full(4, 1.7e308)) == math.inf

    @pytest.mark.parametrize("weights", [None, np.ones(3)])
    def test_non_finite_entries(self, weights):
        assert norm(np.array([np.inf, 1e200, 1.0]), weights) == math.inf
        assert math.isnan(norm(np.array([np.nan, 1e200, 1.0]), weights))
        assert math.isnan(norm(np.array([np.nan, np.inf, 1.0]), weights))

    def test_finish_and_error_estimate_past_overflow(self):
        # a certificate of 1e200 entries has a finite norm, and so a finite
        # weight and bound
        from sourcecond.solvers import _finish

        v = np.full((2, 3), 1e200)
        report = _finish(v, None, 0, 0.0, [], "max_iters")
        assert report.v_norm == pytest.approx(1e200 * math.sqrt(6), rel=1e-15)
        est = sc.error_estimate(v, 1.0)
        assert est.v_norm == report.v_norm
        assert all(math.isfinite(x) for x in (est.alpha_star, est.bound, est.delta))


class TestNormalResolvent:
    """``x = normal_resolvent(tau)(r)`` solves ``x + tau K* K x = r``."""

    @pytest.mark.parametrize("kind", sorted(_RESOLVENT_MAPS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), tau=st.sampled_from([1e-3, 0.125, 1.0, 4.0]))
    def test_solves_the_normal_equations(self, kind, data, tau):
        k = data.draw(_RESOLVENT_MAPS[kind])
        r = data.draw(hnp.arrays(np.float64, k.domain_shape, elements=_ENTRIES))
        solve, kept = k.normal_resolvent(tau), r.copy()
        x = solve(r)
        assert x.shape == r.shape and x.dtype == np.float64
        assert r.tobytes() == kept.tobytes()
        residual = x + tau * k.adjoint(k.apply(x)) - r
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(r)
        # solved into r itself, the same bytes
        assert solve(r, out=r) is r and r.tobytes() == x.tobytes()
