"""Property tests: the channel-view TV prox kernels equal, bit for bit, the
``sum(z * z, axis=0, keepdims=True)`` expressions they replace, the ball
projection ``z * (radius / max(r, radius))`` equals the ``np.where`` form it
replaces, and so do the in-place one-norm shrinkage and the real inner
product (``np.add.reduce`` for real operands) against ``np.where`` shrinkage
and ``sum(x * conj(y))``.

The one input where the kernels differ is a group holding NaN: the old
expressions kept the other channel of a two-channel group (shrinkage made it
0, the projection left it as it was), the new ones make it NaN.

The gradient and the divergence on the ``(2, n_y, n_x)`` field layout equal,
bit for bit and signed zeros included, the slice formulas on the
``(n_y-1, n_x-1, 2)`` interior layout (``reference_gradient`` and
``reference_divergence``) on the interior entries; the gradient writes zero
pads and the divergence ignores whatever the pads hold, and ``tv_value``
equals the slice formula.  The ``out=`` forms of the gradient, the
divergence and the three prox kernels, which the solvers use on their work
arrays, equal the allocating forms exactly.

``ProxFunctional.value`` takes the groups its prox uses: the indicator's
value is 0 exactly when the projection keeps ``z``, and ``group_l21``
refuses what its prox refuses.  Infinite entries give NaN in all three
kernels, with the values of the old expressions and no warning; the ball
projection scales the real and imaginary parts of a complex entry apart, so
an infinite part inside the ball is kept and one outside makes only its own
part NaN.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sourcecond as sc
from sourcecond.errors import InputError


def keepdims_norm(z):
    return np.sqrt(np.sum(z * z, axis=0, keepdims=True))


def keepdims_group_soft_threshold(z, beta):
    r = keepdims_norm(z)
    factor = np.where(r > 0, np.maximum(r - beta, 0.0) / np.where(r > 0, r, 1.0), 0.0)
    return z * factor


def where_project_ball(z, r, radius):
    # radius / r overflows for subnormal r; np.where discards those entries.
    # The factor is real: it scales the real and imaginary parts of a complex
    # entry apart, so that 0 * inf in one part never reaches the other.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(r > radius, radius / np.where(r > 0, r, 1.0), 1.0)
        if not np.iscomplexobj(z):
            return z * scale
        out = np.empty(z.shape, np.result_type(z, scale))
        out.real, out.imag = z.real * scale, z.imag * scale
        return out


def keepdims_project_group_ball(z, radius):
    return where_project_ball(z, keepdims_norm(z), radius)


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Magnitudes stay below 1e150 so that squares cannot overflow; subnormals and
# signed zeros are drawn.
_entries = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@st.composite
def two_channel_fields(draw):
    """(2, n_y, n_x) fields in which some 2-vectors are exactly zero and some
    have one zero channel."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    z = draw(hnp.arrays(np.float64, (2,) + shape, elements=_entries))
    zeros = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3)))
    z[:, zeros == 1] = 0.0
    z[0, zeros == 2] = 0.0
    z[1, zeros == 3] = 0.0
    return z


_weights = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3))


@settings(max_examples=300, deadline=None)
@given(two_channel_fields(), _weights)
def test_group_soft_threshold_bit_identical(z, beta):
    assert_bits_equal(sc.group_soft_threshold(z, beta), keepdims_group_soft_threshold(z, beta))


@settings(max_examples=300, deadline=None)
@given(two_channel_fields(), _weights)
def test_project_group_ball_bit_identical(z, radius):
    assert_bits_equal(sc.project_group_ball(z, radius), keepdims_project_group_ball(z, radius))


@settings(max_examples=200, deadline=None)
@given(two_channel_fields(), st.data())
def test_weight_equal_to_a_group_norm(z, data):
    # The boundary case r == beta (shrinks to zero) and r == radius (kept).
    flat = keepdims_norm(z).ravel()
    weight = float(flat[data.draw(st.integers(0, flat.size - 1))])
    assert_bits_equal(sc.group_soft_threshold(z, weight),
                      keepdims_group_soft_threshold(z, weight))
    assert_bits_equal(sc.project_group_ball(z, weight), keepdims_project_group_ball(z, weight))


def test_zero_field_and_one_by_one():
    for z in (np.zeros((2, 1, 1)), np.zeros((2, 3, 4)), np.array([[[0.0]], [[-2.0]]])):
        for w in (0.0, 1.0, 2.0):
            assert_bits_equal(sc.group_soft_threshold(z, w), keepdims_group_soft_threshold(z, w))
            assert_bits_equal(sc.project_group_ball(z, w), keepdims_project_group_ball(z, w))


# a field is a real array of two or more axes whose leading one has length 2
@pytest.mark.parametrize(
    "z", [np.ones(()), np.ones(3), np.ones((1, 4, 4)), np.ones((3, 4, 4)), np.ones((0, 2)),
          np.ones(2), np.ones((2, 4, 4), dtype=complex)],
    ids=[f"shape{i}" for i in range(5)] + ["pair_vector", "complex_field"])
def test_group_soft_threshold_rejects_other_trailing_lengths(z):
    with pytest.raises(InputError):
        sc.group_soft_threshold(z, 1.0)


_side = st.one_of(st.just(2), st.integers(2, 9))
_grid_shapes = st.tuples(_side, _side)


@st.composite
def gradient_grids(draw):
    """An image on a grid of at least 2x2 (2x2, 2xn, odd and non-square ones
    drawn) and a field on the gradient's codomain, pads included."""
    n_y, n_x = draw(_grid_shapes)
    u = draw(hnp.arrays(np.float64, (n_y, n_x), elements=_entries))
    q = draw(hnp.arrays(np.float64, (2, n_y, n_x), elements=_entries))
    return u, q


@settings(max_examples=200, deadline=None)
@given(gradient_grids(), _weights)
def test_out_forms_equal_allocating_forms(grid, weight):
    u, q = grid
    a = sc.grad2(*u.shape)
    # stale contents in the work arrays must not reach the result
    field, image = np.full(q.shape, np.nan), np.full(u.shape, np.nan)
    assert a.apply(u, out=field) is field and np.array_equal(field, a.apply(u))
    assert a.adjoint(q, out=image) is image and np.array_equal(image, a.adjoint(q))
    field[...], image[...] = np.nan, np.nan
    assert a.apply_into(u, field) is field and np.array_equal(field, a.apply(u))
    assert a.adjoint_into(q, image) is image and np.array_equal(image, a.adjoint(q))
    for kernel in (sc.soft_threshold, sc.group_soft_threshold, sc.project_group_ball):
        z = q.copy()
        assert kernel(z, weight, out=z) is z and np.array_equal(z, kernel(q, weight))

    taller = np.empty((q.shape[0] + 1,) + q.shape[1:])
    wider = np.empty((u.shape[0], u.shape[1] + 1))
    # right shapes, but a flat view of these would not write through
    strided_field = np.empty(q.shape[:2] + (2 * q.shape[2],))[:, :, ::2]
    strided_image = np.empty((u.shape[0], 2 * u.shape[1]))[:, ::2]
    for call in (lambda: a.apply(u, out=taller), lambda: a.apply_into(u, taller),
                 lambda: a.adjoint(q, out=wider), lambda: a.adjoint_into(q, wider),
                 lambda: a.apply(u, out=strided_field),
                 lambda: a.adjoint(q, out=strided_image),
                 lambda: sc.soft_threshold(q, weight, out=taller),
                 lambda: sc.group_soft_threshold(q, weight, out=taller),
                 lambda: sc.project_group_ball(q, weight, out=taller)):
        with pytest.raises(InputError):
            call()


def reference_gradient(u):
    """Forward differences by the slice formulas, on the interior grid with
    the channels last: ``(n_y-1, n_x-1, 2)``."""
    out = np.empty((u.shape[0] - 1, u.shape[1] - 1, 2))
    np.subtract(u[1:, :-1], u[:-1, :-1], out=out[:, :, 0])
    np.subtract(u[:-1, 1:], u[:-1, :-1], out=out[:, :, 1])
    return out


def reference_divergence(q):
    """The adjoint of ``reference_gradient`` by four slice updates of a zero
    image, in the order south, here, east, here."""
    out = np.zeros((q.shape[0] + 1, q.shape[1] + 1))
    south, here, east = out[1:, :-1], out[:-1, :-1], out[:-1, 1:]
    np.add(south, q[:, :, 0], out=south)
    np.subtract(here, q[:, :, 0], out=here)
    np.add(east, q[:, :, 1], out=east)
    np.subtract(here, q[:, :, 1], out=here)
    return out


def reference_tv(u):
    """The total variation by the slice formulas."""
    dy = u[1:, :-1] - u[:-1, :-1]
    dx = u[:-1, 1:] - u[:-1, :-1]
    return float(np.sum(np.sqrt(dy * dy + dx * dx)))


def interior(q):
    """The valid entries of a ``(2, n_y, n_x)`` field in the reference layout."""
    return np.ascontiguousarray(np.moveaxis(q[:, :-1, :-1], 0, -1))


@st.composite
def signed_zero_grids(draw):
    """``gradient_grids`` with some entries set to +0 or -0, so that both
    signs of zero meet in the sums."""
    u, q = draw(gradient_grids())
    for x in (u, q):
        x[draw(hnp.arrays(np.bool_, x.shape))] = 0.0
        x[draw(hnp.arrays(np.bool_, x.shape))] = -0.0
    return u, q


@settings(max_examples=300, deadline=None)
@given(signed_zero_grids())
def test_gradient_and_divergence_match_reference(grid):
    u, q = grid
    a = sc.grad2(*u.shape)
    g = a.apply(u)
    assert_bits_equal(interior(g), reference_gradient(u))
    pads = np.concatenate([g[:, -1].ravel(), g[:, :, -1].ravel()])
    assert pads.tobytes() == np.zeros_like(pads).tobytes()  # +0, never -0
    # the pads of q hold random values, which must not reach the result
    assert_bits_equal(a.adjoint(q), reference_divergence(interior(q)))
    assert sc.tv_value(u) == reference_tv(u)


@settings(max_examples=200, deadline=None)
@given(_grid_shapes, st.data())
def test_adjoint_identity_with_random_pads(shape, data):
    # integer entries below 2**20: every product and sum is exact, so the
    # two inner products agree exactly
    whole = st.integers(-2 ** 20, 2 ** 20).map(float)
    u = data.draw(hnp.arrays(np.float64, shape, elements=whole))
    q = data.draw(hnp.arrays(np.float64, (2,) + shape, elements=whole))
    a = sc.grad2(*shape)
    assert sc.real_inner(a.apply(u), q) == sc.real_inner(u, a.adjoint(q))


@pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2), (5, 9), (8, 3)])
def test_kernels_on_fixed_shapes(shape, rng):
    a = sc.grad2(*shape)
    u = rng.standard_normal(shape)
    q = rng.standard_normal((2,) + shape)
    assert_bits_equal(interior(a.apply(u)), reference_gradient(u))
    assert_bits_equal(a.adjoint(q), reference_divergence(interior(q)))
    assert sc.adjoint_gap(a, rng) <= 1e-12


def test_copying_out_forms_check_the_shape():
    # maps without an in-place form copy apply/adjoint into ``out``
    m = sc.IdentityMap((3, 4))
    x = np.arange(12.0).reshape(3, 4)
    out = np.empty((3, 4))
    assert m.apply_into(x, out) is out and np.array_equal(out, x)
    with pytest.raises(InputError):
        m.adjoint_into(x, np.empty((4, 3)))
    with pytest.raises(InputError):
        sc.ProxFunctional("l1", 0.5).prox(x, out=np.empty(12))


_moduli = st.floats(min_value=0.0, max_value=1e150)


@st.composite
def componentwise_arrays(draw):
    """1-D real arrays and complex grids (whose leading axis may be 2): the
    inputs that ``project_group_ball`` clamps entry by entry, in modulus."""
    if draw(st.booleans()):
        z = draw(hnp.arrays(np.float64, st.integers(1, 12), elements=_entries))
    else:
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        z = draw(hnp.arrays(np.complex128, shape, elements=st.complex_numbers(
            max_magnitude=1e150, allow_nan=False, allow_infinity=False)))
    zeros = draw(hnp.arrays(np.bool_, z.shape))
    z[zeros] = 0.0
    return z


@settings(max_examples=300, deadline=None)
@given(componentwise_arrays(), st.one_of(st.just(0.0), _moduli), st.data())
def test_project_ball_componentwise_bit_identical(z, radius, data):
    r = np.abs(z)
    assert_bits_equal(sc.project_group_ball(z, radius), where_project_ball(z, r, radius))
    # radius equal to an entry's modulus: that entry is kept as it is
    on_boundary = float(r.ravel()[data.draw(st.integers(0, r.size - 1))])
    assert_bits_equal(sc.project_group_ball(z, on_boundary),
                      where_project_ball(z, r, on_boundary))


def test_project_ball_nan_group():
    # the old expression left the finite channel as it was; NaN now fills the group
    z = np.array([[[np.nan, 3.0]], [[0.5, 4.0]]])
    got, old = sc.project_group_ball(z, 1.0), keepdims_project_group_ball(z, 1.0)
    assert np.isnan(got[:, 0, 0]).all()
    assert np.isnan(old[0, 0, 0]) and old[1, 0, 0] == 0.5
    assert_bits_equal(got[:, 0, 1], old[:, 0, 1])


def where_soft_threshold(z, beta):
    mag = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(mag > 0, np.maximum(mag - beta, 0.0) / np.where(mag > 0, mag, 1.0), 0.0)
    return z * factor


def conj_real_inner(x, y):
    return float(np.real(np.sum(np.asarray(x) * np.conj(y))))


# Real entries over the whole finite range, with subnormals drawn on purpose;
# complex moduli stay below 1e150 so that |z| cannot overflow.
_real_entries = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(min_value=-1e-307, max_value=1e-307))
_complex_entries = st.complex_numbers(max_magnitude=1e150, allow_nan=False,
                                      allow_infinity=False)


@st.composite
def shrinkage_inputs(draw):
    """0-d and 1-D real arrays and complex grids, some entries exactly zero
    (all of them, at times)."""
    kind = draw(st.sampled_from(["0-d", "real", "complex"]))
    if kind == "0-d":
        z = draw(hnp.arrays(np.float64, (), elements=_real_entries))
    elif kind == "real":
        z = draw(hnp.arrays(np.float64, st.integers(1, 12), elements=_real_entries))
    else:
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        z = draw(hnp.arrays(np.complex128, shape, elements=_complex_entries))
    if z.ndim:
        z[draw(hnp.arrays(np.bool_, z.shape))] = 0.0
    return z


@settings(max_examples=400, deadline=None)
@given(shrinkage_inputs(), st.one_of(st.just(0.0), _moduli, st.floats(0.0, 1e-307)),
       st.data())
def test_soft_threshold_bit_identical(z, beta, data):
    assert_bits_equal(sc.soft_threshold(z, beta), where_soft_threshold(z, beta))
    # beta equal to an entry's modulus: that entry shrinks to zero
    mag = np.abs(z).ravel()
    on_boundary = float(mag[data.draw(st.integers(0, mag.size - 1))])
    assert_bits_equal(sc.soft_threshold(z, on_boundary), where_soft_threshold(z, on_boundary))


@pytest.mark.parametrize("z", [np.zeros(5), np.zeros((3, 4), dtype=complex), np.array(0.0),
                               np.array([-0.0, 0.0])])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_soft_threshold_all_zeros(z, beta):
    assert_bits_equal(sc.soft_threshold(z, beta), where_soft_threshold(z, beta))


@pytest.mark.parametrize("z", [
    np.array([np.inf, -np.inf, np.nan, 2.0, 0.0]),
    np.array([complex(np.inf, 0.0), complex(1.0, -np.inf), complex(np.nan, 1.0), 3 + 4j, 0j]),
    np.array(-np.inf),
])
@pytest.mark.parametrize("beta", [0.0, 1.0, np.inf])
def test_soft_threshold_non_finite_entries(z, beta):
    # infinite and NaN entries come out NaN, as before, and raise no
    # warning, in the out= form too
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = where_soft_threshold(z, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sc.soft_threshold(z, beta)
        into = z.copy()
        assert sc.soft_threshold(into, beta, out=into) is into
    assert_bits_equal(got, want)
    assert_bits_equal(into, got)
    assert np.array_equal(np.isnan(got), ~np.isfinite(z))


def infinite_groups(dtype=float):
    """A (2, 1, 5) field whose groups hold inf, -inf with NaN, inf with a
    finite entry, no inf, and zeros."""
    return np.array([[[np.inf, -np.inf, np.inf, 3.0, 0.0]],
                     [[-np.inf, np.nan, 2.0, 4.0, 0.0]]], dtype=dtype)


def warning_free(kernel, *args, **kwargs):
    """``kernel(*args)``, failing on any floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return kernel(*args, **kwargs)


def warnings_ignored(reference, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return reference(*args, **kwargs)


@pytest.mark.parametrize("beta", [0.0, 1.0, np.inf])
def test_group_soft_threshold_infinite_groups(beta):
    # a group holding inf or NaN comes out NaN in both entries, as before
    z = infinite_groups()
    got = warning_free(sc.group_soft_threshold, z, beta)
    want = warnings_ignored(keepdims_group_soft_threshold, z, beta)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[:, 0, :3]).all() and not np.isnan(got[:, 0, 3:]).any()


_BALL_OF_INFINITE_GROUPS = {  # project_group_ball(infinite_groups(), radius)
    0.0: [[[np.nan, np.nan, np.nan, 0.0, 0.0]],
          [[np.nan, np.nan, 0.0, 0.0, 0.0]]],
    1.0: [[[np.nan, np.nan, np.nan, 3 * 0.2, 0.0]],
          [[np.nan, np.nan, 0.0, 4 * 0.2, 0.0]]],
    np.inf: infinite_groups(),
}


@pytest.mark.parametrize("radius", [0.0, 1.0, np.inf])
def test_project_group_ball_infinite_groups(radius):
    # 0 * inf is NaN: an infinite entry outside the ball comes out NaN and
    # the other entry of its group 0, as before; a NaN group comes out NaN
    # at every finite radius, 0 included, and is kept at radius inf; complex
    # arrays are clamped entry by entry
    got = warning_free(sc.project_group_ball, infinite_groups(), radius)
    assert np.array_equal(got, _BALL_OF_INFINITE_GROUPS[radius], equal_nan=True)
    z = infinite_groups(complex)
    assert np.array_equal(warning_free(sc.project_group_ball, z, radius),
                          warnings_ignored(where_project_ball, z, np.abs(z), radius),
                          equal_nan=True)


def test_project_ball_scales_complex_parts_apart():
    # the real factor 1.0 reaches neither part of an infinite entry as 0 * inf
    z = np.array([complex(np.inf, 0.0), 1 + 1j])
    assert_bits_equal(warning_free(sc.project_group_ball, z, np.inf), z)
    got = warning_free(sc.project_group_ball, np.array([complex(np.inf, 0.0), 3 + 4j]), 1.0)
    assert np.isnan(got[0].real) and got[0].imag == 0.0
    assert got[1] == complex(3 * 0.2, 4 * 0.2)


@pytest.mark.parametrize("radius", [0.0, 1.0])
def test_project_ball_nan_group_at_every_finite_radius(radius):
    # the field group (3, nan) comes out (nan, nan) at radius 0 as at radius 1
    got = warning_free(sc.project_group_ball, np.array([[3.0], [np.nan]]), radius)
    assert np.isnan(got).all()


def test_soft_threshold_rejects_nan_weight():
    with pytest.raises(InputError):
        sc.soft_threshold(np.ones(3), float("nan"))


@st.composite
def inner_product_pairs(draw):
    """Equal-shape operand pairs: real/real, complex/complex and mixed."""
    shape = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 12)),
                           st.tuples(st.integers(1, 5), st.integers(1, 5))))

    def operand():
        if draw(st.booleans()):
            return draw(hnp.arrays(np.float64, shape, elements=_entries))
        return draw(hnp.arrays(np.complex128, shape, elements=_complex_entries))

    return operand(), operand()


@settings(max_examples=400, deadline=None)
@given(inner_product_pairs())
def test_real_inner_bit_identical(pair):
    x, y = pair
    got, want = sc.real_inner(x, y), conj_real_inner(x, y)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_real_inner_accepts_sequences():
    assert sc.real_inner([1.0, 2.0], [3.0, -4.0]) == -5.0
    assert sc.real_inner([1j, 2.0], np.array([1j, 1.0])) == 3.0


_scales = st.one_of(st.just(0.0), _moduli)


def reference_magnitudes(z):
    """The group magnitudes of the module's rule: pair norms of a real array
    of two or more axes with a leading axis of length 2, moduli otherwise."""
    if z.ndim >= 2 and z.shape[0] == 2 and not np.iscomplexobj(z):
        return keepdims_norm(z)[0]
    return np.abs(z)


@settings(max_examples=300, deadline=None)
@given(st.one_of(two_channel_fields(), componentwise_arrays()), _scales, st.data())
def test_prox_functional_value_uses_the_prox_groups(z, scale, data):
    r = reference_magnitudes(z)
    # a scale equal to a group magnitude: the indicator's boundary case
    on_boundary = float(r.ravel()[data.draw(st.integers(0, r.size - 1))])
    for s in (scale, on_boundary):
        ball = sc.ProxFunctional("indicator_norm_ball", s)
        assert (ball.value(z) == 0.0) == np.array_equal(ball.prox(z), z)
        l1 = sc.ProxFunctional("l1", s)
        assert l1.value(z) == s * float(np.sum(np.abs(z)))
        group = sc.ProxFunctional("group_l21", s)
        if r.ndim < z.ndim:
            assert group.value(z) == s * float(np.sum(r))
        else:
            # a field alone has 2-vectors: both refuse anything else
            with pytest.raises(InputError):
                group.value(z)
            with pytest.raises(InputError):
                group.prox(z)



# The group kernels take the square root and the division only on the groups
# that may leave the ball or cross the threshold, when at most one in ten may
# (the selective path), and on the whole field otherwise.  The fields above
# are too small and too spread for that; these are larger and mostly inside.

_SPECIAL_SCALES = (-5e-13, -2e-13, -1e-13, 0.0, 1e-13, 2e-13, 5e-13)


def boundary_groups(w):
    """Groups on the sphere of radius ``w`` (``r == w`` exactly), one ulp
    either side of it, with squared norms within 1e-12 of ``w**2``, holding
    NaN or inf, and zeros of both signs."""
    below, above = np.nextafter(w, 0.0), np.nextafter(w, np.inf)
    groups = [(w, 0.0), (0.0, -w), (-w, -0.0), (below, 0.0), (0.0, -below), (above, 0.0),
              (-0.0, -above), (np.nan, 0.5 * w), (0.25 * w, np.nan), (np.nan, np.nan),
              (np.inf, 0.0), (-np.inf, 0.5 * w), (np.inf, np.nan), (0.0, -0.0), (-0.0, -0.0)]
    for d in _SPECIAL_SCALES:
        groups += [(w * (1.0 + d), 0.0), (0.6 * w * (1.0 + d), -0.8 * w * (1.0 + d))]
    return np.array(groups).T


# bounds whose squares are normal, and ones whose squares are subnormal or
# zero (below about 1.5e-154) or overflow (above about 1.34e154)
_bounds = st.one_of(st.floats(1e-150, 1e150), st.sampled_from([1.0, 0.1, 3.0]),
                    st.sampled_from([1e-160, 1e-155, 2e154, 1e160]))


@st.composite
def mostly_inside_fields(draw):
    """A bound ``w`` and a ``(2, n_y, n_x)`` field of at least 32 x 32 groups,
    of which at most one in ten lies outside the ball of radius ``w``: a
    drawn share of random groups, and ``boundary_groups(w)``.  The others lie
    inside, some of them zero."""
    n_y, n_x = draw(st.integers(32, 40)), draw(st.integers(32, 40))
    w = draw(_bounds)
    share = draw(st.floats(0.0, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = n_y * n_x
    z = rng.standard_normal((2, n))
    z /= np.sqrt(np.sum(z * z, axis=0))
    special = boundary_groups(w)
    outside = max(int(share * n) - special.shape[1], 0)
    where = rng.permutation(n)
    z[:, where[:outside]] *= w * rng.uniform(1.0 + 1e-9, 4.0, outside)
    z[:, where[outside:]] *= w * rng.uniform(0.0, 0.999, n - outside)
    z[:, where[outside:][rng.random(n - outside) < 0.05]] = -0.0
    z[:, where[outside:outside + special.shape[1]]] = special
    return z.reshape(2, n_y, n_x), w


def whole_field(kernel, z, w, **kwargs):
    """``kernel(z, w)`` by the whole-field path: ``z`` is scaled beside as
    many NaN groups again, which may all move, and each group's result
    depends on that group alone."""
    wide = np.concatenate([z, np.full(z.shape, np.nan)], axis=2)
    return kernel(wide, w, **kwargs)[:, :, :z.shape[2]]


_GROUP_KERNELS = [(sc.group_soft_threshold, keepdims_group_soft_threshold),
                  (sc.project_group_ball, keepdims_project_group_ball)]


@settings(max_examples=150, deadline=None)
@given(mostly_inside_fields())
def test_selective_path_bit_identical(case):
    z, w = case
    finite = np.isfinite(z).all(axis=0)
    # squares that overflow warn, as they always did; inf and NaN groups do not
    call = warning_free if w <= 1e150 else warnings_ignored
    for kernel, reference in _GROUP_KERNELS:
        got = call(kernel, z, w)
        assert_bits_equal(got, warnings_ignored(whole_field, kernel, z, w))
        # the old expressions differ only on groups holding inf or NaN
        assert_bits_equal(got[:, finite], warnings_ignored(reference, z, w)[:, finite])
        into = z.copy()
        assert call(kernel, into, w, out=into) is into
        assert_bits_equal(into, got)
        strided = np.full(z.shape[:2] + (2 * z.shape[2],), np.nan)[:, :, ::2]
        call(kernel, z, w, out=strided)
        assert_bits_equal(np.ascontiguousarray(strided), got)
        # casts to float32 may overflow, with a warning
        single = np.full(z.shape, np.nan, dtype=np.float32)
        assert warnings_ignored(kernel, z, w, single) is single
        assert_bits_equal(single, warnings_ignored(got.astype, np.float32))


@pytest.fixture
def selective_calls(monkeypatch):
    """Counts the kernel calls that take the selective path."""
    from sourcecond import functionals

    calls = []
    scale_moving = functionals._scale_moving

    def counted(*args, **kwargs):
        calls.append(args[2].size)  # the groups that may move
        return scale_moving(*args, **kwargs)

    monkeypatch.setattr(functionals, "_scale_moving", counted)
    return calls


def _field_with_outside(n, outside, w=1.0, seed=0):
    """An ``n x n`` field with exactly ``outside`` groups outside radius ``w``."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.5, 0.5, (2, n, n)) * w
    z.reshape(2, -1)[0, rng.permutation(n * n)[:outside]] = 2.0 * w
    return z


@pytest.mark.parametrize("kernel, reference", _GROUP_KERNELS,
                         ids=["group_soft_threshold", "project_group_ball"])
def test_each_path_is_taken(kernel, reference, selective_calls):
    n = 40  # 1600 groups: the selective path for at most 160 that may move
    tenth = _field_with_outside(n, 160)
    cases = [  # (field, bound, out, takes the selective path)
        (_field_with_outside(n, 80), 1.0, None, True),
        (tenth, 1.0, None, True),
        (_field_with_outside(n, 161), 1.0, None, False),
        (tenth, 1.0, tenth.copy(), True),
        (tenth, 1.0, np.empty(tenth.shape, np.float32), True),
        (tenth, 1.0, np.empty((2, n, 2 * n))[:, :, ::2], False),  # not contiguous
        (np.zeros((2, n, n)), 1.0, None, True),
        (tenth, 0.0, None, False),
        (tenth, np.inf, None, False),
        (tenth * 1e-160, 1e-160, None, False),  # the square is 0
        (tenth * 1e-154, 1e-154, None, False),  # the square is subnormal
        (tenth * 1e154, 1e154, None, True),  # the square is normal, the far squares inf
        (tenth * 2e154, 2e154, None, False),  # the square overflows
    ]
    want_calls = []
    for z, w, out, selective in cases:
        before = len(selective_calls)
        got = warnings_ignored(kernel, z, w, out=out)  # squares may overflow
        assert (len(selective_calls) > before) == selective
        if selective:
            want_calls.append(selective_calls[-1])
        assert_bits_equal(np.ascontiguousarray(got, dtype=float) if out is None or
                          out.dtype == float else got,
                          warnings_ignored(reference, z, w).astype(got.dtype))
    assert want_calls == [80, 160, 160, 160, 0, 160]


def test_ball_selective_path_only_for_float64_fields(selective_calls):
    z = _field_with_outside(40, 10)
    for field in (z.astype(np.float32), np.round(8 * z).astype(np.int64)):
        assert_bits_equal(sc.project_group_ball(field, 1.0),
                          keepdims_project_group_ball(field, 1.0))
    complex_grid = z[0] + 1j * z[1]
    assert_bits_equal(sc.project_group_ball(complex_grid, 1.0),
                      where_project_ball(complex_grid, np.abs(complex_grid), 1.0))
    assert selective_calls == []
    sc.project_group_ball(z, 1.0)
    assert selective_calls == [10]


@pytest.mark.parametrize("kernel", [sc.soft_threshold, sc.group_soft_threshold,
                                    sc.project_group_ball])
def test_out_that_cannot_hold_the_result_is_refused(kernel):
    # an integer out would truncate (or, in numpy, fail to cast); a float32
    # out is accepted and rounds the float64 result
    z = _field_with_outside(8, 3)
    for dtype in (np.int64, np.int32, np.bool_):
        out = np.zeros(z.shape, dtype)
        with pytest.raises(InputError, match="cannot hold"):
            kernel(z, 0.5, out=out)
        assert not out.any()
    single = np.empty(z.shape, np.float32)
    assert kernel(z, 0.5, out=single) is single
    assert_bits_equal(single, kernel(z, 0.5).astype(np.float32))
    if kernel is not sc.group_soft_threshold:  # complex input: a real out is refused
        with pytest.raises(InputError, match="cannot hold"):
            kernel(z[0] + 1j * z[1], 0.5, out=np.empty(z.shape[1:]))
