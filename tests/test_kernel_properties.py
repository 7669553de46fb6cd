"""Property tests: the channel-view TV prox kernels equal, bit for bit, the
``sum(z * z, axis=-1, keepdims=True)`` expressions they replace, and the ball
projection ``z * (radius / max(r, radius))`` equals the ``np.where`` form it
replaces.

The one input where the kernels differ is a group holding NaN: the old
expressions kept the other channel of a two-channel group (shrinkage made it
0, the projection left it as it was), the new ones make it NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sourcecond as sc
from sourcecond.errors import InputError


def keepdims_norm(z):
    return np.sqrt(np.sum(z * z, axis=-1, keepdims=True))


def keepdims_group_soft_threshold(z, beta):
    r = keepdims_norm(z)
    factor = np.where(r > 0, np.maximum(r - beta, 0.0) / np.where(r > 0, r, 1.0), 0.0)
    return z * factor


def where_project_ball(z, r, radius):
    # radius / r overflows for subnormal r; np.where discards those entries
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(r > radius, radius / np.where(r > 0, r, 1.0), 1.0)
    return z * scale


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
    """(n_y, n_x, 2) fields in which some 2-vectors are exactly zero and some
    have one zero channel."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    z = draw(hnp.arrays(np.float64, shape + (2,), elements=_entries))
    zeros = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3)))
    z[zeros == 1] = 0.0
    z[zeros == 2, 0] = 0.0
    z[zeros == 3, 1] = 0.0
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
    for z in (np.zeros((1, 1, 2)), np.zeros((3, 4, 2)), np.array([[[0.0, -2.0]]])):
        for w in (0.0, 1.0, 2.0):
            assert_bits_equal(sc.group_soft_threshold(z, w), keepdims_group_soft_threshold(z, w))
            assert_bits_equal(sc.project_group_ball(z, w), keepdims_project_group_ball(z, w))


@pytest.mark.parametrize("shape", [(), (3,), (4, 4, 1), (4, 4, 3), (2, 0)])
def test_group_soft_threshold_rejects_other_trailing_lengths(shape):
    with pytest.raises(InputError):
        sc.group_soft_threshold(np.ones(shape), 1.0)


_moduli = st.floats(min_value=0.0, max_value=1e150)


@st.composite
def componentwise_arrays(draw):
    """1-D real arrays and complex grids (whose trailing axis may be 2): the
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
    z = np.array([[[np.nan, 0.5], [3.0, 4.0]]])
    got, old = sc.project_group_ball(z, 1.0), keepdims_project_group_ball(z, 1.0)
    assert np.isnan(got[0, 0]).all()
    assert np.isnan(old[0, 0, 0]) and old[0, 0, 1] == 0.5
    assert_bits_equal(got[0, 1], old[0, 1])
