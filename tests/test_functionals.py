import math

import numpy as np
import pytest

import sourcecond as sc
from sourcecond.errors import InputError


def brute_force_prox_1d(z, beta, lo=-6.0, hi=6.0, step=1e-4):
    grid = np.arange(lo, hi + step / 2, step)
    obj = 0.5 * (grid - z) ** 2 + beta * np.abs(grid)
    return grid[np.argmin(obj)]


def brute_force_prox_2d(z, beta, step=1e-4):
    # coarse pass over a box, fine pass around the coarse winner
    coarse = np.arange(-4.0, 4.0 + 1e-9, 0.01)
    gx, gy = np.meshgrid(coarse, coarse)
    obj = 0.5 * ((gx - z[0]) ** 2 + (gy - z[1]) ** 2) + beta * np.hypot(gx, gy)
    i = np.unravel_index(np.argmin(obj), obj.shape)
    cx, cy = gx[i], gy[i]
    fine_x = np.arange(cx - 0.02, cx + 0.02 + 1e-9, step)
    fine_y = np.arange(cy - 0.02, cy + 0.02 + 1e-9, step)
    gx, gy = np.meshgrid(fine_x, fine_y)
    obj = 0.5 * ((gx - z[0]) ** 2 + (gy - z[1]) ** 2) + beta * np.hypot(gx, gy)
    i = np.unravel_index(np.argmin(obj), obj.shape)
    return np.array([gx[i], gy[i]])


class TestSoftThreshold:
    def test_basic_values(self):
        assert sc.soft_threshold(np.array(2.0), 1.0) == 1.0
        assert sc.soft_threshold(np.array(0.5), 1.0) == 0.0

    def test_negative_matches_brute_force(self):
        got = float(sc.soft_threshold(np.array(-3.0), 1.0))
        assert got == -2.0
        assert abs(got - brute_force_prox_1d(-3.0, 1.0)) < 1e-3

    def test_zero_weight_is_identity(self, rng):
        z = rng.standard_normal(20)
        assert np.array_equal(sc.soft_threshold(z, 0.0), z)

    def test_complex_modulus_shrinkage(self):
        z = np.array(3.0 + 4.0j)
        out = sc.soft_threshold(z, 1.0)
        # modulus 5 shrinks to 4, phase kept
        assert abs(out - (3.0 + 4.0j) * 4 / 5) < 1e-14
        assert sc.soft_threshold(np.array(0.0j), 1.0) == 0.0

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError):
            sc.soft_threshold(np.array(1.0), -0.5)


class TestGroupSoftThreshold:
    def test_three_four_five(self):
        z = np.zeros((2, 1, 1))
        z[:, 0, 0] = (3.0, 4.0)
        out = sc.group_soft_threshold(z, 1.0)
        assert np.allclose(out[:, 0, 0], (2.4, 3.2))

    def test_zero_vector_stays_zero(self):
        z = np.zeros((2, 2, 2))
        assert not np.any(sc.group_soft_threshold(z, 1.0))

    def test_inside_ball_matches_brute_force(self, rng):
        z = rng.uniform(-1, 1, 2)
        z *= 0.3 / np.linalg.norm(z)
        got = sc.group_soft_threshold(z.reshape(2, 1, 1), 1.0).ravel()
        assert not np.any(got)
        assert np.linalg.norm(brute_force_prox_2d(z, 1.0) - got) < 1e-3

    def test_reduces_to_scalar_soft_threshold(self, rng):
        z = np.zeros((2, 5, 5))
        z[0] = rng.standard_normal((5, 5))
        out = sc.group_soft_threshold(z, 0.7)
        assert not np.any(out[1])
        assert np.allclose(out[0], sc.soft_threshold(z[0], 0.7))

    def test_rejects_nan_weight(self):
        with pytest.raises(InputError):
            sc.group_soft_threshold(np.ones((2, 2, 2)), float("nan"))


class TestProjectGroupBall:
    def test_rejects_nan_radius(self):
        # a NaN radius would keep every group as it is
        with pytest.raises(InputError):
            sc.project_group_ball(np.full((2, 2, 2), 5.0), float("nan"))


class TestTvValue:
    def test_constant_is_zero(self):
        assert sc.tv_value(np.full((4, 7), 2.5)) == 0.0

    def test_single_cell(self):
        assert sc.tv_value(np.array([[0.0, 1.0], [2.0, 3.0]])) == pytest.approx(np.sqrt(5.0))

    def test_matches_gradient_norm(self, rng):
        u = rng.standard_normal((8, 8))
        g = sc.grad2(8, 8).apply(u)
        expected = np.sum(np.sqrt(np.sum(g * g, axis=0)))
        assert sc.tv_value(u) == pytest.approx(expected, rel=1e-12)


class TestProxFunctional:
    @pytest.mark.parametrize("kind,shape", [
        ("l1", (30,)),
        ("group_l21", (2, 6, 6)),
        ("indicator_norm_ball", (2, 6, 6)),
    ])
    def test_nonexpansive_on_random_pairs(self, kind, shape, rng):
        f = sc.ProxFunctional(kind, 1.0)
        for _ in range(100):
            x = rng.standard_normal(shape)
            y = rng.standard_normal(shape)
            assert (np.linalg.norm(f.prox(x) - f.prox(y))
                    <= np.linalg.norm(x - y) * (1 + 1e-12))

    def test_value_nonnegative_and_prox_of_zero(self, rng):
        for kind, shape in (("l1", (9,)), ("group_l21", (2, 3, 3))):
            f = sc.ProxFunctional(kind, 0.8)
            assert f.value(rng.standard_normal(shape)) >= 0.0
            assert not np.any(f.prox(np.zeros(shape)))

    def test_moreau_identity(self, rng):
        beta = 0.7
        z = rng.standard_normal(40)
        recon = sc.soft_threshold(z, beta) + beta * sc.project_group_ball(z / beta, 1.0)
        assert np.max(np.abs(recon - z)) < 1e-10

    def test_indicator_value(self):
        f = sc.ProxFunctional("indicator_norm_ball", 1.0)
        inside = np.zeros((2, 2, 2))
        inside[:, 0, 0] = (0.3, 0.4)
        assert f.value(inside) == 0.0
        inside[:, 0, 0] = (3.0, 4.0)
        assert f.value(inside) == np.inf
        # each entry lies in [-1, 1], the 2-vector does not
        inside[:, 0, 0] = (0.8, 0.8)
        assert f.value(inside) == np.inf

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            sc.ProxFunctional("tv")

    @pytest.mark.parametrize("kind", sc.ProxFunctional.KINDS)
    def test_rejects_nan_scale(self, kind):
        with pytest.raises(InputError):
            sc.ProxFunctional(kind, float("nan"))


class TestVerifyL1Subgradient:
    def test_passes_on_valid_pair(self):
        chk = sc.verify_l1_subgradient(np.array([1.0, 0.3]), np.array([2.0, 0.0]))
        assert chk.passed and chk.support_mismatch == 0.0

    def test_fails_on_support_mismatch(self):
        chk = sc.verify_l1_subgradient(np.array([0.5, 0.0]), np.array([2.0, 0.0]))
        assert not chk.passed
        assert chk.support_mismatch == pytest.approx(0.5)

    def test_fails_off_support_violation(self):
        chk = sc.verify_l1_subgradient(np.array([1.0, 1.2]), np.array([2.0, 0.0]))
        assert not chk.passed
        assert chk.max_group_norm == pytest.approx(1.2)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            sc.verify_l1_subgradient(np.zeros(3), np.zeros(4))

    def test_passed_is_python_bool(self):
        chk = sc.verify_l1_subgradient(np.array([1.0, 0.3]), np.array([2.0, 0.0]),
                                       np.float64(1e-6))
        assert type(chk.passed) is bool


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, True, "1e-6", 10 ** 400],
                         ids=["inf", "nan", "negative", "bool", "str", "int-beyond-float"])
def test_verify_refuses_a_tol_that_is_no_finite_nonnegative_number(tol):
    # an infinite tol would pass any candidate, and a NaN one fail every one
    with pytest.raises(InputError, match="tol must be"):
        sc.verify_l1_subgradient(np.array([5.0, -7.0]), np.array([1.0, 0.0]), tol)
    with pytest.raises(InputError, match="tol must be"):
        sc.verify_tv_subgradient(np.zeros((5, 5)), np.zeros((2, 5, 5)), np.ones((5, 5)), tol)


class TestVerifyTvSubgradient:
    def test_trivial_zero_certificate(self):
        u = np.full((5, 5), 1.0)
        chk = sc.verify_tv_subgradient(np.zeros((5, 5)), np.zeros((2, 5, 5)), u)
        assert chk.passed

    def test_ball_violation_reported(self):
        u = np.full((5, 5), 1.0)
        q = np.zeros((2, 5, 5))
        q[:, 1, 1] = (1.2, 0.0)
        chk = sc.verify_tv_subgradient(sc.grad2(5, 5).adjoint(q), q, u)
        assert not chk.passed
        assert chk.max_group_norm == pytest.approx(1.2)

    def test_divergence_residual_reported(self):
        u = np.full((5, 5), 1.0)
        v = np.zeros((5, 5))
        v[2, 2] = 1.0
        chk = sc.verify_tv_subgradient(v, np.zeros((2, 5, 5)), u)
        assert not chk.passed
        assert chk.residual == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(5, 5, 3), (5,)])
    def test_image_that_is_not_2d(self, shape):
        # a color map read as u: refused, not passed on to the gradient
        with pytest.raises(InputError, match="2-D image u"):
            sc.verify_tv_subgradient(np.zeros((5, 5)), np.zeros((2, 5, 5)), np.ones(shape))

    def test_passed_is_python_bool(self):
        u = np.full((5, 5), 1.0)
        chk = sc.verify_tv_subgradient(np.zeros((5, 5)), np.zeros((2, 5, 5)), u,
                                       np.float64(1e-6))
        assert type(chk.passed) is bool
