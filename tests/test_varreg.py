import warnings

import numpy as np
import pytest

import sourcecond as sc
from sourcecond.errors import ConfigurationError, InputError, VerificationError
from sourcecond.experiments import shepp_logan
from sourcecond.solvers import _finish
from sourcecond.varreg import _relative_change, norm_ratio


def reference_pdhg(problem, cfg):
    """PDHG with the full complex-FFT data prox for Fourier maps, the
    ``np.where`` ball projection and the stopping metric on every step.
    ``solve_pdhg`` must match it to rounding (Fourier maps) or bit for bit
    (identity and dense maps)."""
    tau, sigma = 1.0 / 8.0, 1.0
    K, A = problem.K, problem.A
    kg = tau * K.adjoint(problem.data)
    if isinstance(K, sc.FourierSamplingMap):
        symbol = 1.0 + tau * K.symmetrized()

        def data_prox(z):
            rhs = np.fft.fft2(z + kg, norm="ortho")
            return np.real(np.fft.ifft2(rhs / symbol, norm="ortho"))
    elif isinstance(K, sc.MatrixMap):
        m = K.matrix
        factor = np.linalg.cholesky(np.eye(m.shape[1]) + tau * (m.T @ m))

        def data_prox(z):
            return np.linalg.solve(factor.T, np.linalg.solve(factor, z + kg))
    else:
        assert isinstance(K, sc.IdentityMap)

        def data_prox(z):
            return (z + kg) / (1.0 + tau)

    def project_ball(z, radius):
        r = np.sqrt(np.sum(z * z, axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(r > radius, radius / np.where(r > 0, r, 1.0), 1.0)
        return z * scale

    u = np.zeros(A.domain_shape)
    q = np.zeros(A.codomain_shape)
    u_bar = u
    history = []
    metric = float("inf")
    for k in range(1, cfg.max_iters + 1):
        q_new = project_ball(q + sigma * A.apply(u_bar), problem.alpha)
        u_new = data_prox(u - tau * A.adjoint(q_new))
        u_bar = 2.0 * u_new - u
        metric = 0.5 * (_relative_change(u_new, u) + _relative_change(q_new, q))
        u, q = u_new, q_new
        if k % cfg.record_every == 0 or k == cfg.max_iters:
            history.append((k, metric))
        if metric < cfg.grad_tol:
            return u, q, _finish(u, q, k, metric, history, "tolerance")
    return u, q, _finish(u, q, cfg.max_iters, metric, history, "max_iters")


class FlatGrad(sc.LinearMap):
    """Gradient acting on flattened 4x4 images."""

    def __init__(self):
        super().__init__((16,), (2, 4, 4), np.sqrt(8.0))
        self.inner = sc.grad2(4, 4)

    def apply(self, x):
        return self.inner.apply(x.reshape(4, 4))

    def adjoint(self, y):
        return self.inner.adjoint(y).ravel()


def dense_problem(rng):
    """A small injective dense forward map with exact data."""
    m = sc.MatrixMap(np.vstack([np.eye(16), 0.3 * rng.standard_normal((4, 16))]))
    u = rng.standard_normal(16)
    return u, sc.VarRegProblem(K=m, data=m.apply(u), alpha=0.05, A=FlatGrad())


def noisy_fourier_problem(shape, mask):
    rng = np.random.default_rng(1)
    fwd = sc.fourier_sampling(mask)
    g = fwd.apply(shepp_logan(*shape) + 0.05 * rng.standard_normal(shape))
    return sc.VarRegProblem(K=fwd, data=g, alpha=0.5, A=sc.grad2(*shape))


def assert_close_solve(got, want):
    """Same iterations and record steps; iterates and metrics equal to rounding."""
    (u, q, rep), (u_ref, q_ref, ref) = got, want
    assert rep.iterations == ref.iterations
    assert rep.termination == ref.termination
    assert [h[0] for h in rep.history] == [h[0] for h in ref.history]
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
    assert np.linalg.norm(q - q_ref) <= 1e-12 * np.linalg.norm(q_ref)
    np.testing.assert_allclose([h[1] for h in rep.history], [h[1] for h in ref.history],
                               rtol=1e-10, atol=0.0)
    assert rep.final_grad_norm == pytest.approx(ref.final_grad_norm, rel=1e-10, abs=0.0)


class TestErrorEstimate:
    def test_basic_values(self):
        est = sc.error_estimate(np.array([2.0, 0.0]), 0.5)
        assert est.v_norm == 2.0
        assert est.alpha_star == 0.25
        assert est.bound == 1.0

    def test_noiseless_limit(self):
        est = sc.error_estimate(np.array([3.0]), 0.0)
        assert est.alpha_star == 0.0 and est.bound == 0.0

    def test_identities_exact(self, rng):
        for _ in range(50):
            v = rng.standard_normal(7)
            delta = float(abs(rng.standard_normal()))
            est = sc.error_estimate(v, delta)
            assert est.bound == est.v_norm * est.delta
            assert est.alpha_star * est.v_norm == est.delta
            assert est.alpha_star == delta / est.v_norm

    def test_zero_certificate_rejected(self):
        with pytest.raises(InputError):
            sc.error_estimate(np.zeros(4), 0.1)

    def test_negative_delta_rejected(self):
        with pytest.raises(InputError):
            sc.error_estimate(np.ones(4), -0.1)


class TestBregmanDistanceTv:
    def test_zero_at_equal_arguments(self, rng):
        u = rng.standard_normal((6, 6))
        q = np.zeros((2, 6, 6))
        assert sc.bregman_distance_tv(u, u, q) == 0.0

    def test_constant_reference_gives_tv(self, rng):
        u = rng.standard_normal((6, 6))
        w = np.full((6, 6), 0.3)
        got = sc.bregman_distance_tv(u, w, np.zeros((2, 6, 6)))
        assert got == pytest.approx(sc.tv_value(u), rel=1e-12)

    def test_nonnegative_for_verified_subgradient(self, denoise_cert, rng):
        u = denoise_cert["u"]
        q = denoise_cert["report"].q
        for _ in range(5):
            other = u + 0.1 * rng.standard_normal(u.shape)
            assert sc.bregman_distance_tv(other, u, q) >= 0.0

    def test_bogus_subgradient_raises(self):
        u = np.zeros((5, 5))
        w = np.zeros((5, 5))
        w[2, 2] = 1.0
        q = np.zeros((2, 5, 5))
        q[:, 2, 2] = (5.0, 5.0)  # way outside the dual ball
        with pytest.raises(VerificationError):
            sc.bregman_distance_tv(u, w, q)


class TestVarRegProblem:
    def test_validation(self):
        k = sc.IdentityMap((4, 4))
        a = sc.grad2(4, 4)
        with pytest.raises(ConfigurationError):
            sc.VarRegProblem(K=k, data=np.zeros((4, 4)), alpha=0.0, A=a)
        with pytest.raises(InputError):
            sc.VarRegProblem(K=k, data=np.zeros((3, 3)), alpha=1.0, A=a)

    def test_rejects_nan_alpha(self):
        # PDHG would skip the ball projection and end unprojected at its budget
        with pytest.raises(ConfigurationError):
            sc.VarRegProblem(K=sc.IdentityMap((4, 4)), data=np.zeros((4, 4)),
                             alpha=float("nan"), A=sc.grad2(4, 4))


class TestRelativeChange:
    def test_plain_norms_below_overflow(self, rng):
        new, old = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
        assert _relative_change(new, old) == \
            float(np.linalg.norm(new - old)) / float(np.linalg.norm(new))

    def test_finite_iterates_past_norm_overflow(self):
        # the squares of 1e200 overflow; the scaled norms do not
        new, old = np.full((3, 3), 1e200), np.full((3, 3), 0.5e200)
        assert _relative_change(new, old) == pytest.approx(0.5, rel=1e-15)
        assert _relative_change(new, old, np.empty((3, 3))) == pytest.approx(0.5, rel=1e-15)

    def test_norms_overflowing_on_one_side_only(self):
        # u_true-sized errors beside 1e200-sized ones: a common scale would
        # flush the small norm to zero, a scale per norm keeps both
        x, y = np.full((3, 3), 4e200), np.full((3, 3), 2.0)
        assert norm_ratio(x, y) == pytest.approx(2e200, rel=1e-15)
        assert norm_ratio(y, x) == pytest.approx(0.5e-200, rel=1e-15)
        assert norm_ratio(np.zeros(2), np.zeros(2)) == 0.0
        assert norm_ratio(np.ones(2), np.zeros(2)) == float("inf")

    def test_norms_past_the_float_range(self):
        # both norms overflow, or only one does: each array is scaled by its
        # own peak, so the ratio is kept and no norm flushes to zero
        x = np.full(4, 1e308)
        assert norm_ratio(x, np.full(4, 0.5e308)) == 2.0
        assert norm_ratio(np.full(4, 0.5e308), x) == 0.5
        assert norm_ratio(x, np.full(4, 1.0)) == 1e308
        assert norm_ratio(np.full(4, 1.0), x) == 1e-308
        assert norm_ratio(np.array([np.inf, 1.0]), np.full(2, 1e308)) == float("inf")
        assert norm_ratio(np.zeros(4), x) == 0.0

    def test_overflowing_difference_is_an_infinite_change(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _relative_change(np.full(4, 1e308), np.full(4, -1e308)) == float("inf")
            assert _relative_change(np.full(4, 1e308), np.full(4, -1e308),
                                    np.empty(4)) == float("inf")

    def test_non_finite_iterates_stay_non_finite(self):
        assert np.isnan(_relative_change(np.array([np.inf, 1.0]), np.zeros(2)))
        assert np.isnan(_relative_change(np.array([np.nan, 1.0]), np.zeros(2)))


class TestSolvePdhg:
    def test_constant_image_with_dc_sampling(self):
        mask = sc.lowpass_mask((16, 16), 3)
        k = sc.fourier_sampling(mask)
        u_c = np.full((16, 16), 0.7)
        g = k.apply(u_c)
        prob = sc.VarRegProblem(K=k, data=g, alpha=0.3, A=sc.grad2(16, 16))
        sol, dual, rep = sc.solve_pdhg(prob, sc.SolveConfig(max_iters=3000, record_every=500))
        assert np.linalg.norm(sol - u_c) / np.linalg.norm(u_c) <= 1e-6

    def test_roundtrip_recovers_denoising_truth(self, denoise_cert):
        u = denoise_cert["u"]
        fwd = denoise_cert["fwd"]
        v = denoise_cert["report"].v
        for alpha in (0.1, 0.5, 1.0):
            g = sc.range_data(u, fwd, v, alpha)
            prob = sc.VarRegProblem(K=fwd, data=g, alpha=alpha, A=denoise_cert["grad_op"])
            sol, _, _ = sc.solve_pdhg(prob, sc.SolveConfig(max_iters=1500, record_every=500))
            assert np.linalg.norm(sol - u) / np.linalg.norm(u) <= 1e-3

    def test_final_objective_not_worse_than_probes(self, rng):
        u = shepp_logan(32)
        fwd = sc.IdentityMap(u.shape)
        a = sc.grad2(32, 32)
        alpha = 0.4
        g = u + 0.05 * rng.standard_normal(u.shape)
        prob = sc.VarRegProblem(K=fwd, data=g, alpha=alpha, A=a)
        sol, _, _ = sc.solve_pdhg(prob, sc.SolveConfig(max_iters=1500, record_every=500))

        def objective(x):
            return 0.5 * np.sum((x - g) ** 2) + alpha * sc.tv_value(x)

        assert objective(sol) <= objective(np.zeros_like(g))
        for _ in range(3):
            assert objective(sol) <= objective(u + 0.01 * rng.standard_normal(u.shape))

    def test_step_size_guard(self):
        # tau * sigma = 1/8 fits ||A|| <= sqrt(8); this A has norm bound 3
        prob = sc.VarRegProblem(K=sc.IdentityMap((4,)), data=np.zeros(4), alpha=1.0,
                                A=sc.MatrixMap(3.0 * np.eye(4)))
        with pytest.raises(ConfigurationError):
            sc.solve_pdhg(prob, sc.SolveConfig(max_iters=5))

    def test_bound_without_a_finite_square_refused(self):
        # 2e154 ** 2 passes the float range; the check refuses it instead
        # of letting Python's OverflowError out
        class Huge(sc.LinearMap):
            apply = adjoint = staticmethod(np.copy)

        prob = sc.VarRegProblem(K=sc.IdentityMap((4, 4)), data=np.zeros((4, 4)), alpha=1.0,
                                A=Huge((4, 4), (4, 4), 2e154))
        with pytest.raises(ConfigurationError, match="no finite square"):
            sc.solve_pdhg(prob, sc.SolveConfig(max_iters=5))

    def test_dense_forward_map(self, rng):
        # small dense forward map goes through the normal-equations prox
        u, prob = dense_problem(rng)
        sol, _, rep = sc.solve_pdhg(prob, sc.SolveConfig(max_iters=4000, record_every=1000))
        # alpha small and K injective: solution close to the least-squares truth
        assert np.linalg.norm(sol - u) / np.linalg.norm(u) < 0.1

    def test_tolerance_termination(self, denoise_cert):
        u = denoise_cert["u"]
        g = sc.range_data(u, denoise_cert["fwd"], denoise_cert["report"].v, 0.5)
        prob = sc.VarRegProblem(K=denoise_cert["fwd"], data=g, alpha=0.5,
                                A=denoise_cert["grad_op"])
        sol, dual, rep = sc.solve_pdhg(prob, sc.SolveConfig(max_iters=5000, grad_tol=1e-6,
                                                            record_every=100))
        assert rep.termination == "tolerance"
        assert rep.final_grad_norm < 1e-6
        assert rep.history[-1][1] == rep.final_grad_norm


    def test_forward_map_without_resolvent_refused(self):
        # sampling alone has no closed-form (I + tau K*K)^-1 behind it
        mask = sc.lowpass_mask((8, 8), 3)
        prob = sc.VarRegProblem(K=sc.sampling(mask), data=np.zeros((8, 8), dtype=complex),
                                alpha=1.0, A=sc.grad2(8, 8))
        with pytest.raises(ConfigurationError, match="SamplingMap"):
            sc.solve_pdhg(prob, sc.SolveConfig(max_iters=5))


class TestPdhgMatchesReference:
    def test_full_mask_data_prox_runs_no_transform(self, monkeypatch):
        # K*K = I: the prox is (z + tau K*g) / (1 + tau), so the one
        # transform of the solve is the ifft2 that forms K*g
        prob = noisy_fourier_problem((16, 17), sc.full_mask((16, 17)))
        calls = []
        for name in ("fft2", "ifft2", "rfft2", "irfft2", "fft", "ifft", "rfft", "irfft"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        _, _, rep = sc.solve_pdhg(prob, sc.SolveConfig(max_iters=20))
        assert rep.iterations == 20 and calls == ["ifft2"]

    def test_full_mask(self):
        prob = noisy_fourier_problem((64, 64), sc.full_mask((64, 64)))
        cfg = sc.SolveConfig(max_iters=400, record_every=50)
        assert_close_solve(sc.solve_pdhg(prob, cfg), reference_pdhg(prob, cfg))

    def test_odd_width_asymmetric_lowpass(self):
        # odd n_x exercises irfft2(s=...); the even-width band is not
        # symmetric, so the symbol differs from the mask
        prob = noisy_fourier_problem((48, 47), sc.lowpass_mask((48, 47), 20, 13))
        cfg = sc.SolveConfig(max_iters=400, record_every=7)
        assert_close_solve(sc.solve_pdhg(prob, cfg), reference_pdhg(prob, cfg))

    def test_stops_by_tolerance_at_same_iteration(self):
        # the metric crosses 1e-4 at step 665 (9.993e-5, after 1.0016e-4),
        # far from rounding
        prob = noisy_fourier_problem((64, 64), sc.full_mask((64, 64)))
        cfg = sc.SolveConfig(max_iters=5000, grad_tol=1e-4, record_every=100)
        got = sc.solve_pdhg(prob, cfg)
        assert got[2].termination == "tolerance" and got[2].iterations == 665
        assert_close_solve(got, reference_pdhg(prob, cfg))

    def test_dense_map_bit_identical(self, rng):
        # the Cholesky solve is the reference's, step for step
        _, prob = dense_problem(rng)
        cfg = sc.SolveConfig(max_iters=300, record_every=7)
        u, q, rep = sc.solve_pdhg(prob, cfg)
        u_ref, q_ref, ref = reference_pdhg(prob, cfg)
        assert np.array_equal(u, u_ref) and np.array_equal(q, q_ref)
        assert rep.history == ref.history

    @pytest.mark.parametrize("shape", [(32, 32), (17, 23)], ids=["32x32", "17x23"])
    def test_identity_map_bit_identical(self, rng, shape):
        # only the on-demand metric and the ball projection differ here, and
        # both are exact: record steps read a fresh metric
        u0 = shepp_logan(*shape)
        prob = sc.VarRegProblem(K=sc.IdentityMap(u0.shape),
                                data=u0 + 0.05 * rng.standard_normal(u0.shape),
                                alpha=0.3, A=sc.grad2(*shape))
        for cfg in (sc.SolveConfig(max_iters=300, record_every=7),
                    sc.SolveConfig(max_iters=5000, grad_tol=1e-5, record_every=11)):
            u, q, rep = sc.solve_pdhg(prob, cfg)
            u_ref, q_ref, ref = reference_pdhg(prob, cfg)
            assert np.array_equal(u, u_ref) and np.array_equal(q, q_ref)
            assert rep.history == ref.history
            assert (rep.iterations, rep.termination, rep.final_grad_norm) == \
                (ref.iterations, ref.termination, ref.final_grad_norm)


class TestPdhgStopTest:
    """At a non-record step PDHG takes the relative change of ``q`` only
    when that of ``u`` leaves the mean at most twice the tolerance.  The
    solves stay those of the reference, which takes both on every step:
    bit for bit for the identity map, to rounding for Fourier maps, and byte
    for byte those of the same solver taking both halves."""

    @staticmethod
    def _problem(kind):
        if kind == "identity":
            rng = np.random.default_rng(12345)
            u0 = shepp_logan(17, 23)
            return sc.VarRegProblem(K=sc.IdentityMap(u0.shape),
                                    data=u0 + 0.05 * rng.standard_normal(u0.shape),
                                    alpha=0.3, A=sc.grad2(17, 23))
        if kind == "full-mask":
            return noisy_fourier_problem((32, 32), sc.full_mask((32, 32)))
        return noisy_fourier_problem((48, 47), sc.lowpass_mask((48, 47), 20, 13))

    @pytest.mark.parametrize("kind", ["identity", "full-mask", "odd-lowpass"])
    @pytest.mark.parametrize("tol, max_iters, stops", [(0.01, 1000, True), (1e-7, 300, False)],
                             ids=["stops", "runs-out"])
    def test_same_solve_as_full_metric(self, kind, tol, max_iters, stops, metric_halves):
        prob = self._problem(kind)
        cfg = sc.SolveConfig(max_iters=max_iters, grad_tol=tol, record_every=50)
        metric_halves["full"] = True
        u_full, q_full, full = sc.solve_pdhg(prob, cfg)
        metric_halves.update(full=False, metrics=0, second=0)
        u, q, rep = sc.solve_pdhg(prob, cfg)
        assert u.tobytes() == u_full.tobytes() and q.tobytes() == q_full.tobytes()
        assert rep.history == full.history
        assert (rep.iterations, rep.termination, rep.final_grad_norm) == \
            (full.iterations, full.termination, full.final_grad_norm)
        assert (rep.termination == "tolerance") == stops
        assert rep.iterations < max_iters if stops else rep.iterations == max_iters
        # the change is first taken after one step; the skip is taken on some
        assert metric_halves["metrics"] == rep.iterations
        assert metric_halves["second"] < metric_halves["metrics"]

        u_ref, q_ref, ref = reference_pdhg(prob, cfg)
        if kind == "identity":
            assert np.array_equal(u, u_ref) and np.array_equal(q, q_ref)
            assert rep.history == ref.history
            assert (rep.iterations, rep.termination, rep.final_grad_norm) == \
                (ref.iterations, ref.termination, ref.final_grad_norm)
        else:
            assert_close_solve((u, q, rep), (u_ref, q_ref, ref))
