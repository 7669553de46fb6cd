import numpy as np
import pytest

import sourcecond as sc
from sourcecond.errors import ConfigurationError, InputError, VerificationError
from sourcecond.experiments import shepp_logan
from sourcecond.functionals import _pair_norm
from sourcecond.solvers import _finish
from sourcecond.varreg import _data_prox_factory, _relative_change


def reference_pdhg(problem, cfg):
    """PDHG with the full complex-FFT data prox for Fourier maps, the
    ``np.where`` ball projection and the stopping metric on every step.
    ``solve_pdhg`` must match it to rounding (Fourier maps) or bit for bit
    (other maps)."""
    tau = cfg.tau if cfg.tau is not None else 1.0 / 8.0
    sigma = cfg.sigma if cfg.sigma is not None else 1.0
    K, A = problem.K, problem.A
    if isinstance(K, sc.FourierSamplingMap):
        symbol = 1.0 + tau * K.symmetrized()
        kg = tau * K.adjoint(problem.data)

        def data_prox(z):
            rhs = np.fft.fft2(z + kg, norm="ortho")
            return np.real(np.fft.ifft2(rhs / symbol, norm="ortho"))
    else:
        data_prox = _data_prox_factory(problem, tau)

    def project_ball(z, radius):
        r = _pair_norm(z)[..., None]
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
        q = np.zeros((5, 5, 2))
        assert sc.bregman_distance_tv(u, u, q) == 0.0

    def test_constant_reference_gives_tv(self, rng):
        u = rng.standard_normal((6, 6))
        w = np.full((6, 6), 0.3)
        got = sc.bregman_distance_tv(u, w, np.zeros((5, 5, 2)))
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
        q = np.zeros((4, 4, 2))
        q[2, 2] = (5.0, 5.0)  # way outside the dual ball
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
        u = np.zeros((8, 8))
        prob = sc.VarRegProblem(K=sc.IdentityMap(u.shape), data=u, alpha=1.0,
                                A=sc.grad2(8, 8))
        with pytest.raises(ConfigurationError):
            sc.solve_pdhg(prob, sc.SolveConfig(max_iters=5, tau=0.5, sigma=1.0))

    def test_dense_forward_map(self, rng):
        # small dense forward map goes through the normal-equations prox
        m = sc.MatrixMap(np.vstack([np.eye(16), 0.3 * rng.standard_normal((4, 16))]))

        class FlatGrad(sc.LinearMap):
            """Gradient acting on flattened 4x4 images."""

            def __init__(self):
                super().__init__((16,), (3, 3, 2), np.sqrt(8.0))
                self.inner = sc.grad2(4, 4)

            def apply(self, x):
                return self.inner.apply(x.reshape(4, 4))

            def adjoint(self, y):
                return self.inner.adjoint(y).ravel()

        u = rng.standard_normal(16)
        g = m.apply(u)
        prob = sc.VarRegProblem(K=m, data=g, alpha=0.05, A=FlatGrad())
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


class TestPdhgMatchesReference:
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

    def test_identity_map_bit_identical(self, rng):
        # only the on-demand metric and the ball projection differ here, and
        # both are exact: record steps read a fresh metric
        u0 = shepp_logan(32)
        prob = sc.VarRegProblem(K=sc.IdentityMap(u0.shape),
                                data=u0 + 0.05 * rng.standard_normal(u0.shape),
                                alpha=0.3, A=sc.grad2(32, 32))
        for cfg in (sc.SolveConfig(max_iters=300, record_every=7),
                    sc.SolveConfig(max_iters=5000, grad_tol=1e-5, record_every=11)):
            u, q, rep = sc.solve_pdhg(prob, cfg)
            u_ref, q_ref, ref = reference_pdhg(prob, cfg)
            assert np.array_equal(u, u_ref) and np.array_equal(q, q_ref)
            assert rep.history == ref.history
            assert (rep.iterations, rep.termination, rep.final_grad_norm) == \
                (ref.iterations, ref.termination, ref.final_grad_norm)
