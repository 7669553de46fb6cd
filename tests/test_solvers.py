import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sourcecond as sc
from sourcecond import solvers
from sourcecond.errors import ConfigurationError, InputError
from sourcecond.solvers import _finish, _iterate


def _range_cd_metric(v, q, a_field, fwd, grad_op, prox_h):
    """Mean of the two partial-derivative norms of the range-condition objective."""
    d = fwd.adjoint(v) - grad_op.adjoint(q)
    r_v = float(np.linalg.norm(fwd.apply(d)))
    r_q = float(np.linalg.norm(-grad_op.apply(d) + prox_h.prox(a_field + q) - a_field))
    return 0.5 * (r_v + r_q)


def reference_range_cd(u_true, fwd, grad_op, prox_h, cfg):
    """Range-condition coordinate descent that evaluates the stopping metric
    apart from the step: five FFTs, two group proxes, two gradients and two
    divergences an iteration.  ``solve_range_cd`` must match it bit for bit
    for the identity forward map and to rounding for Fourier sampling, whose
    normal operator runs on the half spectrum, or not at all for a full
    mask."""
    lam_k = fwd.norm_bound ** 2
    tau = 1.0 / lam_k if lam_k > 0 else 1.0
    sigma = 1.0 / (grad_op.norm_bound ** 2 + 1.0)
    a_field = grad_op.apply(u_true)
    dtype = complex if fwd.codomain_complex else float
    v = np.zeros(fwd.codomain_shape, dtype=dtype)
    q = np.zeros(grad_op.codomain_shape)
    history = []

    metric = _range_cd_metric(v, q, a_field, fwd, grad_op, prox_h)
    history.append((0, metric))
    if metric <= cfg.grad_tol:
        return _finish(v, q, 0, metric, history, "tolerance")

    for k in range(1, cfg.max_iters + 1):
        aq = grad_op.adjoint(q)
        v = v - tau * fwd.apply(fwd.adjoint(v) - aq)
        kv = fwd.adjoint(v)
        q = q - sigma * (grad_op.apply(aq - kv) + prox_h.prox(a_field + q) - a_field)

        metric = _range_cd_metric(v, q, a_field, fwd, grad_op, prox_h)
        if k % cfg.record_every == 0 or k == cfg.max_iters:
            history.append((k, metric))
        if metric <= cfg.grad_tol:
            return _finish(v, q, k, metric, history, "tolerance")

    return _finish(v, q, cfg.max_iters, metric, history, "max_iters")


def reference_source_gd(u_true, fwd, prox, cfg):
    """Accelerated descent with the one-norm prox and the real inner product
    written out as ``np.where`` shrinkage and ``sum(x * conj(y))``, and the
    gradient's shapes checked on every step.  ``solve_source_gd`` with an
    ``l1`` prox must match it bit for bit."""
    assert prox.kind == "l1"
    lam = fwd.norm_bound ** 2
    tau = 1.0 / lam if lam > 0 else 1.0

    def gradient(point):
        assert np.shape(point) == fwd.codomain_shape
        assert np.shape(u_true) == fwd.domain_shape
        z = np.asarray(u_true + fwd.adjoint(point))
        mag = np.abs(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(mag > 0, np.maximum(mag - prox.scale, 0.0)
                              / np.where(mag > 0, mag, 1.0), 0.0)
        return fwd.apply(z * factor - u_true)

    dtype = complex if fwd.codomain_complex else float
    v = np.zeros(fwd.codomain_shape, dtype=dtype)
    y = v
    t = 1.0
    gnorm = float(np.linalg.norm(gradient(v)))
    history = [(0, gnorm)]
    if gnorm <= cfg.grad_tol:
        return _finish(v, None, 0, gnorm, history, "tolerance")

    for k in range(1, cfg.max_iters + 1):
        g = gradient(y)
        v_next = y - tau * g
        step = v_next - v
        if float(np.real(np.sum(np.asarray(g) * np.conj(step)))) > 0:
            t = 1.0
            y = v_next
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = v_next + ((t - 1.0) / t_next) * step
            t = t_next
        v = v_next

        if k % cfg.record_every == 0 or k == cfg.max_iters:
            gnorm = float(np.linalg.norm(gradient(v)))
            history.append((k, gnorm))
            if gnorm <= cfg.grad_tol:
                return _finish(v, None, k, gnorm, history, "tolerance")

    return _finish(v, None, cfg.max_iters, gnorm, history, "max_iters")


def reference_palm(u_true, grad_op, prox_h, beta, cfg, half=True):
    """PALM with its own loop: each history entry holds the step into its
    iterate, and a budget stop probes one extra step for the final metric.

    With ``half`` it holds the half spectrum of ``v`` (``rfft2``/``irfft2``,
    norms and counts with each column's mirror multiplicity, the Hermitian
    ``v`` formed by index arithmetic at the end): ``solve_palm`` must match
    its iterates, ``nnz``, iterations, termination and final metric bit for
    bit.  Without, it holds the full spectrum (``fft2``/``ifft2``), which
    ``solve_palm`` must match to rounding."""
    tau = 1.0
    sigma = 1.0 / (grad_op.norm_bound ** 2 + 1.0)
    a_field = grad_op.apply(u_true)
    n_y, n_x = u_true.shape
    stored = n_x // 2 + 1 if half else n_x
    # multiplicity of a stored column: 2 unless it is its own mirror
    mult = np.array([1.0 if not half or j in (0, n_x - j) else 2.0 for j in range(stored)])
    vt = np.zeros((n_y, stored), dtype=complex)
    q = np.zeros(grad_op.codomain_shape)

    def step(vt_cur, q_cur):
        aq = grad_op.adjoint(q_cur)
        coupled = np.fft.rfft2(aq, norm="ortho") if half else np.fft.fft2(aq, norm="ortho")
        vt_new = sc.soft_threshold(vt_cur - tau * (vt_cur - coupled), tau * beta)
        if half:
            back = np.fft.irfft2(vt_new, s=(n_y, n_x), norm="ortho")
        else:
            back = np.real(np.fft.ifft2(vt_new, norm="ortho"))
        q_new = q_cur - sigma * (grad_op.apply(aq - back)
                                 + prox_h.prox(q_cur + a_field) - a_field)
        return vt_new, q_new

    def displacement(vt_cur, q_cur, vt_new, q_new):
        d = vt_new - vt_cur
        dv = math.sqrt(float(np.add.reduce(mult * (d.real * d.real + d.imag * d.imag),
                                           axis=None))) / tau
        dq = float(np.linalg.norm(q_new - q_cur)) / sigma
        return 0.5 * (dv + dq)

    def finish(k, metric, termination):
        nnz = int(np.sum(mult * (vt != 0)))
        v = vt
        if half:  # v[k_y, k_x] = conj(v[-k_y, -k_x]) for the columns not stored
            v = np.empty((n_y, n_x), dtype=complex)
            v[:, :stored] = vt
            ky, kx = -np.arange(n_y) % n_y, -np.arange(stored, n_x) % n_x
            v[:, stored:] = np.conj(vt[ky][:, kx])
        return _finish(v, q, k, metric, history, termination, nnz=nnz)

    history = []
    k = 0
    while k < cfg.max_iters:
        vt_new, q_new = step(vt, q)
        metric = displacement(vt, q, vt_new, q_new)
        if metric <= cfg.grad_tol:
            history.append((k, metric))
            return finish(k, metric, "tolerance")
        k += 1
        vt, q = vt_new, q_new
        if k % cfg.record_every == 0:
            history.append((k, metric))

    probe = step(vt, q)
    return finish(cfg.max_iters, displacement(vt, q, *probe), "max_iters")


def assert_same_solve(got, want):
    assert got.v.dtype == want.v.dtype and got.v.tobytes() == want.v.tobytes()
    assert (got.q is None) == (want.q is None)
    if got.q is not None:
        assert got.q.tobytes() == want.q.tobytes()
    assert got.history == want.history
    assert got.iterations == want.iterations
    assert got.termination == want.termination
    assert got.final_grad_norm == want.final_grad_norm


def assert_close_solve(got, want, rtol=1e-12):
    """Same iterations, termination and history indices; ``v``, ``q`` and the
    history metrics within ``rtol`` of the reference's norm (of its first
    metric, for the history)."""
    assert got.iterations == want.iterations
    assert got.termination == want.termination
    assert [k for k, _ in got.history] == [k for k, _ in want.history]
    assert got.v.dtype == want.v.dtype
    assert np.linalg.norm(got.v - want.v) <= rtol * np.linalg.norm(want.v)
    assert np.linalg.norm(got.q - want.q) <= rtol * np.linalg.norm(want.q)
    scale = want.history[0][1]
    for (_, g), (_, w) in zip(got.history, want.history):
        assert abs(g - w) <= rtol * scale


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sc.SolveConfig(max_iters=0)
        with pytest.raises(ConfigurationError):
            sc.SolveConfig(grad_tol=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 5.5}, {"record_every": 2.5}, {"grad_tol": math.nan},
    ], ids=["max_iters-float", "record_every-float", "grad_tol-nan"])
    def test_rejects_non_integer_budget_and_nan(self, kwargs):
        with pytest.raises(ConfigurationError):
            sc.SolveConfig(**kwargs)


class TestSourceGradient:
    def test_identity_example(self):
        fwd = sc.IdentityMap((2,))
        g = sc.source_gradient(np.zeros(2), np.array([1.0, 0.0]), fwd,
                               sc.ProxFunctional("l1"))
        assert np.allclose(g, [-1.0, 0.0])

    def test_zero_at_fixed_point(self):
        fwd = sc.IdentityMap((2,))
        u = np.array([1.0, 0.0])
        v = np.array([1.0, 0.5])  # prox(u + v) = u
        g = sc.source_gradient(v, u, fwd, sc.ProxFunctional("l1"))
        assert np.max(np.abs(g)) == 0.0

    def test_matches_finite_differences(self, rng):
        prox = sc.ProxFunctional("l1")
        h = 1e-6
        for _ in range(20):
            m = sc.MatrixMap(rng.standard_normal((6, 4)))
            u = rng.standard_normal(4)
            v = rng.standard_normal(6)
            g = sc.source_gradient(v, u, m, prox)
            fd = np.zeros(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd[i] = (sc.source_objective(v + e, u, m, prox)
                         - sc.source_objective(v - e, u, m, prox)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(np.linalg.norm(g), 1e-12)

    def test_shape_mismatch(self):
        fwd = sc.IdentityMap((3,))
        with pytest.raises(InputError):
            sc.source_gradient(np.zeros(2), np.zeros(3), fwd, sc.ProxFunctional("l1"))


class TestBregmanLoss:
    def test_nonnegative_and_zero_at_certificate(self, rng):
        prox = sc.ProxFunctional("l1")
        u = np.array([1.0, 0.0])
        assert sc.bregman_loss(u, u + np.array([1.0, 0.2]), prox) <= 1e-15
        for _ in range(20):
            p = rng.standard_normal(2) * 3
            assert sc.bregman_loss(u, p, prox) >= -1e-12

    def test_convexity_probe(self, rng):
        fwd = sc.MatrixMap(rng.standard_normal((5, 3)))
        u = rng.standard_normal(3)
        prox = sc.ProxFunctional("l1")
        for _ in range(25):
            v1 = rng.standard_normal(5)
            v2 = rng.standard_normal(5)
            lam = rng.uniform()
            mix = sc.source_objective(lam * v1 + (1 - lam) * v2, u, fwd, prox)
            bound = (lam * sc.source_objective(v1, u, fwd, prox)
                     + (1 - lam) * sc.source_objective(v2, u, fwd, prox))
            assert mix <= bound + 1e-10


class TestSolveSourceGd:
    def test_identity_converges_fast(self):
        fwd = sc.IdentityMap((2,))
        cfg = sc.SolveConfig(max_iters=100, grad_tol=1e-12, record_every=1)
        rep = sc.solve_source_gd(np.array([1.0, 0.0]), fwd, sc.ProxFunctional("l1"), cfg)
        assert rep.termination == "tolerance"
        assert rep.iterations <= 5
        assert rep.final_grad_norm < 1e-12
        assert rep.v[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.v[1]) <= 1.0

    def test_fixed_point_soundness(self, rng):
        fwd = sc.MatrixMap(rng.standard_normal((5, 3)))
        u = sc.soft_threshold(rng.standard_normal(3), 0.2)
        prox = sc.ProxFunctional("l1")
        cfg = sc.SolveConfig(max_iters=50_000, grad_tol=1e-10, record_every=4)
        rep = sc.solve_source_gd(u, fwd, prox, cfg)
        assert rep.termination == "tolerance"
        re_eval = np.linalg.norm(sc.source_gradient(rep.v, u, fwd, prox))
        assert re_eval == pytest.approx(rep.final_grad_norm, abs=1e-12)
        assert rep.v_norm == pytest.approx(np.linalg.norm(rep.v), abs=1e-12)
        assert rep.history[-1][1] == rep.final_grad_norm

    def test_accelerated_objective_decreases_from_start(self, rng):
        fwd = sc.MatrixMap(rng.standard_normal((4, 6)))
        u = sc.soft_threshold(rng.standard_normal(6), 0.5)
        prox = sc.ProxFunctional("l1")
        values = [sc.source_objective(np.zeros(4), u, fwd, prox)]
        for budget in range(10, 301, 10):
            rep = sc.solve_source_gd(u, fwd, prox, sc.SolveConfig(max_iters=budget))
            values.append(sc.source_objective(rep.v, u, fwd, prox))
        assert values[-1] <= values[0]
        assert max(values[len(values) // 2:]) <= values[0] + 1e-12

    def _lasso(self, coeffs):
        from sourcecond.experiments import Lasso1DConfig, make_lasso_data

        cfg = Lasso1DConfig(coeffs_true=coeffs)
        return cfg.coefficient_vector(), make_lasso_data(cfg)[0]

    def test_matches_reference_deg5_lasso_to_tolerance(self):
        from sourcecond.experiments import DEG5_COEFFS

        w, phi = self._lasso(DEG5_COEFFS)
        args = (w, phi, sc.ProxFunctional("l1"),
                sc.SolveConfig(max_iters=100_000, grad_tol=1e-12, record_every=16))
        rep = sc.solve_source_gd(*args)
        assert rep.termination == "tolerance"
        assert_same_solve(rep, reference_source_gd(*args))

    def test_matches_reference_deg20_lasso_at_budget(self):
        from sourcecond.experiments import DEG20_COEFFS

        w, phi = self._lasso(DEG20_COEFFS)
        args = (w, phi, sc.ProxFunctional("l1"),
                sc.SolveConfig(max_iters=20_000, grad_tol=1e-6, record_every=256))
        rep = sc.solve_source_gd(*args)
        assert rep.termination == "max_iters" and rep.iterations == 20_000
        assert_same_solve(rep, reference_source_gd(*args))

    def test_matches_reference_complex_codomain(self):
        # modulus shrinkage and the conjugated inner product on complex arrays
        from sourcecond.experiments import shepp_logan

        u = sc.dft2(shepp_logan(16))
        u[np.abs(u) < 0.5] = 0.0
        args = (u, sc.sampling(sc.lowpass_mask((16, 16), 9, 6)), sc.ProxFunctional("l1", 0.3),
                sc.SolveConfig(max_iters=400, grad_tol=0.0, record_every=7))
        rep = sc.solve_source_gd(*args)
        assert rep.v.dtype == complex and rep.iterations == 400
        assert_same_solve(rep, reference_source_gd(*args))

    def test_matches_reference_zero_weight(self):
        # beta 0: every entry keeps its value, zeros included
        from sourcecond.experiments import DEG5_COEFFS

        w, phi = self._lasso(DEG5_COEFFS)
        args = (w, phi, sc.ProxFunctional("l1", 0.0),
                sc.SolveConfig(max_iters=3000, grad_tol=0.0, record_every=64))
        assert_same_solve(sc.solve_source_gd(*args), reference_source_gd(*args))

    def test_matches_reference_integer_u_true(self, rng):
        fwd = sc.MatrixMap(rng.standard_normal((7, 12)))
        u = np.array([0, 3, 0, 0, -2, 0, 0, 0, 1, 0, 0, 0])
        args = (u, fwd, sc.ProxFunctional("l1"),
                sc.SolveConfig(max_iters=2000, grad_tol=1e-9, record_every=8))
        rep = sc.solve_source_gd(*args)
        assert rep.v.dtype == np.float64
        assert_same_solve(rep, reference_source_gd(*args))

    def test_infinite_u_true_diverges_without_a_warning(self, rng):
        fwd = sc.MatrixMap(rng.standard_normal((5, 4)))
        u = np.array([0.0, np.inf, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = sc.solve_source_gd(u, fwd, sc.ProxFunctional("l1"),
                                     sc.SolveConfig(max_iters=50, record_every=10))
        assert rep.termination == "diverged" and rep.iterations == 0
        assert math.isnan(rep.final_grad_norm)

    def test_complex_u_true_needs_a_complex_codomain(self):
        with pytest.raises(InputError):
            sc.solve_source_gd(np.array([1j, 0.0]), sc.IdentityMap((2,)),
                               sc.ProxFunctional("l1"), sc.SolveConfig(max_iters=5))

    def test_iterates_match_the_plain_steps_with_a_ball_indicator(self, rng):
        # a prox other than the one-norm's runs as prox(z, out=z)
        fwd = sc.MatrixMap(rng.standard_normal((6, 9)))
        u = sc.soft_threshold(rng.standard_normal(9), 0.5)
        prox = sc.ProxFunctional("indicator_norm_ball", 0.5)
        tau = 1.0 / fwd.norm_bound ** 2
        v = y = np.zeros(6)
        t = 1.0
        for budget in range(1, 40):
            g = sc.source_gradient(y, u, fwd, prox)
            v_next = y - tau * g
            step = v_next - v
            if sc.real_inner(g, step) > 0:
                t, y = 1.0, v_next
            else:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                y, t = v_next + ((t - 1.0) / t_next) * step, t_next
            v = v_next
            rep = sc.solve_source_gd(u, fwd, prox, sc.SolveConfig(max_iters=budget))
            assert rep.v.tobytes() == v.tobytes()


class TestSolveRangeCd:
    def test_constant_image_is_immediate(self):
        u = np.full((8, 8), 0.4)
        rep = sc.solve_range_cd(u, sc.IdentityMap(u.shape), sc.grad2(8, 8),
                                sc.ProxFunctional("group_l21"),
                                sc.SolveConfig(max_iters=10, grad_tol=0.0))
        assert rep.termination == "tolerance"
        assert rep.iterations == 0
        assert not np.any(rep.v) and not np.any(rep.q)

    def test_denoising_certificate(self, denoise_cert):
        rep = denoise_cert["report"]
        assert rep.termination == "tolerance"
        assert rep.final_grad_norm <= 1e-10
        assert denoise_cert["check"].passed

    def test_fixed_point_soundness(self, denoise_cert):
        rep = denoise_cert["report"]
        a_field = denoise_cert["grad_op"].apply(denoise_cert["u"])
        metric = _range_cd_metric(rep.v, rep.q, a_field, denoise_cert["fwd"],
                                  denoise_cert["grad_op"], sc.ProxFunctional("group_l21"))
        assert metric == pytest.approx(rep.final_grad_norm, abs=1e-12)

    def test_matches_reference_full_mask_to_tolerance(self, phantom64):
        args = (phantom64, sc.fourier_sampling(sc.full_mask((64, 64))), sc.grad2(64, 64),
                sc.ProxFunctional("group_l21"),
                sc.SolveConfig(max_iters=5000, grad_tol=3.84e-14, record_every=10))
        rep = sc.solve_range_cd(*args)
        assert rep.termination == "tolerance"
        assert_close_solve(rep, reference_range_cd(*args))

    def test_matches_reference_even_width_lowpass_at_budget(self):
        from sourcecond.experiments import shepp_logan

        args = (shepp_logan(48), sc.fourier_sampling(sc.lowpass_mask((48, 48), 20, 13)),
                sc.grad2(48, 48), sc.ProxFunctional("group_l21"),
                sc.SolveConfig(max_iters=300, grad_tol=0.0, record_every=7))
        rep = sc.solve_range_cd(*args)
        assert rep.termination == "max_iters" and rep.iterations == 300
        assert_close_solve(rep, reference_range_cd(*args))

    @pytest.mark.parametrize("shape", [(48, 47), (47, 48)], ids=["odd-width", "odd-height"])
    def test_matches_reference_odd_shape_lowpass_at_budget(self, shape):
        # an odd width has no self-conjugate column n_x/2 on the half spectrum
        from sourcecond.experiments import shepp_logan

        args = (shepp_logan(*shape), sc.fourier_sampling(sc.lowpass_mask(shape, 20, 13)),
                sc.grad2(*shape), sc.ProxFunctional("group_l21"),
                sc.SolveConfig(max_iters=300, grad_tol=0.0, record_every=7))
        rep = sc.solve_range_cd(*args)
        assert rep.termination == "max_iters" and rep.iterations == 300
        assert_close_solve(rep, reference_range_cd(*args))

    @pytest.mark.parametrize("shape", [(16, 16), (17, 23)], ids=["16x16", "17x23"])
    def test_matches_reference_identity_map_to_tolerance(self, shape):
        # K* K = I: normal() returns its argument, so the carried terms are
        # the reference's own arithmetic and the match is bit for bit
        from sourcecond.experiments import shepp_logan

        u = shepp_logan(*shape)
        args = (u, sc.IdentityMap(u.shape), sc.grad2(*shape), sc.ProxFunctional("group_l21"),
                sc.SolveConfig(max_iters=50_000, grad_tol=1e-11, record_every=10))
        rep = sc.solve_range_cd(*args)
        assert rep.termination == "tolerance" and rep.iterations > 10
        assert_same_solve(rep, reference_range_cd(*args))

    def test_matches_reference_half_plane_mask_at_budget(self):
        # no sampled frequency has its mirror sampled: the symbol is at most
        # 1/2, so tau is about 2 and the step scales d and K* K d
        from sourcecond.experiments import shepp_logan

        grid = np.zeros((24, 24), dtype=bool)
        grid[1:12] = True
        fwd = sc.fourier_sampling(sc.SamplingMask(grid))
        assert fwd.norm_bound == pytest.approx(math.sqrt(0.5))
        args = (shepp_logan(24), fwd, sc.grad2(24, 24), sc.ProxFunctional("group_l21"),
                sc.SolveConfig(max_iters=300, grad_tol=1e-300, record_every=10))
        rep = sc.solve_range_cd(*args)
        assert rep.iterations == 300
        assert_close_solve(rep, reference_range_cd(*args))


class TestSolvePalm:
    def test_huge_weight_kills_certificate(self, phantom64):
        a = sc.grad2(64, 64)
        rep = sc.solve_palm(phantom64, a, sc.ProxFunctional("group_l21"), 1e6,
                            sc.SolveConfig(max_iters=20, grad_tol=0.0))
        assert rep.nnz == 0
        assert not np.any(rep.v)

    def test_invalid_weight(self, phantom64):
        a = sc.grad2(64, 64)
        with pytest.raises(ConfigurationError):
            sc.solve_palm(phantom64, a, sc.ProxFunctional("group_l21"), 0.0,
                          sc.SolveConfig(max_iters=5))

    def test_mask_count_monotone_in_weight(self):
        from sourcecond.experiments import shepp_logan

        u = shepp_logan(32)
        a = sc.grad2(32, 32)
        counts = []
        for beta in (0.02, 0.06, 0.1, 0.2, 0.5):
            rep = sc.solve_palm(u, a, sc.ProxFunctional("group_l21"), beta,
                                sc.SolveConfig(max_iters=300, grad_tol=0.0,
                                               record_every=100))
            counts.append(sc.extract_mask(rep.v).count)
        assert all(x >= y for x, y in zip(counts, counts[1:]))

    def test_certificate_is_complex_and_dc_free(self, phantom64):
        a = sc.grad2(64, 64)
        rep = sc.solve_palm(phantom64, a, sc.ProxFunctional("group_l21"), 0.1,
                            sc.SolveConfig(max_iters=50, grad_tol=0.0, record_every=25))
        assert np.iscomplexobj(rep.v)
        # zero-mean dual fields cannot generate a zero-frequency component
        assert rep.v[0, 0] == 0.0


    _CASES = pytest.mark.parametrize("beta, cfg", [
        (0.1, sc.SolveConfig(max_iters=47, grad_tol=0.0, record_every=10)),
        (0.1, sc.SolveConfig(max_iters=1000, grad_tol=0.25, record_every=7)),
        (1e6, sc.SolveConfig(max_iters=20, grad_tol=0.0, record_every=3)),
        (0.1, sc.SolveConfig(max_iters=1, grad_tol=0.0)),
    ], ids=["budget", "tolerance", "no-support", "one-step"])

    @_CASES
    def test_matches_reference(self, beta, cfg):
        from sourcecond.experiments import shepp_logan

        args = (shepp_logan(32), sc.grad2(32, 32), sc.ProxFunctional("group_l21"), beta, cfg)
        rep, ref = sc.solve_palm(*args), reference_palm(*args)
        assert rep.v.tobytes() == ref.v.tobytes() and rep.q.tobytes() == ref.q.tobytes()
        assert (rep.nnz, rep.iterations, rep.termination, rep.final_grad_norm) == \
            (ref.nnz, ref.iterations, ref.termination, ref.final_grad_norm)
        # history entry k holds the step from iterate k, taken at record steps
        assert rep.history[0][0] == 0
        assert rep.history[-1] == (rep.iterations, rep.final_grad_norm)

    @_CASES
    def test_close_to_full_spectrum_reference(self, beta, cfg):
        # the half spectrum changes the iterates by rounding only: the same
        # support, count and stopping step
        from sourcecond.experiments import shepp_logan

        args = (shepp_logan(32), sc.grad2(32, 32), sc.ProxFunctional("group_l21"), beta, cfg)
        rep, ref = sc.solve_palm(*args), reference_palm(*args, half=False)
        for got, want in ((rep.v, ref.v), (rep.q, ref.q)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert rep.nnz == ref.nnz and sc.extract_mask(rep.v) == sc.extract_mask(ref.v)
        assert (rep.iterations, rep.termination) == (ref.iterations, ref.termination)
        assert rep.final_grad_norm == pytest.approx(ref.final_grad_norm, rel=1e-12)

    @pytest.mark.parametrize("shape", [(24, 31), (31, 24), (17, 17), (20, 26)])
    def test_nnz_counts_the_full_spectrum(self, shape):
        # odd widths store no self-mirrored last column, even ones do
        from sourcecond.experiments import textured_image

        args = (textured_image(*shape), sc.grad2(*shape), sc.ProxFunctional("group_l21"),
                0.05, sc.SolveConfig(max_iters=100, grad_tol=0.0, record_every=50))
        rep = sc.solve_palm(*args)
        assert rep.v.shape == shape and 0 < rep.nnz < rep.v.size
        assert rep.nnz == np.count_nonzero(rep.v)
        assert rep.v.tobytes() == reference_palm(*args).v.tobytes()


class _Bounded(sc.LinearMap):
    """The identity on a shape, with a given norm bound."""

    def __init__(self, shape, bound):
        super().__init__(shape, shape, bound)

    def apply(self, x):
        return np.array(x, dtype=float)

    def adjoint(self, y):
        return np.array(y, dtype=float)


class TestSquaredBound:
    """A norm bound whose square is not finite sets no step: the solve is
    refused instead of running its budget with a step of 0."""

    @staticmethod
    def _huge_matrix(value):
        # power iteration overflows while the map is built: its bound is inf
        with np.errstate(over="ignore", invalid="ignore"):
            fwd = sc.MatrixMap(np.full((3, 3), value))
        assert fwd.norm_bound == math.inf
        return fwd

    @pytest.mark.parametrize("value", [1e200, 1e160])
    def test_descent_refuses_an_infinite_bound(self, value):
        with pytest.raises(ConfigurationError, match="no finite square"):
            sc.solve_source_gd(1e-200 * np.array([1.0, 0.0, -1.0]), self._huge_matrix(value),
                               sc.ProxFunctional("l1"), sc.SolveConfig(max_iters=20))

    @pytest.mark.parametrize("value", [1e200, 1e160])
    def test_range_cd_refuses_an_infinite_bound(self, value):
        with pytest.raises(ConfigurationError, match="no finite square"):
            sc.solve_range_cd(np.array([1.0, 0.0, -1.0]), self._huge_matrix(value),
                              sc.MatrixMap(np.eye(3)), sc.ProxFunctional("l1"),
                              sc.SolveConfig(max_iters=20))

    @pytest.mark.parametrize("bound", [2e154, math.inf, math.nan])
    def test_palm_refuses_a_bound_without_a_finite_square(self, bound):
        # 2e154 ** 2 passes the float range: Python raises OverflowError
        u = np.zeros((4, 4))
        with pytest.raises(ConfigurationError, match="no finite square"):
            sc.solve_palm(u, _Bounded((2, 4, 4), bound), sc.ProxFunctional("group_l21"),
                          0.1, sc.SolveConfig(max_iters=5))

    def test_largest_finite_square_is_kept(self):
        # 1.3e154 squares to about 1.69e308, below the float range
        bound = 1.3e154
        assert solvers._dual_step(_Bounded((3,), bound)) == 1.0 / (bound ** 2 + 1.0)
        assert solvers._data_step(_Bounded((3,), bound)) == 1.0 / bound ** 2


class TestMetricAtRecordSteps:
    """With ``grad_tol == 0`` range-CD and PALM take their metric only at
    record steps.  ``grad_tol = 5e-324``, the least positive float, stops
    them no sooner; elsewhere it takes the metric's first half, and the
    second only where the first is at most twice the tolerance.  Both runs,
    and one that takes the whole metric on every step, must give the same
    solve, byte for byte."""

    @staticmethod
    def _range_cd(shape, mask, cfg, prox_h=None):
        from sourcecond.experiments import shepp_logan

        fwd = sc.IdentityMap(shape) if mask is None else sc.fourier_sampling(mask(shape))
        return sc.solve_range_cd(shepp_logan(*shape), fwd, sc.grad2(*shape),
                                 prox_h or sc.ProxFunctional("group_l21"), cfg)

    @staticmethod
    def _palm(shape, beta, cfg):
        from sourcecond.experiments import textured_image

        return sc.solve_palm(textured_image(*shape), sc.grad2(*shape),
                             sc.ProxFunctional("group_l21"), beta, cfg)

    _SOLVES = pytest.mark.parametrize("solve, args", [
        ("_range_cd", ((17, 23), None)),
        ("_range_cd", ((48, 47), lambda s: sc.lowpass_mask(s, 20, 13))),
        ("_range_cd", ((32, 32), sc.full_mask)),
        ("_palm", ((32, 32), 0.05)),
        ("_palm", ((24, 31), 0.1)),
        ("_palm", ((20, 26), 1e6)),
    ], ids=["cd-identity", "cd-odd-lowpass", "cd-full-mask", "palm", "palm-odd-width",
            "palm-no-support"])

    @_SOLVES
    @pytest.mark.parametrize("max_iters, record_every", [(60, 7), (1, 1), (25, 100)])
    def test_same_solve_as_measuring_every_step(self, solve, args, max_iters, record_every,
                                                metric_halves):
        run = getattr(self, solve)
        solves = []
        for tol, full in ((0.0, False), (5e-324, False), (5e-324, True)):
            metric_halves["full"] = full
            solves.append(run(*args, sc.SolveConfig(max_iters=max_iters, grad_tol=tol,
                                                    record_every=record_every)))
        got, *wants = solves
        for want in wants:
            assert_same_solve(got, want)
            assert got.nnz == want.nnz
        assert got.termination == "max_iters" and got.iterations == max_iters

    def test_metric_only_gradient_runs_at_record_steps(self, monkeypatch):
        # a step takes one gradient, one divergence and one normal product;
        # the metric adds one gradient, at the record steps 0, 7, 14 and 20
        # with grad_tol == 0 and with 5e-324, and also wherever half the
        # normal product's norm is at most a larger tolerance.  With
        # grad_tol == 0 only the normal products into a record step take
        # the norm, the same float as on every step
        from sourcecond.experiments import shepp_logan

        u = shepp_logan(16, 17)
        records = (0, 7, 14, 20)

        def run(tol):
            fwd = sc.fourier_sampling(sc.lowpass_mask(u.shape, 9, 7))
            grad_op = sc.grad2(*u.shape)
            calls = {"apply": 0, "adjoint": 0, "normal": 0}
            norms = []
            for owner, name in ((grad_op, "apply"), (grad_op, "adjoint"), (fwd, "normal")):
                def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                    calls[_name] += 1
                    result = _fn(*args, **kwargs)
                    if _name == "normal" and result[1] is not None:
                        norms.append(result[1])
                    return result
                monkeypatch.setattr(owner, name, counted)
            rep = sc.solve_range_cd(u, fwd, grad_op, sc.ProxFunctional("group_l21"),
                                    sc.SolveConfig(max_iters=20, grad_tol=tol, record_every=7))
            assert rep.iterations == 20 and [k for k, _ in rep.history] == list(records)
            return calls, norms

        calls, at_records = run(0.0)
        # the apply of A u, one per step and one per metric
        assert calls == {"apply": 1 + 20 + 4, "adjoint": 21, "normal": 21}
        calls, norms = run(5e-324)  # ||K d|| at iterate k is norms[k]
        assert calls == {"apply": 1 + 20 + 4, "adjoint": 21, "normal": 21}
        assert at_records == [norms[k] for k in records]
        halves = [0.5 * n for n in norms]
        tol = 0.5 * (min(halves[1:]) + max(halves[1:]))  # iterate 0 has d = 0
        calls, norms = run(tol)
        assert [0.5 * n for n in norms] == halves
        metrics = sum(k in records or half <= tol for k, half in enumerate(halves))
        assert 4 < metrics < 21
        assert calls == {"apply": 1 + 20 + metrics, "adjoint": 21, "normal": 21}

    def test_one_real_transform_per_step_at_every_record(self, monkeypatch):
        # record_every = 1 makes every iterate a record step: the normal
        # product into it returns ||K d|| with K* K d, so a masked map takes
        # one rdft2 per step (and one before the loop) at a zero tolerance too
        from sourcecond import operators
        from sourcecond.experiments import shepp_logan

        calls = []
        original = operators.rdft2

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(operators, "rdft2", counted)
        u = shepp_logan(16, 17)
        rep = sc.solve_range_cd(u, sc.fourier_sampling(sc.lowpass_mask(u.shape, 9)),
                                sc.grad2(*u.shape), sc.ProxFunctional("group_l21"),
                                sc.SolveConfig(max_iters=30, grad_tol=0.0, record_every=1))
        assert rep.iterations == 30 and len(rep.history) == 31
        assert len(calls) == 1 + 30


class TestStopTest:
    """At a non-record step range-CD, PALM and PDHG skip the second half of
    their stopping metric when the first half alone puts the mean above the
    tolerance.  The solves stay those of a metric taken whole on every step,
    byte for byte, whether a positive tolerance stops them or not."""

    _CASES = pytest.mark.parametrize("solve, args, tol, max_iters, stops", [
        ("_range_cd", ((17, 23), None), 1e-3, 1000, True),
        ("_range_cd", ((17, 23), None), 1e-13, 300, False),
        ("_range_cd", ((32, 32), sc.full_mask), 1e-3, 1000, True),
        ("_range_cd", ((32, 32), sc.full_mask), 1e-13, 300, False),
        ("_range_cd", ((48, 47), lambda s: sc.lowpass_mask(s, 20, 13)), 0.15, 1000, True),
        ("_range_cd", ((48, 47), lambda s: sc.lowpass_mask(s, 20, 13)), 0.01, 300, False),
        ("_palm", ((32, 32), 0.05), 0.2, 1000, True),
        ("_palm", ((32, 32), 0.05), 1e-3, 300, False),
    ], ids=["cd-identity-stops", "cd-identity-runs-out", "cd-full-mask-stops",
            "cd-full-mask-runs-out", "cd-odd-lowpass-stops", "cd-odd-lowpass-runs-out",
            "palm-stops", "palm-runs-out"])

    @_CASES
    def test_same_solve_as_full_metric(self, solve, args, tol, max_iters, stops,
                                       metric_halves):
        run = getattr(TestMetricAtRecordSteps, solve)
        cfg = sc.SolveConfig(max_iters=max_iters, grad_tol=tol, record_every=50)
        metric_halves["full"] = True
        want = run(*args, cfg)
        metric_halves.update(full=False, metrics=0, second=0)
        got = run(*args, cfg)
        assert_same_solve(got, want)
        assert got.nnz == want.nnz
        assert (got.termination == "tolerance") == stops
        assert got.iterations < max_iters if stops else got.iterations == max_iters
        # the skip is taken on some steps
        assert metric_halves["metrics"] == got.iterations + 1
        assert metric_halves["second"] < metric_halves["metrics"]

    @_CASES
    def test_matches_reference(self, solve, args, tol, max_iters, stops):
        cfg = sc.SolveConfig(max_iters=max_iters, grad_tol=tol, record_every=50)
        if solve == "_palm":
            from sourcecond.experiments import textured_image

            shape, beta = args
            ref_args = (textured_image(*shape), sc.grad2(*shape),
                        sc.ProxFunctional("group_l21"), beta, cfg)
            got, want = sc.solve_palm(*ref_args), reference_palm(*ref_args)
            # the reference records the step from an iterate at the one after
            assert got.v.tobytes() == want.v.tobytes() and got.q.tobytes() == want.q.tobytes()
            assert (got.nnz, got.iterations, got.termination, got.final_grad_norm) == \
                (want.nnz, want.iterations, want.termination, want.final_grad_norm)
            return
        from sourcecond.experiments import shepp_logan

        shape, mask = args
        fwd = sc.IdentityMap(shape) if mask is None else sc.fourier_sampling(mask(shape))
        ref_args = (shepp_logan(*shape), fwd, sc.grad2(*shape),
                    sc.ProxFunctional("group_l21"), cfg)
        got, want = sc.solve_range_cd(*ref_args), reference_range_cd(*ref_args)
        if mask is None:  # bit for bit; Fourier maps to rounding
            assert_same_solve(got, want)
        else:
            assert_close_solve(got, want)

    def test_nan_in_q_found_one_step_later(self, metric_halves):
        # from its 30th call, the one at iterate 29, the prox gives NaN at an
        # interior pixel: the metric's field half at iterate 29 is NaN, and
        # the step from 29 carries it into q and so into K d at iterate 30
        class NanProx(sc.ProxFunctional):
            calls = 0

            def prox(self, z, out=None):
                out = super().prox(z, out=out)
                self.calls += 1
                if self.calls >= 30:
                    out[0, 5, 5] = np.nan
                return out

        cfg = sc.SolveConfig(max_iters=1000, grad_tol=1e-13, record_every=100)
        reports = []
        for full in (True, False):
            metric_halves["full"] = full
            reports.append(TestMetricAtRecordSteps._range_cd(
                (17, 23), None, cfg, NanProx("group_l21")))
        for rep, stop in zip(reports, (29, 30)):
            assert rep.termination == "diverged" and rep.iterations == stop
            assert math.isnan(rep.final_grad_norm)
            assert np.isnan(rep.q).any() == (stop == 30)


def _same(x, y):
    # equal floats, or both NaN
    return x == y or (math.isnan(x) and math.isnan(y))


class TestIterate:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 7), st.sampled_from([0.0, 0.5]),
           st.booleans(), st.integers(0, 1),
           st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, math.inf, math.nan]),
                    min_size=31, max_size=31),
           st.lists(st.sampled_from([0.0, 0.5, 2.0, math.inf, math.nan]),
                    min_size=31, max_size=31))
    def test_scripted_metrics(self, max_iters, record_every, grad_tol, halves, start,
                              firsts, seconds):
        # with halves, iterate j's metric is the mean of firsts[j] and
        # seconds[j]; without, it is firsts[j]
        cfg = sc.SolveConfig(max_iters=max_iters, grad_tol=grad_tol,
                             record_every=record_every)
        at = [start]
        measured, second_taken = [], []

        def recorded(j):
            return j % record_every == 0 or j == max_iters

        def taken(j):
            return recorded(j) or (halves and grad_tol > 0)

        def second():
            second_taken.append(at[0])
            return seconds[at[0]]

        def measure():
            measured.append(at[0])
            return (firsts[at[0]], second) if halves else firsts[at[0]]

        def advance(will_measure):
            # told whether the loop takes the metric at the iterate it steps into
            at[0] += 1
            assert will_measure == taken(at[0])

        k, metric, history, termination = _iterate(cfg, measure, advance, start, halves)

        def decided(j):
            # half the first norm, finite and above the tolerance, cannot stop
            return 0.5 * firsts[j] > grad_tol and math.isfinite(firsts[j])

        def expected(j):
            if not halves:
                return firsts[j]
            if not recorded(j) and decided(j):
                return 0.5 * firsts[j]
            return 0.5 * (firsts[j] + seconds[j])

        steps = [j for j in range(start, max_iters + 1) if taken(j)]
        stop = next((j for j in steps if expected(j) <= grad_tol or math.isnan(expected(j))),
                    max_iters)
        assert k == stop and at[0] == stop  # one advance call per step taken
        assert measured == [j for j in steps if j <= stop]
        if not halves:  # a one-part metric only at record steps, at any tolerance
            assert measured == [j for j in measured if recorded(j)]
        # the second norm only where the first cannot decide, or at a record step
        assert second_taken == [j for j in measured if halves and (recorded(j) or not decided(j))]
        want = [(j, expected(j)) for j in measured if recorded(j)]
        assert [j for j, _ in history] == [j for j, _ in want]
        assert all(_same(got, wanted) for (_, got), (_, wanted) in zip(history, want))
        assert _same(metric, expected(stop))
        if expected(stop) <= grad_tol:
            assert termination == "tolerance"
        elif math.isnan(expected(stop)):
            assert termination == "diverged"
        else:
            assert termination == "max_iters"

    @pytest.mark.parametrize("solver", ["gd", "cd", "palm", "pdhg"])
    def test_nan_input_diverges(self, solver):
        u = np.zeros((8, 8))
        u[3, 4] = np.nan
        a, prox_h = sc.grad2(8, 8), sc.ProxFunctional("group_l21")
        cfg = sc.SolveConfig(max_iters=500)
        if solver == "gd":
            rep = sc.solve_source_gd(u.ravel(), sc.IdentityMap((64,)),
                                     sc.ProxFunctional("l1"), cfg)
        elif solver == "cd":
            rep = sc.solve_range_cd(u, sc.IdentityMap(u.shape), a, prox_h, cfg)
        elif solver == "palm":
            rep = sc.solve_palm(u, a, prox_h, 0.1, cfg)
        else:
            problem = sc.VarRegProblem(K=sc.IdentityMap(u.shape), data=u, alpha=0.5, A=a)
            rep = sc.solve_pdhg(problem, cfg)[2]
        assert rep.termination == "diverged"
        assert rep.iterations == (1 if solver == "pdhg" else 0)
        assert math.isnan(rep.final_grad_norm)


class TestExtractMask:
    def test_all_zero_keeps_dc_only(self):
        mask = sc.extract_mask(np.zeros((6, 6), dtype=complex))
        assert mask.count == 1 and mask.grid[0, 0]

    def test_three_nonzeros_away_from_dc(self):
        vt = np.zeros((6, 6), dtype=complex)
        vt[1, 2] = 1.0
        vt[3, 3] = 1.0j
        vt[5, 0] = -2.0
        mask = sc.extract_mask(vt)
        assert mask.count == 4
        assert mask.grid[0, 0] and mask.grid[1, 2] and mask.grid[3, 3] and mask.grid[5, 0]


class TestRangeData:
    def test_small_alpha_limit(self, rng):
        fwd = sc.MatrixMap(rng.standard_normal((4, 3)))
        u = rng.standard_normal(3)
        v = rng.standard_normal(4)
        out = sc.range_data(u, fwd, v, 1e-300)
        assert np.allclose(out, fwd.apply(u))

    def test_shifts_by_scaled_certificate(self, rng):
        fwd = sc.IdentityMap((5,))
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        assert np.allclose(sc.range_data(u, fwd, v, 0.5), u + 0.5 * v)

    def test_rejects_nonpositive_alpha(self, rng):
        fwd = sc.IdentityMap((5,))
        with pytest.raises(InputError):
            sc.range_data(np.zeros(5), fwd, np.zeros(5), 0.0)
