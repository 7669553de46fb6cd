"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import filecmp
import os
import time

import numpy as np
import pytest

import sourcecond as sc
from sourcecond.experiments import (DEG5_COEFFS, DEG20_COEFFS, Fourier2DConfig,
                                    Lasso1DConfig, run_fourier_experiment,
                                    run_lasso_experiment, run_optimal_sampling,
                                    tune_mask_beta)


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_operator_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    mask = sc.lowpass_mask((12, 16), 5, 3)
    maps = [
        sc.MatrixMap(rng.standard_normal((6, 4))),
        sc.vandermonde(rng.uniform(-1, 1, 8), 5),
        sc.IdentityMap((7,)),
        sc.sampling(mask),
        sc.fourier_sampling(mask),
        sc.fourier_sampling(sc.full_mask((8, 8))),
        sc.grad2(9, 7),
    ]
    worst_gap = max(sc.adjoint_gap(m, rng, n_pairs=20) for m in maps)

    u = rng.standard_normal((16, 16))
    f = sc.dft2(u)
    unitarity = np.max(np.abs(sc.dft2(f, "inverse") - u))
    parseval = abs(np.linalg.norm(f) - np.linalg.norm(u)) / np.linalg.norm(u)

    a = sc.grad2(8, 8)
    # a field is (2, 8, 8): the pads (last row and column of each channel)
    # are zero rows of the matrix
    dense = np.zeros((2, 8, 8, 8, 8))
    for i in range(7):
        for j in range(7):
            dense[0, i, j, i + 1, j] += 1.0
            dense[0, i, j, i, j] -= 1.0
            dense[1, i, j, i, j + 1] += 1.0
            dense[1, i, j, i, j] -= 1.0
    dense = dense.reshape(128, 64)
    assembled = np.column_stack([a.apply(e.reshape(8, 8)).ravel() for e in np.eye(64)])
    assembled_adj = np.column_stack([a.adjoint(e.reshape(2, 8, 8)).ravel()
                                     for e in np.eye(128)])
    grad_exact = (np.array_equal(assembled, dense)
                  and np.array_equal(assembled_adj, dense.T))
    forward_exact = all(
        np.array_equal(a.apply(x).ravel(), dense @ x.ravel())
        for x in rng.standard_normal((20, 8, 8)))

    elapsed = time.perf_counter() - t0
    ok = (worst_gap <= 1e-10 and unitarity <= 1e-12 and parseval <= 1e-12
          and grad_exact and forward_exact and elapsed < 5.0)
    _line(1, ok, f"adjoint gap {worst_gap:.2e}, unitarity {unitarity:.2e}, "
                 f"parseval {parseval:.2e}, grad2 exact {grad_exact and forward_exact}, "
                 f"{elapsed:.1f}s")


def test_criterion_2_prox_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_1d = 0.0
    for _ in range(100):
        z = float(rng.uniform(-3, 3))
        beta = float(rng.uniform(0.1, 2.0))
        grid = np.arange(-5.0, 5.0 + 5e-5, 1e-4)
        best = grid[np.argmin(0.5 * (grid - z) ** 2 + beta * np.abs(grid))]
        worst_1d = max(worst_1d, abs(best - float(sc.soft_threshold(np.array(z), beta))))

    worst_2d = 0.0
    for _ in range(100):
        z = rng.uniform(-2, 2, 2)
        beta = float(rng.uniform(0.1, 1.5))
        coarse = np.arange(-3.0, 3.0 + 1e-9, 0.01)
        gx, gy = np.meshgrid(coarse, coarse)
        obj = 0.5 * ((gx - z[0]) ** 2 + (gy - z[1]) ** 2) + beta * np.hypot(gx, gy)
        i = np.unravel_index(np.argmin(obj), obj.shape)
        cx, cy = gx[i], gy[i]
        fx = np.arange(cx - 0.02, cx + 0.02 + 5e-5, 1e-4)
        fy = np.arange(cy - 0.02, cy + 0.02 + 5e-5, 1e-4)
        gx, gy = np.meshgrid(fx, fy)
        obj = 0.5 * ((gx - z[0]) ** 2 + (gy - z[1]) ** 2) + beta * np.hypot(gx, gy)
        i = np.unravel_index(np.argmin(obj), obj.shape)
        best = np.array([gx[i], gy[i]])
        got = sc.group_soft_threshold(z.reshape(2, 1, 1), beta).ravel()
        worst_2d = max(worst_2d, float(np.linalg.norm(best - got)))

    elapsed = time.perf_counter() - t0
    ok = worst_1d <= 1e-3 and worst_2d <= 1e-3 and elapsed < 10.0
    _line(2, ok, f"scalar gap {worst_1d:.2e}, group gap {worst_2d:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    prox = sc.ProxFunctional("l1")
    h = 1e-6
    worst = 0.0
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
        worst = max(worst, np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    _line(3, ok, f"worst relative gap {worst:.2e} over 20 instances, {elapsed:.1f}s")


def test_criterion_4_exact_sc_on_denoising(denoise_cert):
    t0 = time.perf_counter()
    rep = denoise_cert["report"]
    check = denoise_cert["check"]
    u = denoise_cert["u"]
    fwd = denoise_cert["fwd"]

    worst_rel = 0.0
    for alpha in (0.1, 0.5, 1.0):
        g = sc.range_data(u, fwd, rep.v, alpha)
        prob = sc.VarRegProblem(K=fwd, data=g, alpha=alpha, A=denoise_cert["grad_op"])
        sol, _, _ = sc.solve_pdhg(prob, sc.SolveConfig(max_iters=2000, record_every=500))
        worst_rel = max(worst_rel, float(np.linalg.norm(sol - u) / np.linalg.norm(u)))

    elapsed = time.perf_counter() - t0 + denoise_cert["build_seconds"]
    ok = (rep.final_grad_norm <= 1e-10 and check.passed
          and worst_rel <= 1e-3 and elapsed < 120.0)
    _line(4, ok, f"stop metric {rep.final_grad_norm:.1e}, verified at 1e-6 "
                 f"({check.passed}), worst round-trip rel error {worst_rel:.1e}, "
                 f"||v||={rep.v_norm:.2f}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def deg5_run():
    cfg = Lasso1DConfig(coeffs_true=DEG5_COEFFS, max_iters=100_000, grad_tol=1e-12,
                        record_every=16)
    t0 = time.perf_counter()
    res = run_lasso_experiment(cfg)
    res["elapsed"] = time.perf_counter() - t0
    return res


def test_criterion_5_lasso_degree5(deg5_run):
    s = deg5_run["summary"]
    ok = (s["termination"] == "tolerance" and s["iterations"] < 100_000
          and s["verify"]["passed"] and 5.0 <= s["v_norm"] <= 50.0
          and deg5_run["elapsed"] < 60.0)
    _line(5, ok, f"converged in {s['iterations']} iterations, ||v||={s['v_norm']:.2f}, "
                 f"verified {s['verify']['passed']}, {deg5_run['elapsed']:.1f}s")


def test_criterion_6_lasso_hardness_contrast(deg5_run):
    t0 = time.perf_counter()
    cfg = Lasso1DConfig(coeffs_true=DEG20_COEFFS, max_iters=10_000_000, grad_tol=1e-6,
                        record_every=256)
    res = run_lasso_experiment(cfg)
    s = res["summary"]
    # matched tolerance for the easy problem
    cfg5 = Lasso1DConfig(coeffs_true=DEG5_COEFFS, max_iters=100_000, grad_tol=1e-6,
                         record_every=16)
    res5 = run_lasso_experiment(cfg5)
    ratio = s["v_norm"] / res5["summary"]["v_norm"]
    capped_labelled = (s["termination"] != "max_iters") or s["capped"]
    elapsed = time.perf_counter() - t0
    ok = ratio >= 100.0 and capped_labelled and elapsed < 600.0
    _line(6, ok, f"||v|| ratio {ratio:.1f} (deg20 {s['v_norm']:.1f} vs deg5 "
                 f"{res5['summary']['v_norm']:.2f}), termination {s['termination']}, "
                 f"{elapsed:.0f}s")


def test_criterion_7_approximate_sc_detection(phantom64):
    t0 = time.perf_counter()
    # equal-ratio low-pass: 21x21 of 64x64 = 10.8%, next to 130x130/400x400 = 10.6%
    mask = sc.lowpass_mask((64, 64), 21)
    fwd = sc.fourier_sampling(mask)
    a = sc.grad2(64, 64)
    cfg = sc.SolveConfig(max_iters=1000, grad_tol=1e-10, record_every=100)
    rep = sc.solve_range_cd(phantom64, fwd, a, sc.ProxFunctional("group_l21"), cfg)
    q_max = float(np.sqrt(np.sum(rep.q ** 2, axis=0)).max())
    elapsed = time.perf_counter() - t0
    ok = (rep.termination == "max_iters" and rep.final_grad_norm > 1e-10
          and q_max > 1.0 + 1e-6 and elapsed < 120.0)
    _line(7, ok, f"residual {rep.final_grad_norm:.3f} after 1000 iterations, "
                 f"max |q| = {q_max:.4f} > 1, {elapsed:.1f}s")


def test_criterion_8_learned_sampling_beats_lowpass(phantom64):
    t0 = time.perf_counter()
    beta = tune_mask_beta(phantom64, 0.10,
                          betas=(0.07, 0.075, 0.08, 0.085, 0.09, 0.095, 0.10, 0.11),
                          palm_max_iters=1000)
    cfg = Fourier2DConfig(size=(64, 64), mask_kind="learned", mask_beta=beta,
                          cd_max_iters=1000, pdhg_max_iters=1000,
                          palm_max_iters=1000, record_every=200)
    res = run_optimal_sampling(cfg)
    s = res["summary"]
    learned = s["stages"]["learned"]["rel_error"]
    lowpass = s["stages"]["lowpass"]["rel_error"]
    frac = s["mask_fraction"]
    elapsed = time.perf_counter() - t0
    ok = learned < lowpass and 0.08 <= frac <= 0.12 and elapsed < 300.0
    _line(8, ok, f"beta={beta} density {frac:.1%}: learned rel error {learned:.4f} "
                 f"< low-pass {lowpass:.4f}, {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    def compare_runs(runner, subdir):
        d1, d2 = str(tmp_path / (subdir + "1")), str(tmp_path / (subdir + "2"))
        runner(d1)
        runner(d2)
        names = sorted(os.listdir(d1))
        assert sorted(os.listdir(d2)) == names
        diffs = []
        for name in names:
            if name == "manifest.json":  # carries wall-clock timings
                continue
            if not filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name),
                               shallow=False):
                diffs.append(name)
        return diffs

    lasso_cfg = Lasso1DConfig(coeffs_true=DEG5_COEFFS, seed=3, max_iters=20_000,
                              grad_tol=1e-10)
    fourier_cfg = Fourier2DConfig(size=(32, 32), mask_kind="lowpass", mask_width=11,
                                  cd_max_iters=300, pdhg_max_iters=300,
                                  record_every=100)
    opt_cfg = Fourier2DConfig(size=(32, 32), mask_kind="learned", mask_beta=0.08,
                              cd_max_iters=200, pdhg_max_iters=200,
                              palm_max_iters=200, record_every=100)
    diffs = []
    diffs += compare_runs(lambda d: run_lasso_experiment(lasso_cfg, out_dir=d),
                          "lasso")
    diffs += compare_runs(lambda d: run_fourier_experiment(fourier_cfg, out_dir=d),
                          "fourier")
    diffs += compare_runs(lambda d: run_optimal_sampling(opt_cfg, out_dir=d), "opt")
    _line(9, not diffs, f"bit-identical artifacts across reruns "
                        f"(differing: {diffs if diffs else 'none'})")


def test_criterion_10_error_estimate_arithmetic(denoise_cert):
    rep = denoise_cert["report"]
    u = denoise_cert["u"]
    fwd = denoise_cert["fwd"]
    a = denoise_cert["grad_op"]

    exact = True
    rng = np.random.default_rng(1010)
    for _ in range(25):
        v = rng.standard_normal(12)
        delta = float(abs(rng.standard_normal()))
        est = sc.error_estimate(v, delta)
        exact &= est.bound == est.v_norm * est.delta
        exact &= est.alpha_star * est.v_norm == est.delta

    results = []
    for delta in (1e-3, 1e-2):
        noise = rng.standard_normal(u.shape)
        noise *= delta / np.linalg.norm(noise)
        est = sc.error_estimate(rep.v, delta)
        data = fwd.apply(u) + noise
        prob = sc.VarRegProblem(K=fwd, data=data, alpha=est.alpha_star, A=a)
        sol, dual, _ = sc.solve_pdhg(prob, sc.SolveConfig(max_iters=3000,
                                                          record_every=500))
        d_fwd = sc.bregman_distance_tv(sol, u, rep.q)
        d_rev = sc.bregman_distance_tv(u, sol, dual / est.alpha_star)
        symmetric = d_fwd + d_rev
        results.append((delta, symmetric, est.bound, symmetric <= est.bound))

    ok = exact and all(r[3] for r in results)
    detail = ", ".join(f"delta={d:g}: D_sym={s:.2e} <= {b:.2e}" for d, s, b, _ in results)
    _line(10, ok, f"identities exact ({exact}); {detail}")
