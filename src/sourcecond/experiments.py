"""End-to-end experiment drivers: data synthesis, solves, verification, artifacts.

Three drivers are provided: sparse polynomial regression in 1D, Fourier
sub-sampling of images with a total-variation penalty, and learning of the
Fourier sampling pattern itself.  Each driver returns its results in memory
and, when given an output directory, writes a deterministic artifact set plus
a JSON metric summary and a run manifest.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import fileio, plotscript
from .errors import ConfigurationError, InputError
from .functionals import ProxFunctional, verify_l1_subgradient, verify_tv_subgradient
from .operators import (SamplingMask, full_mask, fourier_sampling, grad2,
                        lowpass_mask, vandermonde)
from .solvers import (SolveConfig, extract_mask, range_data, solve_palm,
                      solve_range_cd, solve_source_gd)
from .varreg import VarRegProblem, error_estimate, solve_pdhg

PHANTOM_VARIANT = "modified"

# Contrast-enhanced ten-ellipse head phantom (additive intensities):
# value, x-semiaxis, y-semiaxis, x-center, y-center, rotation in degrees.
_PHANTOM_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)

_VERIFY_LADDER = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def shepp_logan(n_y: int, n_x: int | None = None) -> np.ndarray:
    """Render the contrast-enhanced head phantom on the unit square.

    Piecewise constant by construction: each pixel center is either inside or
    outside every ellipse, no antialiasing.  Intensities are clipped to [0, 1].
    """
    if n_x is None:
        n_x = n_y
    if n_y < 16 or n_x < 16:
        raise InputError("phantom grids must be at least 16x16")
    x = np.linspace(-1.0, 1.0, n_x)
    y = np.linspace(1.0, -1.0, n_y)
    xx, yy = np.meshgrid(x, y)
    img = np.zeros((n_y, n_x))
    for value, a, b, x0, y0, angle in _PHANTOM_ELLIPSES:
        phi = math.radians(angle)
        xr = (xx - x0) * math.cos(phi) + (yy - y0) * math.sin(phi)
        yr = -(xx - x0) * math.sin(phi) + (yy - y0) * math.cos(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    return np.clip(img, 0.0, 1.0)


def textured_image(n_y: int, n_x: int | None = None) -> np.ndarray:
    """Deterministic synthetic test image: smooth ramp, sinusoidal texture, edges."""
    if n_x is None:
        n_x = n_y
    if n_y < 16 or n_x < 16:
        raise InputError("image grids must be at least 16x16")
    x = np.linspace(0.0, 1.0, n_x)
    y = np.linspace(0.0, 1.0, n_y)
    xx, yy = np.meshgrid(x, y)
    img = 0.2 + 0.45 * xx
    img += 0.12 * np.sin(2 * np.pi * 7 * xx) * np.sin(2 * np.pi * 5 * yy)
    img += 0.25 * ((xx > 0.15) & (xx < 0.45) & (yy > 0.25) & (yy < 0.65))
    img += 0.2 * ((xx - 0.7) ** 2 + (yy - 0.35) ** 2 <= 0.16 ** 2)
    return np.clip(img, 0.0, 1.0)


def _freq_order_key(shape):
    """Deterministic square-low-pass ordering of the frequency grid."""
    n_y, n_x = shape
    fy = np.fft.fftfreq(n_y, 1.0 / n_y).astype(int)
    fx = np.fft.fftfreq(n_x, 1.0 / n_x).astype(int)
    ky, kx = np.meshgrid(fy, fx, indexing="ij")
    cheb = np.maximum(np.abs(ky), np.abs(kx))
    taxi = np.abs(ky) + np.abs(kx)
    return ky, kx, np.lexsort((kx.ravel(), ky.ravel(), taxi.ravel(), cheb.ravel()))


def lowpass_mask_count(shape, count: int) -> SamplingMask:
    """Low-pass pattern with exactly ``count`` entries, filled center outwards."""
    if count < 1 or count > shape[0] * shape[1]:
        raise InputError("count out of range")
    _, _, order = _freq_order_key(shape)
    grid = np.zeros(shape[0] * shape[1], dtype=bool)
    grid[order[:count]] = True
    return SamplingMask(grid.reshape(shape))


def largest_coefficient_mask(u: np.ndarray, count: int) -> SamplingMask:
    """Pattern of the ``count`` largest-magnitude Fourier coefficients of ``u``."""
    shape = u.shape
    if count < 1 or count > shape[0] * shape[1]:
        raise InputError("count out of range")
    mag = np.abs(np.fft.fft2(u, norm="ortho")).ravel()
    ky, kx, _ = _freq_order_key(shape)
    cheb = np.maximum(np.abs(ky), np.abs(kx)).ravel()
    order = np.lexsort((kx.ravel(), ky.ravel(), cheb, -mag))
    grid = np.zeros(shape[0] * shape[1], dtype=bool)
    grid[order[:count]] = True
    return SamplingMask(grid.reshape(shape))


# ---------------------------------------------------------------------------
# 1D polynomial regression


@dataclass
class Lasso1DConfig:
    """Sparse polynomial-coefficient recovery setup.

    Samples default to the unit interval: certificates on symmetric intervals
    come out almost free (tiny norm), so [0, 1] is the regime in which the
    low- vs high-degree contrast is meaningful.
    """

    coeffs_true: dict = field(default_factory=lambda: {0: -1.0, 2: 5.0, 5: -3.0})
    degree: int = 75
    n_samples: int = 50
    noise_std: float = 0.1
    sample_interval: tuple = (0.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        self.coeffs_true = {int(k): float(v) for k, v in self.coeffs_true.items()}
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be at least 1")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be nonnegative")
        if self.coeffs_true and max(self.coeffs_true) > self.degree:
            raise ConfigurationError("degree must cover every nonzero coefficient")

    def coefficient_vector(self) -> np.ndarray:
        w = np.zeros(self.degree + 1)
        for k, val in self.coeffs_true.items():
            w[k] = val
        return w


DEG5_COEFFS = {0: -1.0, 2: 5.0, 5: -3.0}
DEG20_COEFFS = {0: -1.0, 2: 5.0, 5: -3.0, 13: -1.5, 20: 0.5}


def make_lasso_data(cfg: Lasso1DConfig):
    """Equispaced samples of the true polynomial plus seeded Gaussian noise.

    Returns ``(Phi, f_clean, f_noisy, delta)`` with ``delta`` the realized
    data-error norm.
    """
    lo, hi = cfg.sample_interval
    samples = np.linspace(lo, hi, cfg.n_samples)
    phi = vandermonde(samples, cfg.degree)
    f_clean = phi.apply(cfg.coefficient_vector())
    rng = np.random.default_rng(cfg.seed)
    noise = cfg.noise_std * rng.standard_normal(cfg.n_samples)
    f_noisy = f_clean + noise
    delta = float(np.linalg.norm(f_clean - f_noisy))
    return phi, f_clean, f_noisy, delta


def run_lasso_experiment(cfg: Lasso1DConfig, out_dir: str | None = None,
                         max_iters: int = 1_000_000, grad_tol: float = 1e-12,
                         record_every: int = 16, verify_tol: float = 1e-6,
                         command: str = "lasso1d") -> dict:
    """Compute and verify the certificate for a polynomial regression setup.

    Runs accelerated descent with the step size ``1/||Phi||^2``, checks the
    one-norm subdifferential membership of ``Phi^T v`` a-posteriori, and
    derives the noise-adapted weight and exact range data.
    """
    timings = {}
    t0 = time.perf_counter()
    phi, f_clean, f_noisy, delta = make_lasso_data(cfg)
    w_true = cfg.coefficient_vector()
    timings["data"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solve_cfg = SolveConfig(max_iters=max_iters, grad_tol=grad_tol,
                            tau=1.0 / phi.norm_bound ** 2, record_every=record_every)
    report = solve_source_gd(w_true, phi, ProxFunctional("l1"), solve_cfg)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    p = phi.adjoint(report.v)
    check = verify_l1_subgradient(p, w_true, verify_tol)
    if delta > 0 and report.v_norm > 0:
        est = error_estimate(report.v, delta)
        alpha_star, bound = est.alpha_star, est.bound
        g_alpha = range_data(w_true, phi, report.v, alpha_star)
    else:
        alpha_star, bound = 0.0, 0.0
        g_alpha = f_clean.copy()
    timings["verify"] = time.perf_counter() - t0

    lo, hi = cfg.sample_interval
    summary = {
        "experiment": "lasso1d",
        "degree": cfg.degree,
        "n_samples": cfg.n_samples,
        "noise_std": cfg.noise_std,
        "sample_interval": [lo, hi],
        "seed": cfg.seed,
        "delta": delta,
        "v_norm": report.v_norm,
        "iterations": report.iterations,
        "termination": report.termination,
        "final_grad_norm": report.final_grad_norm,
        "alpha_star": alpha_star,
        "error_bound": bound,
        "capped": report.termination == "max_iters",
        "verify": {
            "passed": bool(check.passed),
            "tol": check.tol,
            "max_group_norm": check.max_group_norm,
            "support_mismatch": check.support_mismatch,
        },
    }
    result = {"summary": summary, "report": report, "check": check,
              "phi": phi, "f_clean": f_clean, "f_noisy": f_noisy,
              "g_alpha": g_alpha, "w_true": w_true, "dual_certificate": p}

    if out_dir is not None:
        t0 = time.perf_counter()
        os.makedirs(out_dir, exist_ok=True)
        samples = np.linspace(lo, hi, cfg.n_samples)
        fileio.write_series_csv(os.path.join(out_dir, "series.csv"), {
            "sample": samples, "f_clean": f_clean, "f_noisy": f_noisy,
            "g_alpha": g_alpha, "v": report.v,
        })
        fileio.write_series_csv(os.path.join(out_dir, "coefficients.csv"), {
            "degree": np.arange(cfg.degree + 1), "w_true": w_true,
            "phi_t_v": p, "sign_w_true": np.sign(w_true),
        })
        fileio.write_series_csv(os.path.join(out_dir, "history.csv"), {
            "iteration": np.array([h[0] for h in report.history]),
            "grad_norm": np.array([h[1] for h in report.history]),
        })
        fileio.write_json(os.path.join(out_dir, "summary.json"), summary)
        with open(os.path.join(out_dir, "plot.py"), "w", encoding="ascii") as f:
            f.write(plotscript.LASSO_PLOT)
        timings["write"] = time.perf_counter() - t0
        manifest = fileio.RunManifest(
            command=command, config_hash=fileio.config_hash(lasso_config_dict(cfg)),
            seed=cfg.seed, timings=timings,
            artifacts=["series.csv", "coefficients.csv", "history.csv",
                       "summary.json", "plot.py"])
        fileio.write_manifest(out_dir, manifest)
    return result


def lasso_config_dict(cfg: Lasso1DConfig) -> dict:
    return {
        "experiment": "lasso1d",
        "coeffs_true": {str(k): v for k, v in cfg.coeffs_true.items()},
        "degree": cfg.degree,
        "n_samples": cfg.n_samples,
        "noise_std": cfg.noise_std,
        "sample_interval": list(cfg.sample_interval),
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# 2D Fourier sub-sampling


@dataclass
class Fourier2DConfig:
    """Fourier sub-sampling experiment setup.

    ``mask_kind`` is one of "full", "lowpass" (needs ``mask_width`` and
    optionally ``mask_height``), "learned" (needs ``mask_beta``), or "file"
    (needs ``mask_path``).  Budgets are per stage.
    """

    image_source: str = "shepp_logan"
    image_path: str | None = None
    size: tuple = (64, 64)
    mask_kind: str = "full"
    mask_width: int | None = None
    mask_height: int | None = None
    mask_beta: float | None = None
    mask_path: str | None = None
    alpha: float = 0.5
    cd_max_iters: int = 1000
    cd_tol: float = 0.0
    pdhg_max_iters: int = 1000
    pdhg_tol: float = 0.0
    palm_max_iters: int = 1000
    verify_tol: float = 1e-6
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        n_y, n_x = self.size
        if n_y < 2 or n_x < 2:
            raise ConfigurationError("size must be at least 2x2")
        if self.image_source not in ("shepp_logan", "textured", "file"):
            raise ConfigurationError(f"unknown image source {self.image_source!r}")
        if self.image_source == "file" and not self.image_path:
            raise ConfigurationError("image_source 'file' needs image_path")
        if self.mask_kind not in ("full", "lowpass", "learned", "file"):
            raise ConfigurationError(f"unknown mask kind {self.mask_kind!r}")
        if self.mask_kind == "lowpass":
            if not self.mask_width:
                raise ConfigurationError("lowpass mask needs mask_width")
            w = self.mask_width
            h = self.mask_height if self.mask_height else w
            if w > n_x or h > n_y:
                raise ConfigurationError("lowpass block does not fit the grid")
        if self.mask_kind == "learned" and (self.mask_beta is None or self.mask_beta <= 0):
            raise ConfigurationError("learned mask needs a positive mask_beta")
        if self.mask_kind == "file" and not self.mask_path:
            raise ConfigurationError("mask_kind 'file' needs mask_path")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")


def fourier_config_dict(cfg: Fourier2DConfig) -> dict:
    return {
        "experiment": "fourier2d",
        "image_source": cfg.image_source,
        "image_path": cfg.image_path,
        "size": list(cfg.size),
        "mask_kind": cfg.mask_kind,
        "mask_width": cfg.mask_width,
        "mask_height": cfg.mask_height,
        "mask_beta": cfg.mask_beta,
        "mask_path": cfg.mask_path,
        "alpha": cfg.alpha,
        "cd_max_iters": cfg.cd_max_iters,
        "cd_tol": cfg.cd_tol,
        "pdhg_max_iters": cfg.pdhg_max_iters,
        "pdhg_tol": cfg.pdhg_tol,
        "palm_max_iters": cfg.palm_max_iters,
        "verify_tol": cfg.verify_tol,
        "seed": cfg.seed,
    }


def _load_image(cfg: Fourier2DConfig) -> np.ndarray:
    n_y, n_x = cfg.size
    if cfg.image_source == "shepp_logan":
        return shepp_logan(n_y, n_x)
    if cfg.image_source == "textured":
        return textured_image(n_y, n_x)
    img = fileio.load_grayscale(cfg.image_path)
    if img.shape != (n_y, n_x):
        raise InputError(
            f"image file is {img.shape}, config wants {(n_y, n_x)}")
    return img


def _build_mask(cfg: Fourier2DConfig, u_true: np.ndarray):
    """Returns (mask, palm_report_or_None)."""
    if cfg.mask_kind == "full":
        return full_mask(cfg.size), None
    if cfg.mask_kind == "lowpass":
        h = cfg.mask_height if cfg.mask_height else cfg.mask_width
        return lowpass_mask(cfg.size, cfg.mask_width, h), None
    if cfg.mask_kind == "file":
        grid = fileio.read_pfm(cfg.mask_path)
        if grid.ndim != 2 or grid.shape != tuple(cfg.size):
            raise InputError("mask file does not match the configured size")
        if not np.all(np.isfinite(grid)):
            raise InputError("mask file has non-finite values")
        return SamplingMask(grid != 0), None
    palm_cfg = SolveConfig(max_iters=cfg.palm_max_iters, grad_tol=0.0,
                           record_every=cfg.record_every)
    palm = solve_palm(u_true, grad2(*cfg.size), ProxFunctional("group_l21"),
                      cfg.mask_beta, palm_cfg)
    return extract_mask(palm.v), palm


def _certificate_stage(u_true, mask, cfg: Fourier2DConfig):
    """Coordinate descent plus a-posteriori verification for one mask."""
    fwd = fourier_sampling(mask)
    a = grad2(*u_true.shape)
    cd_cfg = SolveConfig(max_iters=cfg.cd_max_iters, grad_tol=cfg.cd_tol,
                         record_every=cfg.record_every)
    report = solve_range_cd(u_true, fwd, a, ProxFunctional("group_l21"), cd_cfg)
    backproj = fwd.adjoint(report.v)
    imag_res = float(np.linalg.norm(np.imag(
        np.fft.ifft2(np.where(mask.grid, report.v, 0), norm="ortho"))))
    check = verify_tv_subgradient(backproj, report.q, u_true, cfg.verify_tol)
    g_alpha = range_data(u_true, fwd, report.v, cfg.alpha)
    pdhg_cfg = SolveConfig(max_iters=cfg.pdhg_max_iters, grad_tol=cfg.pdhg_tol,
                           record_every=cfg.record_every)
    problem = VarRegProblem(K=fwd, data=g_alpha, alpha=cfg.alpha, A=a)
    solution, dual, pdhg_report = solve_pdhg(problem, pdhg_cfg)
    baseline = fwd.adjoint(fwd.apply(u_true))
    u_norm = float(np.linalg.norm(u_true))
    return {
        "fwd": fwd,
        "report": report,
        "backprojection": backproj,
        "imag_residual": imag_res,
        "check": check,
        "g_alpha": g_alpha,
        "solution": solution,
        "pdhg_dual": dual,
        "pdhg_report": pdhg_report,
        "baseline": baseline,
        "rel_error": float(np.linalg.norm(solution - u_true)) / u_norm,
        "baseline_rel_error": float(np.linalg.norm(baseline - u_true)) / u_norm,
        "q_max_norm": float(np.sqrt(np.sum(report.q ** 2, axis=-1)).max()),
    }


def _stage_summary(stage, mask):
    return {
        "mask_count": mask.count,
        "mask_fraction": mask.count / mask.grid.size,
        "residual": stage["report"].final_grad_norm,
        "cd_termination": stage["report"].termination,
        "cd_iterations": stage["report"].iterations,
        "v_norm": stage["report"].v_norm,
        "imag_residual": stage["imag_residual"],
        "q_max_norm": stage["q_max_norm"],
        "pdhg_metric": stage["pdhg_report"].final_grad_norm,
        "pdhg_iterations": stage["pdhg_report"].iterations,
        "rel_error": stage["rel_error"],
        "baseline_rel_error": stage["baseline_rel_error"],
        "verify": {
            "passed": bool(stage["check"].passed),
            "tol": stage["check"].tol,
            "max_group_norm": stage["check"].max_group_norm,
            "support_mismatch": stage["check"].support_mismatch,
            "residual": stage["check"].residual,
        },
    }


def _artifact_verify_tol(out_dir: str) -> float | None:
    """Smallest ladder tolerance at which the stored artifacts re-verify."""
    u = fileio.read_pfm(os.path.join(out_dir, "u_true.pfm")).astype(float)
    v = fileio.read_pfm(os.path.join(out_dir, "backprojection.pfm")).astype(float)
    q = fileio.field_from_pfm(fileio.read_pfm(os.path.join(out_dir, "q.pfm")))
    for tol in _VERIFY_LADDER:
        if verify_tv_subgradient(v, q, u, tol).passed:
            return tol
    return None


def _write_fourier_artifacts(out_dir, u_true, mask, stage):
    os.makedirs(out_dir, exist_ok=True)
    arts = []

    def put(name, array, fmt="pfm"):
        fileio.write_image(os.path.join(out_dir, name), array, fmt)
        arts.append(name)
        if fmt == "pgm16":
            arts.append(name + ".json")

    put("u_true.pfm", u_true)
    put("u_true.pgm", u_true, "pgm16")
    put("mask.pfm", mask.grid.astype(float))
    put("v_re.pfm", np.real(stage["report"].v))
    put("v_im.pfm", np.imag(stage["report"].v))
    put("backprojection.pfm", stage["backprojection"])
    put("q.pfm", stage["report"].q)
    put("q_norm.pfm", np.sqrt(np.sum(stage["report"].q ** 2, axis=-1)))
    put("g_alpha_re.pfm", np.real(stage["g_alpha"]))
    put("g_alpha_im.pfm", np.imag(stage["g_alpha"]))
    put("solution.pfm", stage["solution"])
    put("solution.pgm", stage["solution"], "pgm16")
    put("baseline.pfm", stage["baseline"])
    for name, rep in (("cd_history.csv", stage["report"]),
                      ("pdhg_history.csv", stage["pdhg_report"])):
        fileio.write_series_csv(os.path.join(out_dir, name), {
            "iteration": np.array([h[0] for h in rep.history]),
            "metric": np.array([h[1] for h in rep.history]),
        })
        arts.append(name)
    return arts


def run_fourier_experiment(cfg: Fourier2DConfig, out_dir: str | None = None,
                           command: str = "fourier2d") -> dict:
    """Certificate computation, verification and range-data sanity check for
    one sampling pattern."""
    timings = {}
    t0 = time.perf_counter()
    u_true = _load_image(cfg)
    mask, palm = _build_mask(cfg, u_true)
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stage = _certificate_stage(u_true, mask, cfg)
    timings["solve"] = time.perf_counter() - t0

    summary = {
        "experiment": "fourier2d",
        "image_source": cfg.image_source,
        "size": list(cfg.size),
        "mask_kind": cfg.mask_kind,
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "phantom_variant": PHANTOM_VARIANT if cfg.image_source == "shepp_logan" else None,
        **_stage_summary(stage, mask),
    }
    if palm is not None:
        summary["palm_nnz"] = palm.nnz

    result = {"summary": summary, "u_true": u_true, "mask": mask, **stage}
    if palm is not None:
        result["palm_report"] = palm

    if out_dir is not None:
        t0 = time.perf_counter()
        arts = _write_fourier_artifacts(out_dir, u_true, mask, stage)
        summary["artifact_verify_tol"] = _artifact_verify_tol(out_dir)
        fileio.write_json(os.path.join(out_dir, "metrics.json"), summary)
        arts.append("metrics.json")
        with open(os.path.join(out_dir, "plot.py"), "w", encoding="ascii") as f:
            f.write(plotscript.FOURIER_PLOT)
        arts.append("plot.py")
        timings["write"] = time.perf_counter() - t0
        manifest = fileio.RunManifest(
            command=command, config_hash=fileio.config_hash(fourier_config_dict(cfg)),
            seed=cfg.seed, timings=timings, artifacts=arts)
        fileio.write_manifest(out_dir, manifest)
    return result


def tune_mask_beta(u_true: np.ndarray, target_fraction: float,
                   betas, palm_max_iters: int = 1000) -> float:
    """Pick the sparsity weight whose learned mask density is closest to target.

    Deterministic: runs the mask-learning stage for each candidate weight and
    compares the resulting nonzero fractions.
    """
    a = grad2(*u_true.shape)
    prox_h = ProxFunctional("group_l21")
    best_beta, best_gap = None, float("inf")
    for beta in betas:
        rep = solve_palm(u_true, a, prox_h, float(beta),
                         SolveConfig(max_iters=palm_max_iters, grad_tol=0.0,
                                     record_every=max(1, palm_max_iters)))
        frac = extract_mask(rep.v).count / u_true.size
        gap = abs(frac - target_fraction)
        if gap < best_gap:
            best_beta, best_gap = float(beta), gap
    return best_beta


def run_optimal_sampling(cfg: Fourier2DConfig, out_dir: str | None = None,
                         command: str = "optimal-sampling") -> dict:
    """Learn a sampling pattern, then benchmark it against equal-cardinality
    low-pass and largest-coefficient patterns."""
    if cfg.mask_kind != "learned" or cfg.mask_beta is None:
        raise ConfigurationError("optimal sampling needs mask_kind 'learned' and a beta")
    timings = {}
    t0 = time.perf_counter()
    u_true = _load_image(cfg)
    learned_mask, palm = _build_mask(cfg, u_true)
    count = learned_mask.count
    low_mask = lowpass_mask_count(cfg.size, count)
    big_mask = largest_coefficient_mask(u_true, count)
    timings["learn"] = time.perf_counter() - t0

    stages, stage_summaries = {}, {}
    for name, mask in (("learned", learned_mask), ("lowpass", low_mask),
                       ("largest", big_mask)):
        t0 = time.perf_counter()
        stages[name] = _certificate_stage(u_true, mask, cfg)
        stage_summaries[name] = _stage_summary(stages[name], mask)
        timings[f"stage_{name}"] = time.perf_counter() - t0

    err = {name: s["rel_error"] for name, s in stage_summaries.items()}
    ordering = {
        "learned_le_lowpass": err["learned"] <= err["lowpass"],
        "learned_le_largest": err["learned"] <= err["largest"],
        "largest_le_lowpass": err["largest"] <= err["lowpass"],
    }
    exceptions = [k for k, ok in ordering.items() if not ok]

    summary = {
        "experiment": "optimal-sampling",
        "image_source": cfg.image_source,
        "size": list(cfg.size),
        "beta": cfg.mask_beta,
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "phantom_variant": PHANTOM_VARIANT if cfg.image_source == "shepp_logan" else None,
        "palm_nnz": palm.nnz,
        "mask_count": count,
        "mask_fraction": count / learned_mask.grid.size,
        "stages": stage_summaries,
        "ordering": ordering,
        "ordering_exceptions": exceptions,
    }
    result = {"summary": summary, "u_true": u_true, "palm_report": palm,
              "masks": {"learned": learned_mask, "lowpass": low_mask,
                        "largest": big_mask},
              "stages": stages}

    if out_dir is not None:
        t0 = time.perf_counter()
        os.makedirs(out_dir, exist_ok=True)
        arts = []
        fileio.write_image(os.path.join(out_dir, "u_true.pfm"), u_true)
        arts.append("u_true.pfm")
        fileio.write_image(os.path.join(out_dir, "vt_re.pfm"), np.real(palm.v))
        fileio.write_image(os.path.join(out_dir, "vt_im.pfm"), np.imag(palm.v))
        arts += ["vt_re.pfm", "vt_im.pfm"]
        for name, mask in (("learned", learned_mask), ("lowpass", low_mask),
                           ("largest", big_mask)):
            fileio.write_image(os.path.join(out_dir, f"mask_{name}.pfm"),
                               mask.grid.astype(float))
            fileio.write_image(os.path.join(out_dir, f"solution_{name}.pfm"),
                               stages[name]["solution"])
            arts += [f"mask_{name}.pfm", f"solution_{name}.pfm"]
        # mask_id order matches the "stages" block: 0 learned, 1 lowpass, 2 largest
        fileio.write_series_csv(os.path.join(out_dir, "metric_table.csv"), {
            "mask_id": np.arange(3),
            "count": np.array([learned_mask.count, low_mask.count, big_mask.count]),
            "rel_error": np.array([err["learned"], err["lowpass"], err["largest"]]),
            "v_norm": np.array([stage_summaries[n]["v_norm"]
                                for n in ("learned", "lowpass", "largest")]),
            "residual": np.array([stage_summaries[n]["residual"]
                                  for n in ("learned", "lowpass", "largest")]),
        })
        arts.append("metric_table.csv")
        fileio.write_json(os.path.join(out_dir, "metrics.json"), summary)
        arts.append("metrics.json")
        with open(os.path.join(out_dir, "plot.py"), "w", encoding="ascii") as f:
            f.write(plotscript.SAMPLING_PLOT)
        arts.append("plot.py")
        timings["write"] = time.perf_counter() - t0
        manifest = fileio.RunManifest(
            command=command, config_hash=fileio.config_hash(fourier_config_dict(cfg)),
            seed=cfg.seed, timings=timings, artifacts=arts)
        fileio.write_manifest(out_dir, manifest)
    return result
