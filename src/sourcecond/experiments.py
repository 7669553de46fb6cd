"""End-to-end experiment drivers: data synthesis, solves, verification, artifacts.

Three drivers are provided: sparse polynomial regression in 1D, Fourier
sub-sampling of images with a total-variation penalty, and learning of the
Fourier sampling pattern itself.  Each driver returns its results in memory
and, when given an output directory, writes a deterministic artifact set plus
a JSON metric summary and a run manifest.  An output directory that cannot be
made raises ``ConfigurationError`` before the driver does any work.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from . import fileio, plotscript
from .errors import ConfigurationError, InputError, VerificationError
from .functionals import ProxFunctional, _magnitudes, verify_l1_subgradient, verify_tv_subgradient
from .operators import (SamplingMask, dft2, full_mask, fourier_sampling, grad2,
                        lowpass_mask, norm, vandermonde)
from .solvers import (SolveConfig, _fits, check_fields, extract_mask, range_data, solve_palm,
                      solve_range_cd, solve_source_gd)
from .varreg import VarRegProblem, error_estimate, norm_ratio, solve_pdhg

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


def _first_entries(shape, count: int, order) -> SamplingMask:
    """Pattern of the first ``count`` entries of the flat grid in ``order``."""
    if count < 1 or count > shape[0] * shape[1]:
        raise InputError("count out of range")
    grid = np.zeros(shape[0] * shape[1], dtype=bool)
    grid[order[:count]] = True
    return SamplingMask(grid.reshape(shape))


def lowpass_mask_count(shape, count: int) -> SamplingMask:
    """Low-pass pattern with exactly ``count`` entries, filled center outwards."""
    return _first_entries(shape, count, _freq_order_key(shape)[2])


def largest_coefficient_mask(u: np.ndarray, count: int) -> SamplingMask:
    """Pattern of the ``count`` largest-magnitude Fourier coefficients of ``u``."""
    mag = np.abs(dft2(u)).ravel()
    ky, kx, _ = _freq_order_key(u.shape)
    cheb = np.maximum(np.abs(ky), np.abs(kx)).ravel()
    return _first_entries(u.shape, count, np.lexsort((kx.ravel(), ky.ravel(), cheb, -mag)))


# ---------------------------------------------------------------------------
# independent solves in forked processes


def _child_count(n_items: int) -> int:
    """Children that ``_fork_map`` forks at once for ``n_items``: one fewer
    than the items, at most one per usable CPU, and none on one CPU or
    without ``os.fork``."""
    if n_items < 2 or not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(n_items - 1, cpus) if cpus > 1 else 0


def _child(fn, arg, read: int, write: int) -> None:
    """The body of a forked child: run ``fn(arg)``, send ``(True, result)``
    or ``(False, exception)`` back as one pickle through ``write`` and end
    the process.  It writes no file and never returns into its caller."""
    status = 1
    try:
        os.close(read)
        try:
            outcome = (True, fn(arg))
        except Exception as exc:
            try:  # the parent must be able to rebuild what it is sent
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            outcome = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fork_map(fn, items) -> list:
    """``[fn(arg) for _, arg in items]`` for independent ``(label, arg)``
    items, run by this process and forked children at once.

    The items run in waves of ``c + 1``, where ``c`` is ``_child_count``.
    This process runs the first item of a wave, and every other item of the
    wave runs in a child of its own, which sends its result back through its
    own pipe and ends.  This process then reads and reaps the wave's
    children in item order, and on any path out kills and reaps those that
    are left.  The results come back in item order.

    As in the loop, the exception of the first item (in item order) that
    raised is raised here, and no later wave starts.  A child that ends
    without sending raises ``RuntimeError``, naming its item's label.
    """
    wave = _child_count(len(items)) + 1
    results = []
    children = []  # (pid, read end of its pipe, label) until reaped
    try:
        for start in range(0, len(items), wave):
            for label, arg in items[start + 1:start + wave]:
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    _child(fn, arg, read, write)
                os.close(write)
                children.append((pid, os.fdopen(read, "rb"), label))
            results.append(fn(items[start][1]))
            while children:
                pid, pipe, label = children[0]
                with pipe:
                    try:
                        ok, value = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # nothing, or not all, was sent
                        ok, value = False, None
                _, status = os.waitpid(pid, 0)
                children.pop(0)
                if not ok and value is None:
                    value = RuntimeError(f"the process running {label} ended "
                                         f"without a result (wait status {status})")
                if not ok:
                    raise value
                results.append(value)
    finally:
        if children:
            import signal
            for pid, pipe, _ in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


# ---------------------------------------------------------------------------
# run output


def _stop_if_diverged(report, solver: str) -> None:
    """Raise ``VerificationError`` for a diverged solve (a NaN stopping
    metric): it certifies nothing, so the run stops before it writes an
    artifact."""
    if report.termination == "diverged":
        raise VerificationError(
            f"{solver} diverged at iteration {report.iterations}: its metric is NaN")


def _history_columns(report, metric: str) -> dict:
    return {"iteration": np.array([h[0] for h in report.history]),
            metric: np.array([h[1] for h in report.history])}


def _non_finite_key(value, key: str = "") -> str | None:
    """Dotted key of the first NaN or infinite float in a JSON-bound value
    (dicts and lists are searched), or None if there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else key
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for name, item in items:
        found = _non_finite_key(item, f"{key}.{name}" if key else str(name))
        if found is not None:
            return found
    return None


_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _float32_peak(array) -> float:
    """Largest finite magnitude in ``array`` (0 for none): a float map casts
    it to float32, where anything above ``_FLOAT32_MAX`` turns infinite."""
    magnitude = np.abs(np.asarray(array, dtype=float))
    return float(np.max(magnitude, where=np.isfinite(magnitude), initial=0.0))


def _remove_file(path: str) -> None:
    """Remove the file an earlier run left at ``path``, if any, before it is
    written again.  Truncating a file to rewrite it in place can wait on the
    flush of its old blocks (ext4 flushes a file replaced that way, its
    ``auto_da_alloc`` default); a new file does not."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _check_out_dir(out_dir: str | None) -> None:
    """Raise ``ConfigurationError`` unless the first existing ancestor of
    ``out_dir`` (itself, if it exists) is a directory; ``None`` passes.
    Each driver calls this before any work, so a bad path costs no solve."""
    if out_dir is None:
        return
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigurationError(f"cannot write to {out_dir!r}: {path!r} is not a directory")


def _write_run(out_dir: str, command: str, config: dict, seed: int, timings: dict,
               artifacts: dict, summary: dict) -> None:
    """Write a run's artifacts in order, then its manifest.

    ``artifacts`` maps file names to payloads, and the extension picks the
    writer: ``.pfm``/``.pgm`` images, ``.csv`` column dicts, ``.json`` dicts,
    ``.py`` text.  A payload may be a zero-argument callable, called in turn,
    so that a summary can read back the files written before it.  The
    manifest records the hash of ``config`` and the run's ``seed``.  A file
    that an earlier run left under a name written here is removed first.

    ``out_dir`` is checked first (``_check_out_dir``).  The run's ``summary``
    and its ``.pfm`` payloads are checked next, and a failed check raises
    ``VerificationError`` before any file or directory is made.  Standard
    JSON has no NaN or infinity, so a non-finite summary value is refused,
    naming its key; a float map stores float32, so a finite entry beyond
    float32's range is refused, naming its artifact.
    """
    _check_out_dir(out_dir)
    key = _non_finite_key(summary)
    if key is not None:
        raise VerificationError(
            f"summary value {key} is not a finite number; no artifact was written")
    for name, payload in artifacts.items():
        peak = _float32_peak(payload) if name.endswith(".pfm") else 0.0
        if peak > _FLOAT32_MAX:
            raise VerificationError(f"{name} holds {peak:.3g}, beyond float32's range; "
                                    "no artifact was written")
    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for name, payload in artifacts.items():
        if callable(payload):
            payload = payload()
        path = os.path.join(out_dir, name)
        ext = os.path.splitext(name)[1]
        files = [name, name + ".json"] if ext == ".pgm" else [name]  # with its sidecar
        for file in files:
            _remove_file(os.path.join(out_dir, file))
        if ext == ".pfm":
            fileio.write_pfm(path, payload)
        elif ext == ".pgm":
            fileio.write_pgm16(path, payload)
        elif ext == ".csv":
            fileio.write_series_csv(path, payload)
        elif ext == ".json":
            fileio.write_json(path, payload)
        elif ext == ".py":
            with open(path, "w", encoding="ascii") as f:
                f.write(payload)
        names += files
    timings["write"] = time.perf_counter() - t0
    _remove_file(os.path.join(out_dir, "manifest.json"))
    fileio.write_manifest(out_dir, command, config, seed, timings, names)


# ---------------------------------------------------------------------------
# 1D polynomial regression


def _degree(key) -> int | None:
    """A ``coeffs_true`` key as its degree: an int, or a string of one as
    JSON writes it (``"2"``); None for any other key."""
    try:
        degree = int(key) if isinstance(key, str) else key
    except ValueError:
        return None
    return degree if _fits(degree, int) and str(degree) == str(key) else None


@dataclass
class Lasso1DConfig:
    """Sparse polynomial-coefficient recovery setup.

    Samples default to the unit interval: certificates on symmetric intervals
    come out almost free (tiny norm), so [0, 1] is the regime in which the
    low- vs high-degree contrast is meaningful.  The last four fields set the
    accelerated-descent solve and its a-posteriori check; ``budget``, the
    solve's ``SolveConfig``, is built here and is no field (nor hashed).
    """

    coeffs_true: dict = field(default_factory=lambda: {0: -1.0, 2: 5.0, 5: -3.0})
    degree: int = 75
    n_samples: int = 50
    noise_std: float = 0.1
    sample_interval: tuple[float, float] = (0.0, 1.0)
    seed: int = 0
    max_iters: int = 1_000_000
    grad_tol: float = 1e-12
    record_every: int = 16
    verify_tol: float = 1e-6

    def __post_init__(self):
        check_fields(self)
        coeffs = {_degree(k): v for k, v in self.coeffs_true.items()}
        if (None in coeffs or len(coeffs) < len(self.coeffs_true)
                or not all(_fits(v, float) for v in coeffs.values())):
            raise ConfigurationError(f"bad config value: coeffs_true={self.coeffs_true!r} needs "
                                     "distinct integer degrees and finite numbers")
        self.coeffs_true = {k: float(v) for k, v in coeffs.items()}
        self.sample_interval = tuple(self.sample_interval)
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be at least 1")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be nonnegative")
        if self.coeffs_true and min(self.coeffs_true) < 0:
            raise ConfigurationError("coeffs_true keys must be nonnegative degrees")
        if self.coeffs_true and max(self.coeffs_true) > self.degree:
            raise ConfigurationError("degree must cover every nonzero coefficient")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.verify_tol < 0:
            raise ConfigurationError("verify_tol must be nonnegative")
        self.budget = SolveConfig(max_iters=self.max_iters, grad_tol=self.grad_tol,
                                  record_every=self.record_every)

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
    data-error norm.  Data that overflow (an entry of ``Phi``, a noisy
    sample or ``delta`` not finite) are an input error, and a ``Phi`` whose
    norm bound overflows is refused by ``MatrixMap``.
    """
    lo, hi = cfg.sample_interval
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        samples = np.linspace(lo, hi, cfg.n_samples)
        phi = vandermonde(samples, cfg.degree)
        f_clean = phi.apply(cfg.coefficient_vector())
        rng = np.random.default_rng(cfg.seed)
        noise = cfg.noise_std * rng.standard_normal(cfg.n_samples)
        f_noisy = f_clean + noise
        delta = norm(f_clean - f_noisy)
    if not (np.all(np.isfinite(phi.matrix)) and np.all(np.isfinite(f_noisy))
            and math.isfinite(delta)):
        raise InputError("the lasso data overflow: shrink the sample interval, "
                         "the coefficients or the noise")
    return phi, f_clean, f_noisy, delta


def run_lasso_experiment(cfg: Lasso1DConfig, out_dir: str | None = None) -> dict:
    """Compute and verify the certificate for a polynomial regression setup.

    Runs accelerated descent (step ``1/||Phi||^2``), checks the
    one-norm subdifferential membership of ``Phi^T v`` a-posteriori, and
    derives the noise-adapted weight and exact range data.
    """
    _check_out_dir(out_dir)
    timings = {}
    t0 = time.perf_counter()
    phi, f_clean, f_noisy, delta = make_lasso_data(cfg)
    w_true = cfg.coefficient_vector()
    timings["data"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = solve_source_gd(w_true, phi, ProxFunctional("l1"), cfg.budget)
    _stop_if_diverged(report, "accelerated descent")
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    p = phi.adjoint(report.v)
    check = verify_l1_subgradient(p, w_true, cfg.verify_tol)
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
        "verify": dataclasses.asdict(check),
    }
    result = {"summary": summary, "report": report, "check": check,
              "phi": phi, "f_clean": f_clean, "f_noisy": f_noisy,
              "g_alpha": g_alpha, "w_true": w_true, "dual_certificate": p}

    if out_dir is not None:
        config = {"experiment": "lasso1d", **dataclasses.asdict(cfg)}
        _write_run(out_dir, "lasso1d", config, cfg.seed, timings, {
            "series.csv": {"sample": np.linspace(lo, hi, cfg.n_samples),
                           "f_clean": f_clean, "f_noisy": f_noisy,
                           "g_alpha": g_alpha, "v": report.v},
            "coefficients.csv": {"degree": np.arange(cfg.degree + 1), "w_true": w_true,
                                 "phi_t_v": p, "sign_w_true": np.sign(w_true)},
            "history.csv": _history_columns(report, "grad_norm"),
            "summary.json": summary,
            "plot.py": plotscript.LASSO_PLOT,
        }, summary)
    return result


# ---------------------------------------------------------------------------
# 2D Fourier sub-sampling


@dataclass
class Fourier2DConfig:
    """Fourier sub-sampling experiment setup.

    ``mask_kind`` is one of "full", "lowpass" (needs ``mask_width``, the
    side of a square block), "learned" (needs ``mask_beta``), or "file"
    (needs ``mask_path``).  Budgets are per stage: ``palm_budget``,
    ``cd_budget`` and ``pdhg_budget``, built here and no fields (nor hashed).
    PALM and PDHG take a zero tolerance and range-CD takes ``cd_tol``.
    """

    image_source: str = "shepp_logan"
    image_path: str | None = None
    size: tuple[int, int] = (64, 64)
    mask_kind: str = "full"
    mask_width: int | None = None
    mask_beta: float | None = None
    mask_path: str | None = None
    alpha: float = 0.5
    cd_max_iters: int = 1000
    cd_tol: float = 0.0
    pdhg_max_iters: int = 1000
    palm_max_iters: int = 1000
    verify_tol: float = 1e-6
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        check_fields(self)
        self.size = tuple(self.size)
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
            if self.mask_width > min(n_y, n_x):
                raise ConfigurationError("lowpass block does not fit the grid")
        if self.mask_kind == "learned" and (self.mask_beta is None or self.mask_beta <= 0):
            raise ConfigurationError("learned mask needs a positive mask_beta")
        if self.mask_kind == "file" and not self.mask_path:
            raise ConfigurationError("mask_kind 'file' needs mask_path")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.verify_tol < 0:
            raise ConfigurationError("verify_tol must be nonnegative")
        self.palm_budget = SolveConfig(max_iters=self.palm_max_iters, grad_tol=0.0,
                                       record_every=self.record_every)
        self.cd_budget = SolveConfig(max_iters=self.cd_max_iters, grad_tol=self.cd_tol,
                                     record_every=self.record_every)
        self.pdhg_budget = SolveConfig(max_iters=self.pdhg_max_iters, grad_tol=0.0,
                                       record_every=self.record_every)


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
        return lowpass_mask(cfg.size, cfg.mask_width), None
    if cfg.mask_kind == "file":
        grid = fileio.read_pfm(cfg.mask_path)
        if grid.ndim != 2 or grid.shape != tuple(cfg.size):
            raise InputError("mask file does not match the configured size")
        if not np.all(np.isfinite(grid)):
            raise InputError("mask file has non-finite values")
        return SamplingMask(grid != 0), None
    palm = solve_palm(u_true, grad2(*cfg.size), ProxFunctional("group_l21"),
                      cfg.mask_beta, cfg.palm_budget)
    _stop_if_diverged(palm, "PALM")
    return extract_mask(palm.v), palm


def _certificate_stage(u_true, mask, cfg: Fourier2DConfig) -> dict:
    """Range-CD certificate, its a-posteriori check and PDHG on its range
    data for one mask: the stage's arrays, reports and ``"summary"`` block."""
    fwd = fourier_sampling(mask)
    a = grad2(*u_true.shape)
    report = solve_range_cd(u_true, fwd, a, ProxFunctional("group_l21"), cfg.cd_budget)
    _stop_if_diverged(report, "range-CD")
    backproj = fwd.adjoint(report.v)
    check = verify_tv_subgradient(backproj, report.q, u_true, cfg.verify_tol)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends as "diverged"
        g_alpha = range_data(u_true, fwd, report.v, cfg.alpha)
        problem = VarRegProblem(K=fwd, data=g_alpha, alpha=cfg.alpha, A=a)
        solution, _, pdhg_report = solve_pdhg(problem, cfg.pdhg_budget)
    _stop_if_diverged(pdhg_report, "PDHG")
    baseline = fwd.adjoint(fwd.apply(u_true))
    # per-pixel norms of the field on the interior grid, where its groups are
    q_norm = _magnitudes(report.q[:, :-1, :-1], True)
    imag_res = np.imag(dft2(report.v, "inverse"))
    summary = {
        "mask_count": mask.count,
        "mask_fraction": mask.count / mask.grid.size,
        "residual": report.final_grad_norm,
        "cd_termination": report.termination,
        "cd_iterations": report.iterations,
        "v_norm": report.v_norm,
        "imag_residual": norm(imag_res),
        "q_max_norm": check.max_group_norm,
        "pdhg_metric": pdhg_report.final_grad_norm,
        "pdhg_iterations": pdhg_report.iterations,
        "rel_error": norm_ratio(solution - u_true, u_true),
        "baseline_rel_error": norm_ratio(baseline - u_true, u_true),
        "verify": dataclasses.asdict(check),
    }
    return {"summary": summary, "report": report, "check": check,
            "backprojection": backproj, "q_norm": q_norm, "g_alpha": g_alpha,
            "solution": solution, "pdhg_report": pdhg_report, "baseline": baseline}


def _header(cfg: Fourier2DConfig, experiment: str) -> dict:
    """The summary keys that a Fourier study takes from its config."""
    return {
        "experiment": experiment,
        "image_source": cfg.image_source,
        "size": list(cfg.size),
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "phantom_variant": PHANTOM_VARIANT if cfg.image_source == "shepp_logan" else None,
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


def run_fourier_experiment(cfg: Fourier2DConfig, out_dir: str | None = None) -> dict:
    """Certificate computation, verification and range-data sanity check for
    one sampling pattern."""
    _check_out_dir(out_dir)
    timings = {}
    t0 = time.perf_counter()
    u_true = _load_image(cfg)
    mask, palm = _build_mask(cfg, u_true)
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stage = _certificate_stage(u_true, mask, cfg)
    timings["solve"] = time.perf_counter() - t0

    summary = {**_header(cfg, "fourier2d"), "mask_kind": cfg.mask_kind, **stage["summary"]}
    result = {**stage, "summary": summary, "u_true": u_true, "mask": mask}
    if palm is not None:
        summary["palm_nnz"] = int(np.count_nonzero(palm.v))
        result["palm_report"] = palm

    if out_dir is not None:
        def metrics():
            summary["artifact_verify_tol"] = _artifact_verify_tol(out_dir)
            return summary

        report, pdhg_report = stage["report"], stage["pdhg_report"]
        config = {"experiment": "fourier2d", **dataclasses.asdict(cfg)}
        _write_run(out_dir, "fourier2d", config, cfg.seed, timings, {
            "u_true.pfm": u_true,
            "u_true.pgm": u_true,
            "mask.pfm": mask.grid.astype(float),
            "v_re.pfm": np.real(report.v),
            "v_im.pfm": np.imag(report.v),
            "backprojection.pfm": stage["backprojection"],
            "q.pfm": fileio.field_to_pfm(report.q),
            "q_norm.pfm": stage["q_norm"],
            "g_alpha_re.pfm": np.real(stage["g_alpha"]),
            "g_alpha_im.pfm": np.imag(stage["g_alpha"]),
            "solution.pfm": stage["solution"],
            "solution.pgm": stage["solution"],
            "baseline.pfm": stage["baseline"],
            "cd_history.csv": _history_columns(report, "metric"),
            "pdhg_history.csv": _history_columns(pdhg_report, "metric"),
            "metrics.json": metrics,
            "plot.py": plotscript.FOURIER_PLOT,
        }, summary)
    return result


def tune_mask_beta(u_true: np.ndarray, target_fraction: float,
                   betas, palm_max_iters: int = 1000) -> float:
    """Pick the sparsity weight whose learned mask density is closest to target.

    Deterministic: runs the mask-learning stage for each candidate weight and
    compares the resulting nonzero fractions.  Raises ``InputError`` for no
    candidates or a ``target_fraction`` outside ``[0, 1]``.
    """
    betas = [float(beta) for beta in betas]
    if not betas:
        raise InputError("betas must hold at least one candidate weight")
    if not 0.0 <= target_fraction <= 1.0:
        raise InputError(f"target_fraction must lie in [0, 1], got {target_fraction}")
    a = grad2(*u_true.shape)
    prox_h = ProxFunctional("group_l21")
    budget = SolveConfig(max_iters=palm_max_iters, grad_tol=0.0,
                         record_every=max(1, palm_max_iters))

    def density(beta):
        rep = solve_palm(u_true, a, prox_h, beta, budget)
        return extract_mask(rep.v).count / u_true.size

    fractions = _fork_map(density, [(f"beta {beta}", beta) for beta in betas])
    # of equally close weights, min keeps the first
    return min(zip(betas, fractions), key=lambda bf: abs(bf[1] - target_fraction))[0]


def run_optimal_sampling(cfg: Fourier2DConfig, out_dir: str | None = None) -> dict:
    """Learn a sampling pattern, then benchmark it against equal-cardinality
    low-pass and largest-coefficient patterns."""
    if cfg.mask_kind != "learned":
        raise ConfigurationError("optimal sampling needs mask_kind 'learned' and a beta")
    _check_out_dir(out_dir)
    timings = {}
    t0 = time.perf_counter()
    u_true = _load_image(cfg)
    learned_mask, palm = _build_mask(cfg, u_true)
    count = learned_mask.count
    low_mask = lowpass_mask_count(cfg.size, count)
    big_mask = largest_coefficient_mask(u_true, count)
    timings["learn"] = time.perf_counter() - t0

    # this order is the "stages" block's and metric_table.csv's mask_id order
    masks = {"learned": learned_mask, "lowpass": low_mask, "largest": big_mask}

    def timed_stage(mask):  # timed in the process that runs it
        t0 = time.perf_counter()
        return _certificate_stage(u_true, mask, cfg), time.perf_counter() - t0

    stages = {}
    for name, (stage, seconds) in zip(masks, _fork_map(timed_stage, list(masks.items()))):
        stages[name] = stage
        timings[f"stage_{name}"] = seconds
    stage_summaries = {name: stage["summary"] for name, stage in stages.items()}

    err = {name: s["rel_error"] for name, s in stage_summaries.items()}
    ordering = {
        "learned_le_lowpass": err["learned"] <= err["lowpass"],
        "learned_le_largest": err["learned"] <= err["largest"],
        "largest_le_lowpass": err["largest"] <= err["lowpass"],
    }
    exceptions = [k for k, ok in ordering.items() if not ok]

    summary = {
        **_header(cfg, "optimal-sampling"),
        "beta": cfg.mask_beta,
        "palm_nnz": int(np.count_nonzero(palm.v)),
        "mask_count": count,
        "mask_fraction": count / learned_mask.grid.size,
        "stages": stage_summaries,
        "ordering": ordering,
        "ordering_exceptions": exceptions,
    }
    result = {"summary": summary, "u_true": u_true, "palm_report": palm,
              "masks": masks, "stages": stages}

    if out_dir is not None:
        artifacts = {"u_true.pfm": u_true, "vt_re.pfm": np.real(palm.v),
                     "vt_im.pfm": np.imag(palm.v)}
        for name, mask in masks.items():
            artifacts[f"mask_{name}.pfm"] = mask.grid.astype(float)
            artifacts[f"solution_{name}.pfm"] = stages[name]["solution"]
        artifacts["metric_table.csv"] = {
            "mask_id": np.arange(len(masks)),
            "count": np.array([mask.count for mask in masks.values()]),
            "rel_error": np.array(list(err.values())),
            "v_norm": np.array([s["v_norm"] for s in stage_summaries.values()]),
            "residual": np.array([s["residual"] for s in stage_summaries.values()]),
        }
        artifacts["metrics.json"] = summary
        artifacts["plot.py"] = plotscript.SAMPLING_PLOT
        config = {"experiment": "optimal-sampling", **dataclasses.asdict(cfg)}
        _write_run(out_dir, "optimal-sampling", config, cfg.seed, timings, artifacts, summary)
    return result
