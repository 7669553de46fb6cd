"""Command-line surface.

Subcommands: ``lasso1d``, ``fourier2d``, ``optimal-sampling``, ``verify``,
``phantom``.  Configs are JSON with a strict schema (unknown keys are errors).
Exit codes: 0 success, 2 configuration/usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import experiments, fileio
from .errors import ConfigurationError, InputError, VerificationError
from .functionals import verify_tv_subgradient

_LASSO_KEYS = {"coeffs_true", "degree", "n_samples", "noise_std",
               "sample_interval", "seed", "max_iters", "grad_tol",
               "record_every", "verify_tol"}
_FOURIER_KEYS = {"image_source", "image_path", "size", "mask_kind",
                 "mask_width", "mask_height", "mask_beta", "mask_path",
                 "alpha", "cd_max_iters", "cd_tol", "pdhg_max_iters",
                 "pdhg_tol", "palm_max_iters", "verify_tol", "seed",
                 "record_every"}


def _load_config(path: str, allowed: set) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {unknown}")
    return raw


def _out_dir(args, command: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get("SOURCEFORGE_OUT")
    if root:
        return os.path.join(root, command)
    return os.path.join("runs", command)


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default: $SOURCEFORGE_OUT/<cmd>)")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--max-iters", type=int, dest="max_iters",
                        help="overrides the primary solver budget")
    parser.add_argument("--tol", type=float, help="overrides the primary solver tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sourcecond",
        description="Compute and verify source/range condition certificates "
                    "for variational regularisation problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lasso1d", help="sparse polynomial regression study")
    _add_common(p)

    p = sub.add_parser("fourier2d", help="Fourier sub-sampling study")
    _add_common(p)

    p = sub.add_parser("optimal-sampling", help="learn a Fourier sampling pattern")
    _add_common(p)

    p = sub.add_parser("phantom", help="emit the built-in head phantom")
    _add_common(p)
    p.add_argument("--size", type=int, default=400, help="grid size (square)")

    p = sub.add_parser("verify", help="re-check a stored certificate pair")
    p.add_argument("--u", required=True, help="image file (pgm16 or pfm)")
    p.add_argument("--v", required=True, help="image-space certificate (pfm)")
    p.add_argument("--q", required=True, help="dual field (pfm, two channels)")
    p.add_argument("--tol", type=float, default=1e-6)
    return parser


def _cmd_lasso(args) -> int:
    raw = _load_config(args.config, _LASSO_KEYS) if args.config else {}
    solver = {k: raw.pop(k) for k in ("max_iters", "grad_tol", "record_every",
                                      "verify_tol") if k in raw}
    if "coeffs_true" in raw:
        raw["coeffs_true"] = {int(k): float(v) for k, v in raw["coeffs_true"].items()}
    if "sample_interval" in raw:
        raw["sample_interval"] = tuple(raw["sample_interval"])
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = experiments.Lasso1DConfig(**raw)
    if args.max_iters is not None:
        solver["max_iters"] = args.max_iters
    if args.tol is not None:
        solver["grad_tol"] = args.tol
    out = _out_dir(args, "lasso1d")
    result = experiments.run_lasso_experiment(cfg, out_dir=out, **solver)
    print(json.dumps(result["summary"], sort_keys=True))
    return 0


def _cmd_fourier(args, command: str) -> int:
    raw = _load_config(args.config, _FOURIER_KEYS) if args.config else {}
    if "size" in raw:
        raw["size"] = tuple(raw["size"])
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.max_iters is not None:
        raw["cd_max_iters"] = args.max_iters
        if command == "optimal-sampling":
            raw["palm_max_iters"] = args.max_iters
    if args.tol is not None:
        raw["cd_tol"] = args.tol
    if command == "optimal-sampling":
        raw.setdefault("mask_kind", "learned")
    cfg = experiments.Fourier2DConfig(**raw)
    out = _out_dir(args, command)
    if command == "optimal-sampling":
        result = experiments.run_optimal_sampling(cfg, out_dir=out, command=command)
    else:
        result = experiments.run_fourier_experiment(cfg, out_dir=out, command=command)
    print(json.dumps(result["summary"], sort_keys=True))
    return 0


def _cmd_phantom(args) -> int:
    if args.config:
        raise ConfigurationError("phantom takes no config file")
    t0 = time.perf_counter()
    img = experiments.shepp_logan(args.size)
    out = _out_dir(args, "phantom")
    os.makedirs(out, exist_ok=True)
    fileio.write_image(os.path.join(out, "phantom.pgm"), img, "pgm16")
    fileio.write_image(os.path.join(out, "phantom.pfm"), img, "pfm")
    manifest = fileio.RunManifest(
        command="phantom",
        config_hash=fileio.config_hash({"size": args.size}),
        seed=args.seed if args.seed is not None else 0,
        artifacts=["phantom.pgm", "phantom.pgm.json", "phantom.pfm"],
        timings={"total": time.perf_counter() - t0})
    fileio.write_manifest(out, manifest)
    print(json.dumps({"size": args.size, "out": out}, sort_keys=True))
    return 0


def _finite(array: np.ndarray, path: str) -> np.ndarray:
    if not np.all(np.isfinite(array)):
        raise InputError(f"{path!r} has non-finite values")
    return array


def _read_image_arg(path: str) -> np.ndarray:
    if path.endswith(".pfm"):
        return _finite(np.asarray(fileio.read_pfm(path), dtype=float), path)
    return _finite(fileio.read_pgm16(path), path)


def _cmd_verify(args) -> int:
    u = _read_image_arg(args.u)
    v = _read_image_arg(args.v)
    q = _finite(fileio.read_pfm(args.q), args.q)
    if q.ndim == 3:
        q = fileio.field_from_pfm(q)
    else:
        raise InputError("dual field file must have two channels")
    check = verify_tv_subgradient(v, q, u, args.tol)
    print(json.dumps({
        "passed": bool(check.passed),
        "tol": check.tol,
        "max_group_norm": check.max_group_norm,
        "support_mismatch": check.support_mismatch,
        "residual": check.residual,
    }, sort_keys=True))
    return 0 if check.passed else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "lasso1d":
            return _cmd_lasso(args)
        if args.command in ("fourier2d", "optimal-sampling"):
            return _cmd_fourier(args, args.command)
        if args.command == "phantom":
            return _cmd_phantom(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
