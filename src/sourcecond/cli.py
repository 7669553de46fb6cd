"""Command-line surface.

Subcommands: ``lasso1d``, ``fourier2d``, ``optimal-sampling``, ``verify``,
``phantom``.  Configs are JSON with a strict schema (unknown keys are errors).
Exit codes: 0 success; 2 configuration/usage error, or lasso data that
overflow; 3 verification failure, a solve that diverged, a run summary with
a value that is not finite, or a float map with a finite entry beyond
float32's range (nothing is written then).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import experiments, fileio
from .errors import ConfigurationError, InputError, VerificationError
from .functionals import verify_tv_subgradient

# command -> (config class, driver name, {flag: config fields the flag sets}).
# The driver is looked up in ``experiments`` at call time, so that a wrapper
# installed on the module sees the call.
_EXPERIMENTS = {
    "lasso1d": (experiments.Lasso1DConfig, "run_lasso_experiment",
                {"max_iters": ("max_iters",), "tol": ("grad_tol",)}),
    "fourier2d": (experiments.Fourier2DConfig, "run_fourier_experiment",
                  {"max_iters": ("cd_max_iters",), "tol": ("cd_tol",)}),
    "optimal-sampling": (experiments.Fourier2DConfig, "run_optimal_sampling",
                         {"max_iters": ("cd_max_iters", "palm_max_iters"),
                          "tol": ("cd_tol",)}),
}


def _reject_constant(name):
    raise ConfigurationError(f"config value {name} is not a finite number")


def _load_config(args, cls, overrides: dict):
    """Read ``--config``, apply the command-line overrides and build ``cls``.

    The dataclass is the schema: its fields are the allowed keys, and it
    refuses a value that does not fit its field (``ConfigurationError``).
    """
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                raw = json.load(f, parse_constant=_reject_constant)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
    if args.seed is not None:
        raw["seed"] = args.seed
    for flag, names in overrides.items():
        value = getattr(args, flag)
        if value is not None:
            raw.update(dict.fromkeys(names, value))
    if args.command == "optimal-sampling":
        raw.setdefault("mask_kind", "learned")
    return cls(**raw)


def _out(args) -> str:
    """``--out``, else ``$SOURCEFORGE_OUT/<command>`` or ``runs/<command>``;
    the drivers refuse a path that cannot be a directory."""
    return args.out or os.path.join(os.environ.get("SOURCEFORGE_OUT") or "runs", args.command)


def _add_output(parser):
    parser.add_argument("--out", help="output directory (default: $SOURCEFORGE_OUT/<cmd>)")
    parser.add_argument("--seed", type=int, help="seed of the run; overrides the config's")


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    _add_output(parser)
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
    _add_output(p)
    p.add_argument("--size", type=int, default=400, help="grid size (square)")

    p = sub.add_parser("verify", help="re-check a stored certificate pair")
    p.add_argument("--u", required=True, help="image file (pgm16 or pfm)")
    p.add_argument("--v", required=True, help="image-space certificate (pfm)")
    p.add_argument("--q", required=True, help="dual field (pfm, two channels)")
    p.add_argument("--tol", type=float, default=1e-6)
    return parser


def _cmd_experiment(args) -> int:
    cls, driver, overrides = _EXPERIMENTS[args.command]
    cfg = _load_config(args, cls, overrides)
    result = getattr(experiments, driver)(cfg, out_dir=_out(args))
    print(json.dumps(result["summary"], sort_keys=True))
    return 0


def _cmd_phantom(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ConfigurationError("seed must be nonnegative")
    out = _out(args)
    t0 = time.perf_counter()
    img = experiments.shepp_logan(args.size)
    experiments._write_run(out, "phantom", {"size": args.size}, seed,
                           {"setup": time.perf_counter() - t0},
                           {"phantom.pgm": img, "phantom.pfm": img}, {})
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
    print(json.dumps(dataclasses.asdict(check), sort_keys=True))
    return 0 if check.passed else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command in _EXPERIMENTS:
            return _cmd_experiment(args)
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
