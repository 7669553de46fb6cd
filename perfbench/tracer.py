"""Span tracer installed around the program's public calls into each layer.

Wrappers are installed from outside the program: nothing under ``src/``
knows about them.  Several names are bound at import time (``from .x import
y``), so each name is wrapped in every module that looks it up, and
``numpy.fft.fft2``/``ifft2`` are wrapped to catch the direct transforms in
the solvers, the PDHG data prox and the experiment functions.

A span records its layer key, start, end and parent.  A call into the layer
that is already on top of the stack (``write_image`` calling ``write_pfm``,
``FourierSamplingMap.apply`` calling ``fft2``) joins the open span instead of
opening a nested one.  Self time is a span's duration minus its children's.
Per-iteration kernel spans are only aggregated; spans of the other layers are
also kept as records and written out at the end.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

# Layers whose spans happen every solver iteration: aggregated, not recorded.
_HOT = {"operators.fft", "operators.grad", "operators.matvec",
        "functionals.soft_threshold", "functionals.group_prox",
        "functionals.ball_proj"}

# key -> [(module, attribute path), ...]; a class attribute is "Class.method".
_TARGETS = {
    "cli": [("cli", "main")],
    "experiments": [("experiments", "run_fourier_experiment"),
                    ("experiments", "run_optimal_sampling"),
                    ("experiments", "run_lasso_experiment")],
    "experiments.image": [("experiments", "shepp_logan"),
                          ("experiments", "textured_image")],
    "experiments.masks": [("experiments", "lowpass_mask_count"),
                          ("experiments", "largest_coefficient_mask"),
                          ("experiments", "extract_mask")],
    "operators.fft": [("operators", "FourierSamplingMap.apply"),
                      ("operators", "FourierSamplingMap.adjoint")],
    "operators.grad": [("operators", "GradientMap.apply"),
                       ("operators", "GradientMap.adjoint")],
    "operators.matvec": [("operators", "MatrixMap.apply"),
                         ("operators", "MatrixMap.adjoint")],
    "operators.power_norm": [("operators", "power_norm"),
                             ("operators", "_power_norm_matrix")],
    "functionals.soft_threshold": [("functionals", "soft_threshold"),
                                   ("solvers", "soft_threshold")],
    "functionals.group_prox": [("functionals", "group_soft_threshold")],
    "functionals.ball_proj": [("functionals", "project_group_ball"),
                              ("varreg", "project_group_ball")],
    "functionals.verify": [("functionals", "verify_tv_subgradient"),
                           ("functionals", "verify_l1_subgradient"),
                           ("experiments", "verify_tv_subgradient"),
                           ("experiments", "verify_l1_subgradient"),
                           ("cli", "verify_tv_subgradient")],
    "solvers.finish": [("solvers", "_finish"), ("varreg", "_finish")],
    "fileio.write": [("fileio", "write_image"), ("fileio", "write_pfm"),
                     ("fileio", "write_pgm16"), ("fileio", "write_series_csv"),
                     ("fileio", "write_json"), ("fileio", "write_manifest")],
    "fileio.read": [("fileio", "read_pfm"), ("fileio", "read_pgm16"),
                    ("fileio", "load_grayscale"), ("fileio", "field_from_pfm")],
}

# Solvers: key -> (function, its home module, SolveReport from the result).
# The experiment functions look each one up in their own module.
_SOLVERS = {
    "solvers.gd": ("solve_source_gd", "solvers", lambda r: r),
    "solvers.cd": ("solve_range_cd", "solvers", lambda r: r),
    "solvers.palm": ("solve_palm", "solvers", lambda r: r),
    "varreg.pdhg": ("solve_pdhg", "varreg", lambda r: r[2]),
}
_TARGETS.update({key: [(home, name), ("experiments", name)]
                 for key, (name, home, _) in _SOLVERS.items()})

# Files each writer leaves behind, for the byte count.  The manifest is left
# out: the wall-clock timings it records change its length from run to run.
_WRITTEN = {
    "write_pfm": lambda args: [args[0]],
    "write_pgm16": lambda args: [args[0], args[0] + ".json"],
    "write_series_csv": lambda args: [args[0]],
    "write_json": lambda args: [args[0]],
}

ROOT = "bench"


class Tracer:
    """Holds the span stack, per-layer aggregates and exact counters."""

    def __init__(self):
        self._restore = []
        self.missing = []
        self.stats = {}       # key -> [calls, total_s, self_s]
        self.counts = {}      # exact counters, also read by the wrappers
        self.reset()

    def reset(self):
        """Forget the previous root span; the dicts are cleared in place
        because the installed wrappers hold references to them."""
        self.stack = [[ROOT, time.perf_counter(), 0.0, -1]]
        self.stats.clear()
        self.counts.clear()
        self.counts.update({"fft.transforms": 0, "fft.bytes": 0, "write.bytes": 0})
        self.spans = []       # (id, key, start, end, parent id)
        self._ids = itertools.count()

    # -- spans -------------------------------------------------------------

    def call(self, key, fn, args, kwargs):
        stack = self.stack
        if stack[-1][0] == key:
            return fn(*args, **kwargs)
        frame = [key, time.perf_counter(), 0.0, next(self._ids)]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            stack[-1][2] += duration
            agg = self.stats.get(key)
            if agg is None:
                agg = self.stats[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[2]
            if key not in _HOT:
                self.spans.append((frame[3], key, frame[1], end, stack[-1][3]))

    def root_span(self, fn, *args):
        """Run ``fn`` as the root span of a fresh trace."""
        self.reset()
        start = time.perf_counter()
        self.stack[0][1] = start
        result = fn(*args)
        duration = time.perf_counter() - start
        self.stats[ROOT] = [1, duration, duration - self.stack[0][2]]
        return result

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _resolve(self, package, module, path):
        owner = getattr(package, module)
        *cls, attr = path.split(".")
        for name in cls:
            owner = getattr(owner, name)
        if attr not in owner.__dict__:
            raise AttributeError(attr)
        return owner, attr

    def install(self, package):
        """Wrap every target present in ``package``.

        Absent names are listed in ``self.missing``; a layer left with no
        wrapped name records no call and fails the coverage check.
        """
        self.missing = []
        for key, targets in _TARGETS.items():
            for module, path in targets:
                try:
                    owner, attr = self._resolve(package, module, path)
                except AttributeError:
                    self.missing.append(f"{module}.{path}")
                    continue
                fn = owner.__dict__[attr]
                if key in _SOLVERS:
                    wrapper = self._solver(key, fn, _SOLVERS[key][2])
                else:
                    wrapper = self._wrapper(key, fn, attr)
                self._patch(owner, attr, wrapper)
        for name in ("fft2", "ifft2"):
            self._patch(np.fft, name, self._fft(np.fft.__dict__[name]))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrapper(self, key, fn, attr):
        call = self.call
        written = _WRITTEN.get(attr)
        if written is None:
            def wrapper(*args, **kwargs):
                return call(key, fn, args, kwargs)
        else:
            counts = self.counts

            def wrapper(*args, **kwargs):
                result = call(key, fn, args, kwargs)
                counts["write.bytes"] += sum(os.path.getsize(p) for p in written(args))
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _fft(self, fn):
        call, counts = self.call, self.counts

        def wrapper(a, *args, **kwargs):
            result = call("operators.fft", fn, (a,) + args, kwargs)
            counts["fft.transforms"] += 1
            counts["fft.bytes"] += np.asarray(a).nbytes + result.nbytes
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _solver(self, key, fn, report_of):
        call, counts = self.call, self.counts

        def wrapper(*args, **kwargs):
            fft0 = counts["fft.transforms"]
            matvec0 = self.stats.get("operators.matvec", [0])[0]
            result = call(key, fn, args, kwargs)
            for name, delta in (
                    ("iterations", report_of(result).iterations),
                    ("fft", counts["fft.transforms"] - fft0),
                    ("matvec", self.stats.get("operators.matvec", [0])[0] - matvec0)):
                counts[f"{key}.{name}"] = counts.get(f"{key}.{name}", 0) + delta
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the last root span, by their benchmark names."""
        def stat(key, i):
            return self.stats.get(key, [0, 0.0, 0.0])[i]

        def count(name):
            return self.counts.get(name, 0)

        def per_iter(key, value):
            n = count(f"{key}.iterations")
            return value / n if n else 0.0

        out = {
            "operators.fft.calls": count("fft.transforms"),
            "operators.fft.self_s": stat("operators.fft", 2),
            "operators.fft.bytes": count("fft.bytes"),
            "operators.power_norm.self_s": stat("operators.power_norm", 2),
            "experiments.self_s": stat("experiments", 2),
            "experiments.masks_s": stat("experiments.masks", 1),
            "experiments.image_s": stat("experiments.image", 1),
            "fileio.write_s": stat("fileio.write", 1),
            "fileio.write.bytes": count("write.bytes"),
            "fileio.read_s": stat("fileio.read", 1),
            "cli.self_s": stat("cli", 2),
        }
        for key in ("operators.grad", "operators.matvec", "functionals.soft_threshold",
                    "functionals.group_prox", "functionals.ball_proj",
                    "functionals.verify"):
            out[f"{key}.calls"] = stat(key, 0)
            out[f"{key}.self_s"] = stat(key, 2)
        for key in _SOLVERS:
            out[f"{key}.iterations"] = count(f"{key}.iterations")
            out[f"{key}.ms_per_iter"] = 1e3 * per_iter(key, stat(key, 1))
            out[f"{key}.self_s"] = stat(key, 2)
        out["solvers.gd.matvec_per_iter"] = per_iter("solvers.gd", count("solvers.gd.matvec"))
        for key in ("solvers.cd", "solvers.palm", "varreg.pdhg"):
            out[f"{key}.fft_per_iter"] = per_iter(key, count(f"{key}.fft"))
        out["solvers.finish.calls"] = stat("solvers.finish", 0)
        return out

    def coverage_errors(self, expected, wall_s: float, slack: float) -> list:
        """Problems with the split of the last root span.

        A layer expected on the workload recorded no call; the self times of
        all layers plus the root span's own miss ``wall_s`` by more than
        ``slack * wall_s``; or the root span itself (time outside every layer)
        took more than that.
        """
        calls = dict((key, agg[0]) for key, agg in self.stats.items())
        calls["operators.fft"] = self.counts["fft.transforms"]
        errors = [f"layer {key} recorded no call" for key in expected
                  if not calls.get(key)]
        total_self = sum(agg[2] for agg in self.stats.values())
        if abs(total_self - wall_s) > slack * wall_s:
            errors.append(f"self times sum to {total_self:.4f} s, "
                          f"wall is {wall_s:.4f} s")
        if self.stats[ROOT][2] > slack * wall_s:
            errors.append(f"{self.stats[ROOT][2]:.4f} s ran outside every layer")
        return errors
