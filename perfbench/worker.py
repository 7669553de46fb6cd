"""One measurement process, started by run.py in a fresh interpreter.

    python3 worker.py setup PLAN           time import + input building once
    python3 worker.py run PLAN SECONDS     untraced workload runs
    python3 worker.py trace PLAN SECONDS   untraced and traced runs in turn

PLAN is the JSON file run.py wrote for the workload and seed.  The result is
printed as one JSON line.
"""

import time

T0 = time.perf_counter()  # before anything heavy is imported

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# Share of the traced wall time by which the summed self times may miss it.
TRACE_SLACK = 0.01


def _import_program(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import sourcecond
    from sourcecond import cli, experiments, fileio, operators  # noqa: F401

    if not os.path.abspath(sourcecond.__file__).startswith(os.path.join(root, "src")):
        raise SystemExit(f"imported sourcecond from {sourcecond.__file__}, "
                         f"not from the checkout at {root}")
    return sourcecond


def setup(plan):
    """A fresh-interpreter import plus the workload's inputs, as the
    experiment functions build them: image, mask and operators with their
    norm bounds, or the Vandermonde data."""
    sc = _import_program(plan["root"])
    cfg = plan["config"]
    if plan["workload"] == "lasso-deg20":
        keys = ("coeffs_true", "degree", "n_samples", "noise_std", "sample_interval", "seed")
        sc.experiments.make_lasso_data(
            sc.experiments.Lasso1DConfig(**{k: cfg[k] for k in keys}))
    else:
        size = tuple(cfg["size"])
        if cfg["image_source"] == "file":
            sc.fileio.load_grayscale(cfg["image_path"])
        else:
            sc.experiments.shepp_logan(*size)
        sc.operators.fourier_sampling(sc.operators.full_mask(size))
        sc.operators.grad2(*size)
    return {"setup_s": time.perf_counter() - T0}


def _unit(plan, cli, run):
    """One workload run through ``cli.main``; returns (wall seconds, errors)."""
    import contextlib
    import io
    import shutil

    from workloads import check_outputs

    shutil.rmtree(plan["out"], ignore_errors=True)
    buf = io.StringIO()
    wall = None
    try:
        with contextlib.redirect_stdout(buf):
            code, wall = run(cli.main, plan["argv"])
        errors = check_outputs(plan, code, buf.getvalue(), plan["reference"])
    except Exception as exc:  # a failed run is counted, not fatal
        errors = [f"{type(exc).__name__}: {exc}"]
    return wall, errors


def _timed(fn, argv):
    start = time.perf_counter()
    code = fn(argv)
    return code, time.perf_counter() - start


def _another(units, deadline):
    """Whether to start another run: only when, at the median run time so
    far, it should end within half a run of the deadline."""
    import statistics

    walls = [u["wall_s"] for u in units if u["wall_s"] is not None]
    slack = statistics.median(walls) / 2 if walls else 0.0
    return time.perf_counter() + slack < deadline


def measure(plan, seconds):
    import resource

    sc = _import_program(plan["root"])
    deadline = time.perf_counter() + seconds
    units = []
    while len(units) < 2 or _another(units, deadline):
        wall, errors = _unit(plan, sc.cli, _timed)
        units.append({"wall_s": wall, "errors": errors})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"units": units, "peak_rss_mb": peak_kib / 1024.0}


def trace(plan, seconds):
    """Untraced and traced runs in turn, so that drift in machine speed
    falls on both sides of the overhead estimate alike."""
    import statistics

    from tracer import Tracer
    from workloads import WORKLOADS

    sc = _import_program(plan["root"])
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    expected = WORKLOADS[plan["workload"]]["layers"]

    def traced(fn, argv):
        start = time.perf_counter()
        code = tracer.root_span(fn, argv)
        return code, time.perf_counter() - start

    units, per_unit, untraced_walls = [], [], []
    while len(units) < 2 or _another(units, deadline):
        if len(units) % 2 == 0:
            wall, errors = _unit(plan, sc.cli, _timed)
            if wall is not None:
                untraced_walls.append(wall)
        else:
            tracer.install(sc)
            try:
                wall, errors = _unit(plan, sc.cli, traced)
            finally:
                tracer.uninstall()
            if wall is not None:
                errors = errors + tracer.coverage_errors(expected, wall, TRACE_SLACK)
                per_unit.append(dict(tracer.metrics(), **{"trace.wall_s": wall}))
        units.append({"wall_s": wall, "errors": errors, "traced": len(units) % 2 == 1})
    metrics = {}
    if per_unit:
        metrics = {k: statistics.median(m[k] for m in per_unit) for k in per_unit[0]}
        if untraced_walls:
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                           - statistics.median(untraced_walls))
    spans = [{"id": i, "name": k, "start": s, "end": e, "parent": p}
             for i, k, s, e, p in tracer.spans]
    return {"units": units, "metrics": metrics, "missing": tracer.missing,
            "spans": spans}


def main(argv):
    mode, plan_path = argv[0], argv[1]
    with open(plan_path, "r", encoding="ascii") as f:
        plan = json.load(f)
    if mode == "setup":
        result = setup(plan)
    else:
        result = (measure if mode == "run" else trace)(plan, float(argv[2]))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
