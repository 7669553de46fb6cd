"""Benchmark of the sourcecond certificate pipeline.

    python3 perfbench/run.py --workload denoise-128 --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  Each workload goes through the public entry
point ``sourcecond.cli.main`` in a fresh interpreter, as often as fits into
``--seconds`` (at least twice; a further run starts only when it should end
within half a run of the deadline), and every run's outputs are checked against
reference values (see workloads.py).  Workloads, metrics, units and bounds are
listed in BENCHMARK.json at the root.

With ``--trace 0`` the end-to-end metrics are reported:

* ``wall_s``: median wall time of one run, config to written artifacts;
* ``setup_s``: median over nine fresh interpreters of ``import sourcecond``
  plus building the workload's inputs, excluded from ``wall_s``;
* ``peak_rss_mb``: peak resident memory of the process doing the runs.

Runs that raise or fail their check count in ``failed`` out of ``attempted``;
their share is printed as ``fail_frac``.  With ``--trace 1`` untraced and
traced runs take turns, and the per-layer metrics are reported (see
tracer.py), together with the tracing overhead against the untraced runs.
The traced run fails when a layer expected on the workload records no call,
or when the layers' self times do not add up to the traced wall time.

Exact counts (calls, iterations, bytes written, per-iteration counts) repeat
between runs.  A per-iteration count is the ratio of two exact counts, so it
carries the solver's fixed start-up work; with n iterations they are today:
range-CD 5 + 2/n FFTs (five per iteration, two for the starting metric),
PALM 2 + 2/n (one FFT pair per step, one for the final probe), PDHG 2 + 1/n
(one pair per step, one in the data-prox set-up), and accelerated descent
2 + 2/record_every + 2/n matrix-vector products (one product pair per step,
one more per gradient-norm check, one at the start).

Every result also goes with a record of the machine and environment, printed
before the result line and kept in .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import WORKLOADS, make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 9
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(mode, plan_path, *extra, timeout):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, plan_path, *extra],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, check=True,
        text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path):
    try:
        with open(path, "r", encoding="ascii") as f:
            return f.read().strip()
    except OSError:
        return None


def _git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", head[5:]))
    return head


def environment(args, tree):
    """Machine and software record; read-only from /proc and /sys."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if index.startswith("index"):
            fields = [_read(os.path.join(base, index, f)) for f in ("level", "type", "size")]
            caches.append("L{} {} {}".format(*fields))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_workers": {var: "1" for var in THREAD_VARS},
        "git_commit": _git_commit(), "source_tree": tree,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "sourcecond", "__init__.py")):
        print(f"error: no sourcecond sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="ascii") as f:
        declared = json.load(f)
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    plan = make_plan(args.workload, args.seed, ROOT, WORK)
    if args.seed == 0:
        with open(os.path.join(HERE, "reference.json"), "r", encoding="ascii") as f:
            plan["reference"] = json.load(f)[args.workload]
    else:
        plan["reference"] = None
    plan_path = os.path.join(WORK, "inputs", f"{args.workload}-{args.seed}.plan.json")
    with open(plan_path, "w", encoding="ascii") as f:
        json.dump(plan, f)

    def remaining():
        return DEADLINE_S - (time.perf_counter() - started)

    record = {"environment": environment(args, plan["tree"])}
    if args.trace:
        traced = _worker("trace", plan_path, str(args.seconds), timeout=remaining())
        units, values = traced["units"], traced["metrics"]
        record["spans"] = traced.pop("spans")
        record["missing_names"] = traced["missing"]
    else:
        measured = _worker("run", plan_path, str(args.seconds), timeout=remaining())
        units = measured["units"]
        # The runs above left the byte code compiled and the files cached.
        setups = [_worker("setup", plan_path, timeout=remaining())["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        walls = [u["wall_s"] for u in units if u["wall_s"] is not None]
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": measured["peak_rss_mb"]}
        record["wall_s_runs"] = walls
        record["setup_s_runs"] = setups

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(1 for u in units if u["errors"])
    result = {"correct": failed == 0, "attempted": len(units), "failed": failed,
              "metrics": metrics}
    record.update(units=units, result=result)

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-{args.seed}-"
                                            f"trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for u in units:
        for error in u["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
    print("env " + json.dumps(record["environment"], sort_keys=True))
    if not args.trace:
        lo, hi = _quartiles(record["wall_s_runs"])
        print(f"wall_s {values['wall_s']:.4f} s median of {len(record['wall_s_runs'])} "
              f"runs, quartiles {lo:.4f}-{hi:.4f}")
        print(f"setup_s {values['setup_s']:.4f} s median of {SETUP_REPEATS}")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    print(f"fail_frac {failed / len(units):.4f} ({failed} of {len(units)} runs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
