"""A run's numbers do not depend on the BLAS thread count.

Each test runs the same work in fresh interpreters under
``OPENBLAS_NUM_THREADS=1`` and ``=2`` and compares the bytes.  A norm summed
by OpenBLAS's threaded ``ddot`` differs in its last bits between the two on a
host with two or more CPUs; ``operators.norm`` sums without BLAS.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_at(threads, args, cwd=None):
    """Standard output of ``python args`` with ``sourcecond`` importable and
    OpenBLAS at ``threads`` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_field_norm_has_the_same_bytes_at_any_thread_count():
    # a 2 x 400 x 400 dual field: large enough for OpenBLAS to thread a ddot
    script = ("import numpy as np\n"
              "from sourcecond.operators import norm\n"
              "x = np.random.default_rng(0).standard_normal((2, 400, 400))\n"
              "print(np.float64(norm(x)).tobytes().hex(), "
              "np.float64(norm(x[0] + 1j * x[1])).tobytes().hex())\n")
    one, two = (run_at(t, ["-c", script]) for t in (1, 2))
    assert one == two


def test_fourier_run_has_the_same_bytes_at_any_thread_count(tmp_path):
    # a 128 x 128 denoising run: range-CD to a tolerance, PDHG on a budget,
    # and the summary's errors and residuals, all taken by operators.norm
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"size": [128, 128], "mask_kind": "full",
                                  "cd_max_iters": 400, "cd_tol": 3.84e-14,
                                  "pdhg_max_iters": 200}))
    printed, metrics = [], []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        printed.append(run_at(threads, ["-m", "sourcecond.cli", "fourier2d", "--config",
                                        str(config), "--out", str(out)]))
        metrics.append((out / "metrics.json").read_bytes())
    assert json.loads(printed[0])["cd_termination"] == "tolerance"
    assert printed[0] == printed[1]
    assert metrics[0] == metrics[1]
