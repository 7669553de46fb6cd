"""Behaviour lock: the desk configs' summary metrics against a stored golden file.

Each desk config runs through the CLI, and its summary is compared with
``tests/data/golden_desk.json``: iteration counts, terminations and
verification flags exactly, the floating-point metrics at ``RTOL``.  The
tolerance leaves room for FFT rounding across numpy builds, not for a change
of algorithm.

Regenerate the file (only in a change that says so) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import sys

import pytest

from sourcecond.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_desk.json")
RTOL = 1e-9

# name -> (subcommand, config file)
DESK_RUNS = {
    "fourier_denoise_desk": ("fourier2d", "configs/fourier_denoise_desk.json"),
    "fourier_lowpass_desk": ("fourier2d", "configs/fourier_lowpass_desk.json"),
    "sampling_desk": ("optimal-sampling", "configs/sampling_desk.json"),
    "lasso_deg5": ("lasso1d", "configs/lasso_deg5.json"),
}

_STAGE_EXACT = ("cd_iterations", "cd_termination", "pdhg_iterations", "mask_count")
_STAGE_CLOSE = ("v_norm", "residual", "rel_error", "pdhg_metric")


def _stage_pins(s):
    return {
        "exact": {**{k: s[k] for k in _STAGE_EXACT},
                  "verify_passed": s["verify"]["passed"]},
        "close": {k: s[k] for k in _STAGE_CLOSE},
    }


def pinned_metrics(summary):
    """The pinned subset of a run summary, split into exact and close keys."""
    if summary["experiment"] == "lasso1d":
        return {
            "exact": {"iterations": summary["iterations"],
                      "termination": summary["termination"],
                      "verify_passed": summary["verify"]["passed"]},
            "close": {"v_norm": summary["v_norm"],
                      "final_grad_norm": summary["final_grad_norm"]},
        }
    if summary["experiment"] == "optimal-sampling":
        return {
            "exact": {"mask_count": summary["mask_count"],
                      "palm_nnz": summary["palm_nnz"],
                      "ordering": summary["ordering"]},
            "stages": {name: _stage_pins(s) for name, s in summary["stages"].items()},
        }
    return _stage_pins(summary)


def run_desk(name, out_dir):
    """Run one desk config through the CLI; returns the printed summary."""
    command, config = DESK_RUNS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([command, "--config", os.path.join(ROOT, config), "--out", out_dir])
    assert rc == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _compare(got, want, where):
    assert got["exact"] == want["exact"], where
    for key, value in want["close"].items():
        assert got["close"][key] == pytest.approx(value, rel=RTOL, abs=0.0), f"{where}: {key}"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(DESK_RUNS))
def test_desk_metrics_match_golden(name, golden, tmp_path):
    got = pinned_metrics(run_desk(name, str(tmp_path / name)))
    want = golden[name]
    if "stages" in want:
        assert got["exact"] == want["exact"], name
        assert sorted(got["stages"]) == sorted(want["stages"])
        for stage, pins in want["stages"].items():
            _compare(got["stages"][stage], pins, f"{name}/{stage}")
    else:
        _compare(got, want, name)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        payload = {name: pinned_metrics(run_desk(name, os.path.join(tmp, name)))
                   for name in sorted(DESK_RUNS)}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="ascii") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
