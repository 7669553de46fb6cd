"""Behaviour lock: the desk configs' summary metrics against a stored golden file.

Each desk config runs through the CLI, and its summary is compared with
``tests/data/golden_desk.json``: iteration counts, terminations and
verification flags exactly, the floating-point metrics at ``RTOL``.  The
tolerance leaves room for FFT rounding across numpy builds, not for a change
of algorithm.

The paper-size runs (``PAPER_RUNS``, 400x400) are locked the same way
against ``tests/data/golden_paper.json``.  They take seconds to minutes each,
so they run only when the environment sets ``SOURCECOND_PAPER_GOLDEN=1``::

    SOURCECOND_PAPER_GOLDEN=1 PYTHONPATH=src python -m pytest -q tests/test_golden.py

Regenerate a file (only in a change that says so) with::

    PYTHONPATH=src python tests/test_golden.py --write          # desk
    PYTHONPATH=src python tests/test_golden.py --write-paper    # paper size
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
GOLDEN_PAPER = os.path.join(ROOT, "tests", "data", "golden_paper.json")
RTOL = 1e-9

# name -> (subcommand, config file)
DESK_RUNS = {
    "fourier_denoise_desk": ("fourier2d", "configs/fourier_denoise_desk.json"),
    "fourier_lowpass_desk": ("fourier2d", "configs/fourier_lowpass_desk.json"),
    "sampling_desk": ("optimal-sampling", "configs/sampling_desk.json"),
    "lasso_deg5": ("lasso1d", "configs/lasso_deg5.json"),
}
PAPER_RUNS = {
    "fourier_denoise_full": ("fourier2d", "configs/fourier_denoise_full.json"),
    "fourier_lowpass_full": ("fourier2d", "configs/fourier_lowpass_full.json"),
    "sampling_full": ("optimal-sampling", "configs/sampling_full.json"),
}
RUNS = {**DESK_RUNS, **PAPER_RUNS}

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
    """Run one desk or paper-size config through the CLI; returns the
    printed summary."""
    command, config = RUNS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([command, "--config", os.path.join(ROOT, config), "--out", out_dir])
    assert rc == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _compare(got, want, where):
    assert got["exact"] == want["exact"], where
    for key, value in want["close"].items():
        assert got["close"][key] == pytest.approx(value, rel=RTOL, abs=0.0), f"{where}: {key}"


def _read(path):
    with open(path, encoding="ascii") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def golden():
    return _read(GOLDEN)


def _check_run(name, want, tmp_path):
    got = pinned_metrics(run_desk(name, str(tmp_path / name)))
    if "stages" in want:
        assert got["exact"] == want["exact"], name
        assert sorted(got["stages"]) == sorted(want["stages"])
        for stage, pins in want["stages"].items():
            _compare(got["stages"][stage], pins, f"{name}/{stage}")
    else:
        _compare(got, want, name)


@pytest.mark.parametrize("name", sorted(DESK_RUNS))
def test_desk_metrics_match_golden(name, golden, tmp_path):
    _check_run(name, golden[name], tmp_path)


@pytest.mark.skipif(os.environ.get("SOURCECOND_PAPER_GOLDEN") != "1",
                    reason="paper-size runs: set SOURCECOND_PAPER_GOLDEN=1")
@pytest.mark.parametrize("name", sorted(PAPER_RUNS))
def test_paper_metrics_match_golden(name, tmp_path):
    _check_run(name, _read(GOLDEN_PAPER)[name], tmp_path)


if __name__ == "__main__":
    import tempfile

    targets = {"--write": (GOLDEN, DESK_RUNS), "--write-paper": (GOLDEN_PAPER, PAPER_RUNS)}
    if len(sys.argv) != 2 or sys.argv[1] not in targets:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write|--write-paper")
    path, runs = targets[sys.argv[1]]
    with tempfile.TemporaryDirectory() as tmp:
        payload = {name: pinned_metrics(run_desk(name, os.path.join(tmp, name)))
                   for name in sorted(runs)}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")
