import json
import os

import numpy as np
import pytest

from sourcecond import fileio
from sourcecond.cli import main


def write_cfg(tmp_path, name, payload):
    path = str(tmp_path / name)
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


class TestPhantomCommand:
    def test_writes_image_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "p")
        assert main(["phantom", "--size", "64", "--out", out]) == 0
        for name in ("phantom.pgm", "phantom.pgm.json", "phantom.pfm", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        img = fileio.read_pfm(os.path.join(out, "phantom.pfm"))
        assert img.shape == (64, 64)


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert main(["phantom", "--wat"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.json", {"size": [32, 32], "nope": 1})
        assert main(["fourier2d", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        path = str(tmp_path / "broken.json")
        open(path, "w").write("{not json")
        assert main(["lasso1d", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_inadmissible_steps_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"size": [16, 16]})
        # negative tolerance is a configuration error
        assert main(["fourier2d", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--tol", "-1"]) == 2


class TestMalformedInputs:
    """Bad image and mask files are input errors (exit 2), not crashes."""

    def run_with_image(self, tmp_path, image_path, **extra):
        cfg = write_cfg(tmp_path, "c.json", {
            "image_source": "file", "image_path": image_path, "size": [16, 16],
            "cd_max_iters": 5, "pdhg_max_iters": 5, **extra})
        return main(["fourier2d", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_truncated_pfm(self, tmp_path):
        path = str(tmp_path / "img.pfm")
        fileio.write_pfm(path, np.ones((16, 16)))
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 10)
        assert self.run_with_image(tmp_path, path) == 2

    def test_pfm_with_non_integer_size(self, tmp_path):
        path = str(tmp_path / "img.pfm")
        with open(path, "wb") as f:
            f.write(b"Pf\n16 x6\n-1.0\n" + np.ones(256, dtype="<f4").tobytes())
        assert self.run_with_image(tmp_path, path) == 2

    def test_image_with_nan_pixel(self, tmp_path):
        img = np.linspace(0.0, 1.0, 256).reshape(16, 16)
        img[3, 4] = np.nan
        path = str(tmp_path / "img.pfm")
        fileio.write_pfm(path, img)
        assert self.run_with_image(tmp_path, path) == 2

    def test_nan_mask_file(self, tmp_path):
        image = str(tmp_path / "img.pfm")
        fileio.write_pfm(image, np.linspace(0.0, 1.0, 256).reshape(16, 16))
        mask = str(tmp_path / "mask.pfm")
        fileio.write_pfm(mask, np.full((16, 16), np.nan))
        assert self.run_with_image(tmp_path, image, mask_kind="file", mask_path=mask) == 2


class TestLassoCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "l.json", {
            "coeffs_true": {"0": -1.0, "2": 5.0, "5": -3.0},
            "degree": 75, "n_samples": 50, "noise_std": 0.1,
            "sample_interval": [0.0, 1.0], "seed": 0,
            "max_iters": 100000, "grad_tol": 1e-10, "record_every": 16,
        })
        out = str(tmp_path / "run")
        assert main(["lasso1d", "--config", cfg, "--out", out]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["verify"]["passed"]
        assert os.path.exists(os.path.join(out, "series.csv"))

    def test_cli_overrides(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "l.json", {"degree": 20, "n_samples": 12,
                                             "noise_std": 0.0})
        out = str(tmp_path / "run")
        assert main(["lasso1d", "--config", cfg, "--out", out,
                     "--max-iters", "10", "--seed", "5"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["seed"] == 5
        assert summary["iterations"] <= 10


class TestVerifyCommand:
    @pytest.fixture
    def stored_run(self, tmp_path):
        from sourcecond.experiments import Fourier2DConfig, run_fourier_experiment

        out = str(tmp_path / "f")
        cfg = Fourier2DConfig(size=(32, 32), mask_kind="full", cd_max_iters=20_000,
                              cd_tol=1e-10, pdhg_max_iters=200, record_every=500)
        res = run_fourier_experiment(cfg, out_dir=out)
        return out, res

    def test_verify_passes_on_stored_artifacts(self, stored_run, capsys):
        out, res = stored_run
        tol = res["summary"]["artifact_verify_tol"]
        rc = main(["verify", "--u", os.path.join(out, "u_true.pfm"),
                   "--v", os.path.join(out, "backprojection.pfm"),
                   "--q", os.path.join(out, "q.pfm"), "--tol", str(tol)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["passed"]

    def test_verify_fails_on_corrupted_dual(self, stored_run, tmp_path, capsys):
        out, _ = stored_run
        q = fileio.field_from_pfm(fileio.read_pfm(os.path.join(out, "q.pfm")))
        q[2, 2] = (2.0, 2.0)
        bad = str(tmp_path / "bad_q.pfm")
        fileio.write_pfm(bad, q)
        rc = main(["verify", "--u", os.path.join(out, "u_true.pfm"),
                   "--v", os.path.join(out, "backprojection.pfm"),
                   "--q", bad, "--tol", "1e-6"])
        assert rc == 3

    def test_verify_with_pgm_input(self, stored_run, tmp_path):
        out, res = stored_run
        # re-expressing the image as pgm16 keeps the check passing at a loose tol
        u = fileio.read_pfm(os.path.join(out, "u_true.pfm"))
        pgm = str(tmp_path / "u.pgm")
        fileio.write_pgm16(pgm, np.asarray(u, dtype=float))
        rc = main(["verify", "--u", pgm,
                   "--v", os.path.join(out, "backprojection.pfm"),
                   "--q", os.path.join(out, "q.pfm"), "--tol", "1e-3"])
        assert rc == 0


class TestEnvOutputRoot:
    def test_sourceforge_out_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCEFORGE_OUT", str(tmp_path / "root"))
        assert main(["phantom", "--size", "32"]) == 0
        assert os.path.exists(tmp_path / "root" / "phantom" / "phantom.pfm")
