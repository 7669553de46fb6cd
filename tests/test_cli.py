import itertools
import json
import os
import shutil
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcecond import fileio
from sourcecond.cli import _EXPERIMENTS, _load_config, build_parser, main
from sourcecond.experiments import shepp_logan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    def test_manifest_hashes_the_size(self, tmp_path):
        out = str(tmp_path / "p")
        assert main(["phantom", "--size", "64", "--seed", "5", "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["command"] == "phantom"
        assert manifest["config_hash"] == fileio.config_hash({"size": 64}) == (
            "0321c316eb6dd7911f75810fef3c5c624ef3edc8d82ae2b9cae3e5e0d7e2f5f5")
        assert manifest["seed"] == 5
        assert manifest["artifacts"] == ["phantom.pfm", "phantom.pgm", "phantom.pgm.json"]


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert main(["phantom", "--wat"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--config", "cfg.json"), ("--max-iters", "3"), ("--tol", "0.3")])
    def test_phantom_refuses_solver_flags(self, tmp_path, flag, value):
        # phantom runs no solve and reads no config: it takes --size, --out
        # and --seed only
        out = tmp_path / "o"
        assert main(["phantom", "--size", "16", "--out", str(out), flag, value]) == 2
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.json", {"size": [32, 32], "nope": 1})
        assert main(["fourier2d", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        path = str(tmp_path / "broken.json")
        tmp_path.joinpath("broken.json").write_text("{not json")
        assert main(["lasso1d", "--config", path, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, payload", [
        ("fourier2d", {"size": [64]}),
        ("lasso1d", {"coeffs_true": {"x": 1.0}}),
        ("lasso1d", {"degree": "5"}),
        ("lasso1d", {"coeffs_true": [1]}),
        ("fourier2d", {"cd_tol": "x"}),
        ("lasso1d", {"degree": "5", "coeffs_true": {}}),
        ("fourier2d", {"cd_max_iters": 5.5}),
        ("lasso1d", {"seed": 1.5}),
        ("fourier2d", {"cd_tol": float("nan")}),
        ("fourier2d", {"alpha": float("nan")}),
        ("fourier2d", {"size": [16.5, 16]}),
        ("lasso1d", {"sample_interval": [0.0, "x"]}),
        ("lasso1d", {"coeffs_true": {"0": "1"}}),
        ("lasso1d", {"coeffs_true": {"0": True}}),
        ("lasso1d", {"coeffs_true": {"-1": 2.0, "0": 1.0}}),
        ("lasso1d", {"seed": -1}),
        # integers too large for a float
        ("fourier2d", {"alpha": 10 ** 400}),
        ("fourier2d", {"cd_tol": 10 ** 400}),
        ("lasso1d", {"noise_std": 10 ** 400}),
        ("lasso1d", {"verify_tol": 10 ** 400}),
        ("lasso1d", {"grad_tol": 10 ** 400}),
        ("lasso1d", {"coeffs_true": {"0": 10 ** 400}}),
        # a seed out of range
        ("fourier2d", {"size": [16, 16], "seed": -1, "cd_max_iters": 3, "pdhg_max_iters": 3}),
        ("optimal-sampling", {"seed": -1, "mask_beta": 0.1}),
    ])
    def test_value_of_wrong_type(self, tmp_path, command, payload):
        # json.dump writes NaN as the bare constant the parser must refuse;
        # every value is refused before the run writes anything
        cfg = write_cfg(tmp_path, "bad.json", payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_nan_tolerance_flag(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fourier2d", "--out", str(out), "--tol", "nan"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fourier2d", "lasso1d"])
    def test_negative_verify_tol(self, tmp_path, command):
        cfg = write_cfg(tmp_path, "bad.json", {"verify_tol": -1})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path):
        out = tmp_path / "o"
        assert main(["lasso1d", "--out", str(out), "--seed", "-1"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fourier2d", "phantom"])
    def test_negative_seed_flag_of_other_commands(self, tmp_path, command):
        # the seed reaches no Fourier computation, but it is hashed and
        # reported, so a negative one is refused as lasso1d refuses it
        out = tmp_path / "o"
        assert main([command, "--out", str(out), "--seed", "-1"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, payload", [
        ("fourier2d", {"size": [16, 16], "cd_tol": -1}),
        ("fourier2d", {"size": [16, 16], "pdhg_max_iters": 0}),
        ("fourier2d", {"size": [16, 16], "record_every": 0}),
        ("optimal-sampling", {"size": [16, 16], "mask_beta": 0.08, "pdhg_max_iters": 0}),
        ("optimal-sampling", {"size": [16, 16], "mask_beta": 0.08, "palm_max_iters": 0}),
        ("lasso1d", {"max_iters": 0}),
        ("lasso1d", {"grad_tol": -1}),
        ("lasso1d", {"record_every": 0}),
    ])
    def test_budget_checked_before_any_solve(self, tmp_path, monkeypatch, command, payload):
        from sourcecond import experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the config was checked")

        for name in ("solve_palm", "solve_range_cd", "solve_pdhg", "solve_source_gd"):
            monkeypatch.setattr(experiments, name, no_solve)
        cfg = write_cfg(tmp_path, "bad.json", payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_inadmissible_steps_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"size": [16, 16]})
        # negative tolerance is a configuration error
        assert main(["fourier2d", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--tol", "-1"]) == 2


class TestRunsThatCannotCertify:
    """Data that overflow exit 2 before the solve, and a solve that diverges
    exits 3; neither writes a summary."""

    @pytest.mark.parametrize("command, payload, code", [
        # noise, sample points or coefficients whose data overflow
        ("lasso1d", {"noise_std": 1e308, "degree": 5, "max_iters": 10}, 2),
        ("lasso1d", {"sample_interval": [0.0, 1e300], "degree": 5, "max_iters": 10}, 2),
        # finite matrix, infinite norm bound
        ("lasso1d", {"sample_interval": [0.0, 1e50], "degree": 5, "max_iters": 100}, 2),
        ("lasso1d", {"coeffs_true": {"0": 1e308, "2": 1e308}, "degree": 5,
                     "max_iters": 100}, 2),
        # range data K u + alpha v overflow, and PDHG diverges on them
        ("optimal-sampling", {"alpha": 1e308, "size": [16, 16], "mask_beta": 0.05,
                              "cd_max_iters": 50, "pdhg_max_iters": 50,
                              "palm_max_iters": 50}, 3),
        ("fourier2d", {"alpha": 1e308, "size": [16, 16], "mask_beta": 0.05,
                       "cd_max_iters": 50, "pdhg_max_iters": 50,
                       "palm_max_iters": 50}, 3),
    ])
    def test_exit_code_and_no_summary(self, tmp_path, command, payload, code):
        cfg = write_cfg(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert not (out / "summary.json").exists()
        assert not (out / "metrics.json").exists()

    def test_non_finite_summary_value_writes_nothing(self, tmp_path, capsys,
                                                     monkeypatch):
        # a stage whose relative error came out infinite reaches the writer
        from sourcecond import experiments

        stage = experiments._certificate_stage

        def infinite_error(*args):
            result = stage(*args)
            result["summary"]["rel_error"] = float("inf")
            return result

        monkeypatch.setattr(experiments, "_certificate_stage", infinite_error)
        cfg = write_cfg(tmp_path, "c.json", {"size": [16, 16], "cd_max_iters": 50,
                                             "pdhg_max_iters": 50})
        out = tmp_path / "o"
        assert main(["fourier2d", "--config", cfg, "--out", str(out)]) == 3
        assert "rel_error" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_in_dual_field_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # from its 30th call the prox gives NaN at one interior pixel; with a
        # positive cd_tol range-CD skips the metric's field half, which
        # carries it first, and finds it one step later in K d
        from sourcecond.functionals import ProxFunctional

        prox, calls = ProxFunctional.prox, []

        def planted(self, z, out=None):
            out = prox(self, z, out=out)
            calls.append(None)
            if len(calls) >= 30:
                out[0, 5, 5] = np.nan
            return out

        monkeypatch.setattr(ProxFunctional, "prox", planted)
        cfg = write_cfg(tmp_path, "c.json", {"size": [16, 16], "cd_tol": 1e-13,
                                             "cd_max_iters": 1000, "pdhg_max_iters": 50,
                                             "record_every": 100})
        out = tmp_path / "o"
        assert main(["fourier2d", "--config", cfg, "--out", str(out)]) == 3
        assert "diverged at iteration 30" in capsys.readouterr().err
        assert not out.exists()

    def test_float_map_beyond_float32_writes_nothing(self, tmp_path, capsys):
        # PDHG iterates near 1e200 are finite, and so are their relative
        # change and relative error, but the range data near 1e200 do not fit
        # the float32 of a float map
        cfg = write_cfg(tmp_path, "c.json", {"alpha": 1e200, "size": [16, 16],
                                             "cd_max_iters": 50, "pdhg_max_iters": 50})
        out = tmp_path / "o"
        assert main(["fourier2d", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "g_alpha_re.pfm" in err and "float32" in err
        assert not out.exists()


class TestSummarySchema:
    """The exact key sets of the three summaries, so that a refactor cannot
    drop a key unseen (the golden lock compares values only)."""

    HEADER = {"experiment", "image_source", "size", "alpha", "seed", "phantom_variant"}
    STAGE = {"mask_count", "mask_fraction", "residual", "cd_termination",
             "cd_iterations", "v_norm", "imag_residual", "q_max_norm", "pdhg_metric",
             "pdhg_iterations", "rel_error", "baseline_rel_error", "verify"}
    VERIFY = {"max_group_norm", "support_mismatch", "residual", "tol", "passed"}

    def summary(self, tmp_path, command, payload):
        cfg = write_cfg(tmp_path, "c.json", payload)
        out = str(tmp_path / "run")
        assert main([command, "--config", cfg, "--out", out]) == 0
        name = "summary.json" if command == "lasso1d" else "metrics.json"
        with open(os.path.join(out, name)) as f:
            return json.load(f)

    def test_lasso1d(self, tmp_path):
        s = self.summary(tmp_path, "lasso1d", {"degree": 20, "n_samples": 12,
                                               "max_iters": 50})
        assert set(s) == {"experiment", "degree", "n_samples", "noise_std",
                          "sample_interval", "seed", "delta", "v_norm", "iterations",
                          "termination", "final_grad_norm", "alpha_star",
                          "error_bound", "capped", "verify"}
        assert set(s["verify"]) == self.VERIFY

    @pytest.mark.parametrize("payload, extra", [
        ({"size": [16, 16], "cd_max_iters": 10, "pdhg_max_iters": 10}, set()),
        ({"size": [16, 16], "mask_kind": "learned", "mask_beta": 0.08,
          "cd_max_iters": 10, "pdhg_max_iters": 10, "palm_max_iters": 10}, {"palm_nnz"}),
    ])
    def test_fourier2d(self, tmp_path, payload, extra):
        s = self.summary(tmp_path, "fourier2d", payload)
        assert set(s) == (self.HEADER | self.STAGE | extra
                          | {"mask_kind", "artifact_verify_tol"})
        assert set(s["verify"]) == self.VERIFY

    def test_optimal_sampling(self, tmp_path):
        s = self.summary(tmp_path, "optimal-sampling", {
            "size": [16, 16], "mask_beta": 0.08, "cd_max_iters": 10,
            "pdhg_max_iters": 10, "palm_max_iters": 10})
        assert set(s) == self.HEADER | {"beta", "palm_nnz", "mask_count", "mask_fraction",
                                        "stages", "ordering", "ordering_exceptions"}
        assert set(s["stages"]) == {"learned", "lowpass", "largest"}
        (tmp_path / "f").mkdir()
        fourier = self.summary(tmp_path / "f", "fourier2d", {
            "size": [16, 16], "cd_max_iters": 10, "pdhg_max_iters": 10})
        fourier_stage = set(fourier) - self.HEADER - {"mask_kind", "artifact_verify_tol"}
        for block in s["stages"].values():
            assert set(block) == fourier_stage
        assert set(s["ordering"]) == {"learned_le_lowpass", "learned_le_largest",
                                      "largest_le_lowpass"}


class TestMalformedInputs:
    """Bad image and mask files are input errors (exit 2), not crashes."""

    def run_with_image(self, tmp_path, image_path, **extra):
        cfg = write_cfg(tmp_path, "c.json", {
            "image_source": "file", "image_path": image_path, "size": [16, 16],
            "cd_max_iters": 5, "pdhg_max_iters": 5, **extra})
        return main(["fourier2d", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_missing_image_file(self, tmp_path):
        assert self.run_with_image(tmp_path, str(tmp_path / "nonexistent.pfm")) == 2
        assert not (tmp_path / "o").exists()

    def test_missing_mask_file(self, tmp_path):
        image = str(tmp_path / "img.pfm")
        fileio.write_pfm(image, np.linspace(0.0, 1.0, 256).reshape(16, 16))
        mask = str(tmp_path / "nonexistent.pfm")
        assert self.run_with_image(tmp_path, image, mask_kind="file", mask_path=mask) == 2
        assert not (tmp_path / "o").exists()

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

    def test_graymap_sidecar_that_is_a_directory(self, tmp_path):
        image = str(tmp_path / "a.pgm")
        fileio.write_pgm16(image, np.linspace(0.0, 1.0, 256).reshape(16, 16))
        os.remove(image + ".json")
        os.mkdir(image + ".json")
        assert self.run_with_image(tmp_path, image) == 2
        assert not (tmp_path / "o").exists()

    def test_mask_file_of_wrong_size(self, tmp_path):
        image = str(tmp_path / "img.pfm")
        fileio.write_pfm(image, np.linspace(0.0, 1.0, 256).reshape(16, 16))
        mask = str(tmp_path / "mask.pfm")
        fileio.write_pfm(mask, np.ones((16, 15)))
        assert self.run_with_image(tmp_path, image, mask_kind="file", mask_path=mask) == 2


class TestOutputPath:
    """An ``--out`` that cannot be a directory is refused (exit 2) before
    any work, and nothing is written."""

    @pytest.mark.parametrize("below", [False, True])
    def test_phantom(self, tmp_path, below):
        taken = tmp_path / "f"
        taken.write_bytes(b"kept")
        out = taken / "sub" if below else taken
        assert main(["phantom", "--size", "16", "--out", str(out)]) == 2
        assert taken.read_bytes() == b"kept" and os.listdir(tmp_path) == ["f"]

    def test_experiment_refused_before_its_solve(self, tmp_path, monkeypatch):
        def not_run(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr("sourcecond.experiments.solve_range_cd", not_run)
        taken = tmp_path / "f"
        taken.write_bytes(b"kept")
        cfg = write_cfg(tmp_path, "c.json", {"size": [16, 16]})
        assert main(["fourier2d", "--config", cfg, "--out", str(taken)]) == 2
        assert taken.read_bytes() == b"kept"
        assert sorted(os.listdir(tmp_path)) == ["c.json", "f"]


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


class TestConfigSchema:
    """The config dataclasses are the schema: every shipped config loads, and
    the manifest's hash covers every field."""

    @pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(ROOT, "configs"))))
    def test_shipped_config_loads(self, name):
        command = {"lasso": "lasso1d", "fourier": "fourier2d",
                   "sampling": "optimal-sampling"}[name.split("_")[0]]
        args = build_parser().parse_args(
            [command, "--config", os.path.join(ROOT, "configs", name)])
        cls, _, overrides = _EXPERIMENTS[command]
        assert isinstance(_load_config(args, cls, overrides), cls)

    def config_hash(self, tmp_path, command, payload, *flags):
        name = f"run{len(os.listdir(tmp_path))}"
        cfg = write_cfg(tmp_path, name + ".json", payload)
        out = str(tmp_path / name)
        assert main([command, "--config", cfg, "--out", out, *flags]) == 0
        with open(os.path.join(out, "manifest.json")) as f:
            return json.load(f)["config_hash"]

    def test_fourier_hash_covers_record_every(self, tmp_path):
        base = {"size": [16, 16], "cd_max_iters": 10, "pdhg_max_iters": 10}
        h2 = self.config_hash(tmp_path, "fourier2d", {**base, "record_every": 2})
        h5 = self.config_hash(tmp_path, "fourier2d", {**base, "record_every": 5})
        again = self.config_hash(tmp_path, "fourier2d", {**base, "record_every": 2})
        assert h2 != h5
        assert h2 == again

    def test_lasso_hash_covers_solver_settings(self, tmp_path):
        base = {"degree": 20, "n_samples": 12, "max_iters": 50}
        ref = self.config_hash(tmp_path, "lasso1d", base)
        assert ref == self.config_hash(tmp_path, "lasso1d", dict(base))
        assert ref != self.config_hash(tmp_path, "lasso1d", {**base, "grad_tol": 1e-3})
        h10 = self.config_hash(tmp_path, "lasso1d", base, "--max-iters", "10")
        h20 = self.config_hash(tmp_path, "lasso1d", base, "--max-iters", "20")
        assert len({ref, h10, h20}) == 3


class TestManifestArtifacts:
    """A run's manifest lists exactly the files it wrote."""

    @pytest.mark.parametrize("command, payload", [
        ("lasso1d", {"degree": 20, "n_samples": 12, "max_iters": 50}),
        ("fourier2d", {"size": [16, 16], "cd_max_iters": 10, "pdhg_max_iters": 10}),
        ("optimal-sampling", {"size": [16, 16], "mask_beta": 0.08, "cd_max_iters": 10,
                              "pdhg_max_iters": 10, "palm_max_iters": 10}),
    ])
    def test_artifacts_are_the_written_files(self, tmp_path, command, payload):
        cfg = write_cfg(tmp_path, "c.json", payload)
        out = str(tmp_path / "run")
        assert main([command, "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as f:
            artifacts = json.load(f)["artifacts"]
        assert artifacts == sorted(set(os.listdir(out)) - {"manifest.json"})


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
        q[:, 2, 2] = (2.0, 2.0)
        bad = str(tmp_path / "bad_q.pfm")
        fileio.write_pfm(bad, fileio.field_to_pfm(q))
        rc = main(["verify", "--u", os.path.join(out, "u_true.pfm"),
                   "--v", os.path.join(out, "backprojection.pfm"),
                   "--q", bad, "--tol", "1e-6"])
        assert rc == 3

    @pytest.mark.parametrize("which", ["u", "v", "q"])
    def test_verify_rejects_nan_file(self, stored_run, tmp_path, which):
        # a NaN in any input file is malformed input (2), not a failed check (3)
        out, _ = stored_run
        files = {"u": os.path.join(out, "u_true.pfm"),
                 "v": os.path.join(out, "backprojection.pfm"),
                 "q": os.path.join(out, "q.pfm")}
        data = fileio.read_pfm(files[which]).copy()
        data[3, 4] = np.nan
        files[which] = str(tmp_path / f"nan_{which}.pfm")
        fileio.write_pfm(files[which], data[:, :, :2] if which == "q" else data)
        rc = main(["verify", "--u", files["u"], "--v", files["v"], "--q", files["q"],
                   "--tol", "1e-6"])
        assert rc == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_verify_tol_must_be_finite_and_nonnegative(self, tmp_path, tol):
        # a constant image with zero v and q (on the 7x7 difference grid) is a
        # certificate at any tolerance
        files = [str(tmp_path / name) for name in ("u.pfm", "v.pfm", "q.pfm")]
        fileio.write_pfm(files[0], np.full((8, 8), 0.5))
        fileio.write_pfm(files[1], np.zeros((8, 8)))
        fileio.write_pfm(files[2], np.zeros((7, 7, 2)))
        args = ["verify", "--u", files[0], "--v", files[1], "--q", files[2], "--tol"]
        assert main(args + ["1e-6"]) == 0
        assert main(args + [tol]) == 2

    def test_verify_refuses_a_color_image(self, stored_run, tmp_path):
        # a three-channel float map as u is malformed input, not a crash
        out, _ = stored_run
        u = fileio.read_pfm(os.path.join(out, "u_true.pfm"))
        color = str(tmp_path / "u.pfm")
        fileio.write_pfm(color, np.stack([u, u, u], axis=2))
        rc = main(["verify", "--u", color, "--v", os.path.join(out, "backprojection.pfm"),
                   "--q", os.path.join(out, "q.pfm")])
        assert rc == 2

    def test_verify_refuses_an_unreadable_sidecar(self, stored_run, tmp_path):
        out, _ = stored_run
        pgm = str(tmp_path / "u.pgm")
        fileio.write_pgm16(pgm, fileio.read_pfm(os.path.join(out, "u_true.pfm")))
        os.remove(pgm + ".json")
        os.mkdir(pgm + ".json")
        rc = main(["verify", "--u", pgm, "--v", os.path.join(out, "backprojection.pfm"),
                   "--q", os.path.join(out, "q.pfm")])
        assert rc == 2

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


class TestArtifactBoundary:
    """``q.pfm`` keeps the ``(n_y-1) x (n_x-1)`` float-map layout of a dual
    field; ``verify`` reads it back into the ``(2, n_y, n_x)`` field."""

    @pytest.fixture(scope="class")
    def desk_run(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("desk") / "fourier_denoise_desk")
        config = os.path.join(ROOT, "configs", "fourier_denoise_desk.json")
        assert main(["fourier2d", "--config", config, "--out", out]) == 0
        return out

    @staticmethod
    def verify(out, q_path):
        return main(["verify", "--u", os.path.join(out, "u_true.pfm"),
                     "--v", os.path.join(out, "backprojection.pfm"), "--q", q_path])

    def test_desk_artifacts_verify(self, desk_run):
        q_path = os.path.join(desk_run, "q.pfm")
        assert fileio.read_pfm(q_path).shape == (63, 63, 3)
        assert self.verify(desk_run, q_path) == 0

    def test_dual_field_one_row_short_exits_2(self, desk_run, tmp_path):
        q = fileio.read_pfm(os.path.join(desk_run, "q.pfm"))
        short = str(tmp_path / "short_q.pfm")
        fileio.write_pfm(short, q[:-1])
        assert self.verify(desk_run, short) == 2


class TestEnvOutputRoot:
    def test_sourceforge_out_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCEFORGE_OUT", str(tmp_path / "root"))
        assert main(["phantom", "--size", "32"]) == 0
        assert os.path.exists(tmp_path / "root" / "phantom" / "phantom.pfm")


# finite floats at the edges of the double range, drawn beside hypothesis's
# own; most are nonnegative, as most float fields must be, so that most runs
# get past the config checks
_EXTREMES = st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                             1.7976931348623157e308, -1e300, -1.7976931348623157e308])
_FLOATS = (st.floats(min_value=0.0, allow_infinity=False) | _EXTREMES
           | st.floats(allow_nan=False, allow_infinity=False))
_STRINGS = {"image_source": ["shepp_logan", "textured", "file", "none"],
            "mask_kind": ["full", "lowpass", "learned", "file", "none"]}


def _field_values(name: str, kind, paths: list):
    """JSON values for a config field annotated ``kind``: a 16x16 grid, a
    budget of 1 to 5 steps, extreme finite floats, and for a path an
    image, a mask, a file of the wrong size or with a NaN, a directory or
    nothing."""
    if name == "size":
        return st.just([16, 16])
    if name.endswith("max_iters"):
        return st.integers(1, 5)
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return st.tuples(*(_field_values("", k, paths) for k in args)).map(list)
    if args:  # ``X | None``
        return st.one_of([_field_values(name, k, paths) for k in args])
    if kind is type(None):
        return st.none()
    if kind is float:
        return _FLOATS
    if kind is int:
        return st.integers(-1, 2**64) if name == "seed" else st.integers(-1, 64)
    if kind is dict:
        return st.dictionaries(st.integers(-1, 70).map(str), _FLOATS, max_size=4)
    if name.endswith("_path"):
        return st.sampled_from(paths)
    return st.sampled_from(_STRINGS[name])


@st.composite
def _commands(draw, paths):
    """A command and a config drawn from its dataclass: the budgets, the grid
    and the mask weight (which ``optimal-sampling`` needs) always set, every
    other field set or left at its default."""
    command = draw(st.sampled_from(sorted(_EXPERIMENTS)))
    cls = _EXPERIMENTS[command][0]
    kinds = typing.get_type_hints(cls)
    fields = {name: _field_values(name, kind, paths) for name, kind in kinds.items()}
    required = {name: fields.pop(name) for name in kinds
                if name in ("size", "mask_beta") or name.endswith("max_iters")}
    return command, draw(st.fixed_dictionaries(required, optional=fields))


class TestConfigFuzz:
    """Any config a command's dataclass admits ends in exit 0, 2 or 3, and
    a run that exits 2 or 3 leaves no output directory."""

    RUNS = itertools.count()

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        image = shepp_logan(16)
        files = {"image.pfm": image, "mask.pfm": (image > 0.3).astype(float),
                 "small.pfm": image[:8, :8], "nan.pfm": np.where(image > 0.3, np.nan, image)}
        for name, array in files.items():
            fileio.write_pfm(str(root / name), array)
        fileio.write_pgm16(str(root / "image.pgm"), image)
        paths = [str(root / name) for name in [*files, "image.pgm", "missing.pfm"]]
        return root, [*paths, str(root)]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_no_output_on_failure(self, inputs, data):
        root, paths = inputs
        command, config = data.draw(_commands(paths))
        run = root / f"run{next(self.RUNS)}"
        run.mkdir()
        (run / "config.json").write_text(json.dumps(config))
        out = run / "out"
        code = main([command, "--config", str(run / "config.json"), "--out", str(out)])
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
        shutil.rmtree(run)
