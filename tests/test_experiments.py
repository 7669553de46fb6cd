import json
import os

import numpy as np
import pytest

import sourcecond as sc
from sourcecond.errors import ConfigurationError, InputError
from sourcecond.experiments import (DEG5_COEFFS, DEG20_COEFFS, Fourier2DConfig,
                                    Lasso1DConfig, largest_coefficient_mask,
                                    lowpass_mask_count, make_lasso_data,
                                    run_fourier_experiment, run_lasso_experiment,
                                    run_optimal_sampling, shepp_logan,
                                    textured_image, tune_mask_beta)


class TestMakeLassoData:
    def test_noiseless(self):
        cfg = Lasso1DConfig(noise_std=0.0)
        _, f_clean, f_noisy, delta = make_lasso_data(cfg)
        assert np.array_equal(f_clean, f_noisy)
        assert delta == 0.0

    def test_degree5_polynomial_at_one(self):
        # 5*1 - 3*1 - 1 = 1 at the right endpoint u = 1
        cfg = Lasso1DConfig(coeffs_true=DEG5_COEFFS, sample_interval=(0.0, 1.0))
        _, f_clean, _, _ = make_lasso_data(cfg)
        assert f_clean[-1] == pytest.approx(1.0, abs=1e-14)

    def test_degree20_polynomial_at_one(self):
        # 5 - 3 - 1.5 + 0.5 - 1 = 0 at u = 1
        cfg = Lasso1DConfig(coeffs_true=DEG20_COEFFS, sample_interval=(0.0, 1.0))
        _, f_clean, _, _ = make_lasso_data(cfg)
        assert f_clean[-1] == pytest.approx(0.0, abs=1e-14)

    def test_seed_reproducibility(self):
        cfg = Lasso1DConfig(seed=7)
        _, _, f1, d1 = make_lasso_data(cfg)
        _, _, f2, d2 = make_lasso_data(cfg)
        assert np.array_equal(f1, f2) and d1 == d2

    def test_degree_must_cover_support(self):
        with pytest.raises(ConfigurationError):
            Lasso1DConfig(coeffs_true={30: 1.0}, degree=20)


class TestSheppLogan:
    def test_range(self):
        u = shepp_logan(64)
        assert u.min() >= 0.0 and u.max() <= 1.0

    def test_piecewise_constant_at_full_size(self):
        u = shepp_logan(400)
        g = sc.grad2(400, 400).apply(u)
        zero_frac = np.mean(np.sqrt(np.sum(g * g, axis=0))[:-1, :-1] == 0.0)
        assert zero_frac > 0.95

    def test_mirror_symmetry_against_ellipse_table(self):
        # The standard table is NOT mirror symmetric: the two tilted ellipses
        # at x = +-0.22 have different semi-axes (0.11, 0.31) vs (0.16, 0.41),
        # as do the two small bottom ellipses off the axis.  The symmetric
        # majority of the table still makes most pixels agree.
        u = shepp_logan(400)
        mirrored = u[:, ::-1]
        agree = np.mean(np.abs(u - mirrored) <= 1e-12)
        assert 0.90 <= agree < 1.0
        assert np.max(np.abs(u - mirrored)) == pytest.approx(0.2, abs=1e-12)

    def test_minimum_size(self):
        with pytest.raises(Exception):
            shepp_logan(8)

    def test_deterministic(self):
        assert np.array_equal(shepp_logan(32), shepp_logan(32))


class TestTexturedImage:
    def test_range_and_determinism(self):
        u = textured_image(64)
        assert u.min() >= 0.0 and u.max() <= 1.0
        assert np.array_equal(u, textured_image(64))

    def test_has_texture_and_edges(self):
        u = textured_image(64)
        g = sc.grad2(64, 64).apply(u)
        gn = np.sqrt(np.sum(g * g, axis=0))[:-1, :-1]
        assert np.mean(gn > 0) > 0.5  # textured almost everywhere
        assert gn.max() > 0.2         # and carries real jumps


class TestMatchedCardinalityMasks:
    def test_lowpass_count_exact(self):
        for count in (1, 37, 441):
            mask = lowpass_mask_count((64, 64), count)
            assert mask.count == count
            assert mask.grid[0, 0]

    def test_lowpass_count_matches_block(self):
        assert lowpass_mask_count((64, 64), 441) == sc.lowpass_mask((64, 64), 21)

    def test_largest_coefficient_mask(self, phantom64):
        mask = largest_coefficient_mask(phantom64, 300)
        assert mask.count == 300
        f = np.abs(np.fft.fft2(phantom64, norm="ortho"))
        inside = f[mask.grid].min()
        outside = f[~mask.grid].max()
        assert inside >= outside - 1e-12


class TestLassoDriver:
    def test_zero_coefficients_pass_trivially(self, tmp_path):
        cfg = Lasso1DConfig(coeffs_true={}, degree=10, n_samples=8, noise_std=0.0)
        res = run_lasso_experiment(cfg, out_dir=str(tmp_path / "run"))
        assert res["summary"]["verify"]["passed"]
        assert res["summary"]["v_norm"] == 0.0
        assert res["summary"]["iterations"] == 0

    def test_artifacts_and_summary(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = Lasso1DConfig(max_iters=50_000, grad_tol=1e-10)
        res = run_lasso_experiment(cfg, out_dir=out)
        for name in ("series.csv", "coefficients.csv", "history.csv",
                     "summary.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert summary["verify"]["passed"]
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert set(manifest["artifacts"]) >= {"series.csv", "coefficients.csv"}
        assert "timings" in manifest and manifest["timings"]

    def test_range_data_definition(self):
        cfg = Lasso1DConfig(max_iters=50_000, grad_tol=1e-10)
        res = run_lasso_experiment(cfg)
        s = res["summary"]
        expected = res["f_clean"] + s["alpha_star"] * res["report"].v
        assert np.allclose(res["g_alpha"], expected)


class TestWriteRun:
    @staticmethod
    def _run(out):
        from sourcecond.experiments import _write_run

        img = shepp_logan(16)
        _write_run(str(out), "phantom", {"size": 16}, 0, {"t": 0.0},
                   {"phantom.pgm": img, "phantom.pfm": img,
                    "series.csv": {"x": np.arange(3.0)}, "summary.json": {"a": 1.0}},
                   {"a": 1.0})

    def test_second_run_replaces_every_file(self, tmp_path):
        # the second run leaves the bytes of the first and no extra file; each
        # file is a new one, so a hard link to the first run's file keeps it
        out, kept = tmp_path / "run", tmp_path / "kept"
        self._run(out)
        names = sorted(os.listdir(out))
        assert names == ["manifest.json", "phantom.pfm", "phantom.pgm", "phantom.pgm.json",
                         "series.csv", "summary.json"]
        first = {name: (out / name).read_bytes() for name in names}
        kept.mkdir()
        for name in names:
            os.link(out / name, kept / name)
            with open(kept / name, "ab") as f:
                f.write(b"first run")
        self._run(out)
        assert sorted(os.listdir(out)) == names
        for name in names:
            if name != "manifest.json":  # it records the write time
                assert (out / name).read_bytes() == first[name]
            assert (kept / name).read_bytes() == first[name] + b"first run"


class TestOutputDirRefused:
    """A driver given an ``out_dir`` that cannot be a directory (a file
    stands at it or at a parent's) raises ``ConfigurationError`` before any
    solve, and the file is left as it was."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def not_run(*args, **kwargs):
            raise AssertionError("a solver ran")

        for name in ("solve_range_cd", "solve_palm", "solve_source_gd"):
            monkeypatch.setattr(f"sourcecond.experiments.{name}", not_run)

    @pytest.mark.parametrize("driver, cfg", [
        (run_fourier_experiment, Fourier2DConfig(size=(64, 64))),
        (run_optimal_sampling, Fourier2DConfig(size=(64, 64), mask_kind="learned",
                                               mask_beta=0.08)),
        (run_lasso_experiment, Lasso1DConfig()),
    ], ids=["fourier2d", "optimal-sampling", "lasso1d"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_refused_before_the_solve(self, tmp_path, no_solve, driver, cfg, below):
        taken = tmp_path / "f"
        taken.write_bytes(b"kept")
        out = str(taken / "sub" / "run" if below else taken)
        with pytest.raises(ConfigurationError) as err:
            driver(cfg, out_dir=out)
        assert str(err.value) == f"cannot write to {out!r}: {str(taken)!r} is not a directory"
        assert taken.read_bytes() == b"kept" and os.listdir(tmp_path) == ["f"]


class TestFourierDriver:
    def test_full_mask_roundtrip(self, tmp_path):
        cfg = Fourier2DConfig(size=(32, 32), mask_kind="full", cd_max_iters=20_000,
                              cd_tol=1e-10, pdhg_max_iters=1500, record_every=500)
        res = run_fourier_experiment(cfg, out_dir=str(tmp_path / "f"))
        s = res["summary"]
        assert s["verify"]["passed"]
        assert s["rel_error"] <= 1e-3
        assert s["residual"] <= 1e-10
        assert s["artifact_verify_tol"] is not None
        assert s["phantom_variant"] == "modified"

    def test_lowpass_mask_is_approximate(self):
        cfg = Fourier2DConfig(size=(32, 32), mask_kind="lowpass", mask_width=11,
                              cd_max_iters=300, pdhg_max_iters=200, record_every=100)
        res = run_fourier_experiment(cfg)
        assert not res["summary"]["verify"]["passed"]
        assert res["summary"]["residual"] > 1e-10
        assert res["summary"]["mask_count"] == 121

    def test_textured_source(self):
        cfg = Fourier2DConfig(image_source="textured", size=(32, 32),
                              mask_kind="lowpass", mask_width=11,
                              cd_max_iters=200, pdhg_max_iters=150, record_every=100)
        res = run_fourier_experiment(cfg)
        assert res["summary"]["phantom_variant"] is None
        assert res["summary"]["v_norm"] > 0

    def test_mask_file_roundtrip(self, tmp_path):
        from sourcecond import fileio

        mask = sc.lowpass_mask((32, 32), 9)
        path = str(tmp_path / "mask.pfm")
        fileio.write_pfm(path, mask.grid.astype(float))
        cfg = Fourier2DConfig(size=(32, 32), mask_kind="file", mask_path=path,
                              cd_max_iters=100, pdhg_max_iters=100, record_every=100)
        res = run_fourier_experiment(cfg)
        assert res["summary"]["mask_count"] == mask.count

    def test_constant_image_file(self, tmp_path):
        # a constant image loads as all zeros; its relative errors are 0/0,
        # which read 0 and do not stop the run
        from sourcecond import fileio

        path = str(tmp_path / "flat.pfm")
        fileio.write_pfm(path, np.full((16, 16), 0.5))
        cfg = Fourier2DConfig(image_source="file", image_path=path, size=(16, 16),
                              cd_max_iters=20, pdhg_max_iters=20)
        s = run_fourier_experiment(cfg, out_dir=str(tmp_path / "o"))["summary"]
        assert s["rel_error"] == 0.0 and s["baseline_rel_error"] == 0.0
        assert s["verify"]["passed"]

    def test_learned_mask_through_single_driver(self):
        cfg = Fourier2DConfig(size=(32, 32), mask_kind="learned", mask_beta=0.08,
                              cd_max_iters=150, pdhg_max_iters=100,
                              palm_max_iters=150, record_every=50)
        res = run_fourier_experiment(cfg)
        s = res["summary"]
        assert s["palm_nnz"] >= 0
        assert s["mask_count"] >= 1
        assert res["mask"].grid[0, 0]  # zero frequency forced on

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Fourier2DConfig(mask_kind="lowpass")
        with pytest.raises(ConfigurationError):
            Fourier2DConfig(mask_kind="learned")
        with pytest.raises(ConfigurationError):
            Fourier2DConfig(mask_kind="lowpass", mask_width=99, size=(32, 32))
        with pytest.raises(ConfigurationError):
            Fourier2DConfig(image_source="file")


class TestDivergedSolve:
    """Each driver stops at a diverged solve before it writes an artifact."""

    @pytest.mark.parametrize("solver, driver, cfg", [
        ("solve_source_gd", run_lasso_experiment,
         Lasso1DConfig(degree=10, n_samples=8, max_iters=20)),
        ("solve_palm", run_fourier_experiment,
         Fourier2DConfig(size=(16, 16), mask_kind="learned", mask_beta=0.08,
                         cd_max_iters=5, pdhg_max_iters=5, palm_max_iters=5)),
        ("solve_range_cd", run_fourier_experiment,
         Fourier2DConfig(size=(16, 16), cd_max_iters=5, pdhg_max_iters=5)),
        ("solve_pdhg", run_optimal_sampling,
         Fourier2DConfig(size=(16, 16), mask_kind="learned", mask_beta=0.08,
                         cd_max_iters=5, pdhg_max_iters=5, palm_max_iters=5)),
    ])
    def test_raises_before_writing(self, tmp_path, monkeypatch, solver, driver, cfg):
        import dataclasses

        from sourcecond import experiments
        from sourcecond.errors import VerificationError

        solve = getattr(experiments, solver)

        def diverging(*args, **kwargs):
            result = solve(*args, **kwargs)
            if solver == "solve_pdhg":
                return (*result[:2], dataclasses.replace(result[2], termination="diverged"))
            return dataclasses.replace(result, termination="diverged")

        monkeypatch.setattr(experiments, solver, diverging)
        out = tmp_path / "run"
        with pytest.raises(VerificationError, match="diverged"):
            driver(cfg, out_dir=str(out))
        assert not out.exists()


class TestOptimalSamplingDriver:
    def test_small_run_structure(self, tmp_path):
        out = str(tmp_path / "opt")
        cfg = Fourier2DConfig(size=(32, 32), mask_kind="learned", mask_beta=0.08,
                              cd_max_iters=300, pdhg_max_iters=300,
                              palm_max_iters=300, record_every=100)
        res = run_optimal_sampling(cfg, out_dir=out)
        s = res["summary"]
        assert set(s["stages"]) == {"learned", "lowpass", "largest"}
        counts = {name: s["stages"][name]["mask_count"] for name in s["stages"]}
        assert counts["learned"] == counts["lowpass"] == counts["largest"]
        assert "ordering" in s and "ordering_exceptions" in s
        for name in ("mask_learned.pfm", "solution_learned.pfm", "metric_table.csv",
                     "metrics.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_requires_learned_kind(self):
        cfg = Fourier2DConfig(size=(32, 32), mask_kind="full")
        with pytest.raises(ConfigurationError):
            run_optimal_sampling(cfg)


class TestTuneMaskBeta:
    def test_picks_density_closest_to_target(self, phantom64):
        beta = tune_mask_beta(phantom64, 0.10, betas=(0.02, 0.1, 1.0),
                              palm_max_iters=300)
        assert beta == 0.1

    @pytest.mark.parametrize("target, betas", [
        (0.1, ()), (float("nan"), (0.1,)), (-0.01, (0.1,)), (1.5, (0.1,))])
    def test_refuses_what_has_no_answer(self, target, betas):
        with pytest.raises(InputError):
            tune_mask_beta(np.zeros((16, 16)), target, betas=betas, palm_max_iters=1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def usable_cpus(monkeypatch, n):
    """Make ``n`` CPUs look usable, so that the fork path runs (or not)
    whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestForkedStages:
    """The three certificate stages and the tuning solves run in forked
    children: results come back in item order, a child's exception is
    raised here, and every child is reaped."""

    CFG = {"size": [32, 32], "mask_kind": "learned", "mask_beta": 0.08,
           "cd_max_iters": 60, "pdhg_max_iters": 60, "palm_max_iters": 150,
           "record_every": 20}

    def test_results_in_item_order_run_in_waves(self, monkeypatch):
        from sourcecond.experiments import _fork_map

        usable_cpus(monkeypatch, 3)
        got = _fork_map(lambda i: (i * i, os.getpid()), [(f"item {i}", i) for i in range(7)])
        assert [value for value, _ in got] == [i * i for i in range(7)]
        # waves of four: items 0 and 4 run here, every other item in a child
        # of its own
        pids = [pid for _, pid in got]
        assert pids[0] == pids[4] == os.getpid()
        children = [pid for i, pid in enumerate(pids) if i not in (0, 4)]
        assert len(set(children)) == 5 and os.getpid() not in children
        assert_no_child_left()

    def test_failure_in_a_wave_starts_no_later_wave(self, monkeypatch):
        from sourcecond.experiments import _fork_map

        parent = os.getpid()
        ran_here = []

        def fn(i):
            if os.getpid() == parent:
                ran_here.append(i)
            if i == 2:
                raise InputError("item 2 failed")
            return i

        usable_cpus(monkeypatch, 3)
        with pytest.raises(InputError, match="item 2 failed"):
            _fork_map(fn, [(f"item {i}", i) for i in range(7)])
        assert ran_here == [0]
        assert_no_child_left()

    def test_one_cpu_runs_in_this_process(self, monkeypatch):
        from sourcecond.experiments import _fork_map

        def no_fork():
            raise AssertionError("forked on one CPU")

        usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", no_fork)
        got = _fork_map(lambda i: os.getpid(), [(f"item {i}", i) for i in range(3)])
        assert got == [os.getpid()] * 3

    # waves of three: items 0 and 3 run here, every other item in a child of
    # its own
    @pytest.mark.parametrize("failing, first", [((2, 4, 5), 2), ((0, 2), 0), ((3, 4), 3)])
    def test_first_failure_in_item_order_is_raised(self, monkeypatch, failing, first):
        from sourcecond.experiments import _fork_map

        def fn(i):
            if i in failing:
                raise InputError(f"item {i} failed in process {os.getpid()}")
            return i

        usable_cpus(monkeypatch, 2)
        with pytest.raises(InputError, match=f"item {first} failed") as info:
            _fork_map(fn, [(f"item {i}", i) for i in range(6)])
        here = f"process {os.getpid()}" in str(info.value)
        assert here == (first % 3 == 0)
        assert_no_child_left()

    def test_interrupt_here_kills_and_reaps_the_children(self, monkeypatch):
        import time

        from sourcecond.experiments import _fork_map

        parent = os.getpid()

        def fn(i):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        usable_cpus(monkeypatch, 2)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _fork_map(fn, [(f"item {i}", i) for i in range(3)])
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()

    def test_child_without_result_is_named(self, monkeypatch):
        from sourcecond.experiments import _fork_map

        parent = os.getpid()

        def fn(i):
            if i == 1 and os.getpid() != parent:
                os._exit(7)
            return i

        usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="item 1 ended without a result"):
            _fork_map(fn, [(f"item {i}", i) for i in range(3)])
        assert_no_child_left()

    def test_child_stage_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from sourcecond import experiments
        from sourcecond.cli import main
        from sourcecond.errors import VerificationError

        stage = experiments._certificate_stage

        def failing(u_true, mask, cfg):
            if mask == lowpass_mask_count(cfg.size, mask.count):
                raise VerificationError(f"low-pass stage failed in process {os.getpid()}")
            return stage(u_true, mask, cfg)

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(experiments, "_certificate_stage", failing)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(self.CFG))
        out = tmp_path / "o"
        assert main(["optimal-sampling", "--config", str(config), "--out", str(out)]) == 3
        assert not out.exists()
        assert_no_child_left()
        err = capsys.readouterr().err
        assert "low-pass stage failed" in err and f"process {os.getpid()}" not in err

    def test_forked_and_in_process_artifacts_equal(self, tmp_path, monkeypatch):
        cfg = Fourier2DConfig(**self.CFG)
        runs = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            run_optimal_sampling(cfg, out_dir=str(out))
            assert_no_child_left()
            runs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
        manifests = [json.loads(runs[cpus].pop("manifest.json")) for cpus in (1, 2)]
        assert runs[1] == runs[2]
        for manifest in manifests:
            del manifest["timings"]
        assert manifests[0] == manifests[1]

    def test_tuned_beta_does_not_depend_on_forking(self, monkeypatch):
        u = shepp_logan(32)
        betas = (0.02, 0.05, 0.08, 0.1, 0.2)
        picks = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            picks.append(tune_mask_beta(u, 0.10, betas=betas, palm_max_iters=100))
            assert_no_child_left()
        assert picks[0] == picks[1]
