import json
import os
from pathlib import Path

import numpy as np
import pytest

from sourcecond import fileio
from sourcecond.errors import InputError


class TestPgm16:
    def test_constant_zero_image(self, tmp_path):
        path = str(tmp_path / "zero.pgm")
        fileio.write_pgm16(path, np.zeros((5, 7)))
        raw = Path(path).read_bytes()
        header = b"P5\n7 5\n65535\n"
        assert raw.startswith(header)
        assert raw[len(header):] == b"\x00" * (5 * 7 * 2)
        meta = json.loads(Path(path + ".json").read_text())
        assert meta == {"min": 0.0, "max": 0.0}

    def test_file_size_arithmetic(self, tmp_path):
        path = str(tmp_path / "p.pgm")
        fileio.write_pgm16(path, np.linspace(0, 1, 400 * 400).reshape(400, 400))
        header_bytes = len(b"P5\n400 400\n65535\n")
        assert os.path.getsize(path) == 400 * 400 * 2 + header_bytes

    def test_roundtrip_restores_scale(self, tmp_path, rng):
        path = str(tmp_path / "r.pgm")
        arr = rng.uniform(-3, 5, (9, 4))
        fileio.write_pgm16(path, arr)
        back = fileio.read_pgm16(path)
        assert back.shape == arr.shape
        # 16-bit quantization of the min-max range
        span = arr.max() - arr.min()
        assert np.max(np.abs(back - arr)) <= span / 65535.0

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(InputError):
            fileio.write_pgm16(str(tmp_path / "bad.pgm"), np.array([[np.nan, 1.0]]))


class TestPfm:
    def test_roundtrip_bit_identical(self, tmp_path, rng):
        path = str(tmp_path / "a.pfm")
        arr = rng.standard_normal((6, 11)).astype(np.float32)
        fileio.write_pfm(path, arr)
        back = fileio.read_pfm(path)
        assert back.dtype == np.float32
        assert back.tobytes() == arr.tobytes()

    def test_two_channel_field_roundtrip(self, tmp_path, rng):
        path = str(tmp_path / "q.pfm")
        # a (2, 5, 6) field is stored as its 4x5 interior, channel last
        q = np.zeros((2, 5, 6), dtype=np.float32)
        q[:, :-1, :-1] = rng.standard_normal((2, 4, 5))
        fileio.write_pfm(path, fileio.field_to_pfm(q))
        back = fileio.read_pfm(path)
        assert back.shape == (4, 5, 3)
        assert not np.any(back[:, :, 2])
        assert back[:, :, :2].tobytes() == np.moveaxis(q[:, :-1, :-1], 0, -1).tobytes()
        assert fileio.field_from_pfm(back).astype(np.float32).tobytes() == q.tobytes()

    def test_write_read_write_stable(self, tmp_path, rng):
        p1, p2 = str(tmp_path / "1.pfm"), str(tmp_path / "2.pfm")
        fileio.write_pfm(p1, rng.standard_normal((8, 3)))
        fileio.write_pfm(p2, fileio.read_pfm(p1))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_header_is_little_endian_pf(self, tmp_path):
        path = str(tmp_path / "h.pfm")
        fileio.write_pfm(path, np.ones((2, 3)))
        with open(path, "rb") as f:
            assert f.readline() == b"Pf\n"
            assert f.readline() == b"3 2\n"  # width height
            assert float(f.readline()) == -1.0


class TestSeriesCsv:
    def test_line_count(self, tmp_path):
        path = str(tmp_path / "s.csv")
        fileio.write_series_csv(path, {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
        with open(path, newline="") as f:
            text = f.read()
        assert text.count("\r\n") == 4
        assert len(text.splitlines()) == 4

    def test_seventeen_digit_floats(self, tmp_path):
        path = str(tmp_path / "f.csv")
        fileio.write_series_csv(path, {"x": [0.1]})
        assert "0.10000000000000001" in Path(path).read_text()

    def test_roundtrip_bitwise(self, tmp_path, rng):
        path = str(tmp_path / "r.csv")
        cols = {"x": rng.standard_normal(50), "y": 1e30 * rng.standard_normal(50),
                "z": 1e-30 * rng.standard_normal(50)}
        fileio.write_series_csv(path, cols)
        back = fileio.read_series_csv(path)
        for name, vals in cols.items():
            assert np.array_equal(back[name], vals)

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(InputError):
            fileio.write_series_csv(str(tmp_path / "bad.csv"), {"a": [1.0], "b": [1.0, 2.0]})


class TestConfigHash:
    def test_stable_under_key_reordering(self):
        h1 = fileio.config_hash({"a": 1, "b": [1, 2], "c": {"x": 0.5, "y": None}})
        h2 = fileio.config_hash({"c": {"y": None, "x": 0.5}, "b": [1, 2], "a": 1})
        assert h1 == h2

    def test_sensitive_to_values(self):
        assert fileio.config_hash({"a": 1}) != fileio.config_hash({"a": 2})


class TestManifest:
    def test_requires_existing_artifacts(self, tmp_path):
        with pytest.raises(InputError):
            fileio.write_manifest(str(tmp_path), "x", {}, 0, {}, ["missing.csv"])

    def test_written_manifest_contents(self, tmp_path):
        (tmp_path / "a.csv").write_text("x\r\n")
        path = fileio.write_manifest(str(tmp_path), "demo", {"size": 8}, 3, {"total": 0.5},
                                     ["a.csv"])
        data = json.loads(Path(path).read_text())
        assert data["command"] == "demo"
        assert data["config_hash"] == fileio.config_hash({"size": 8})
        assert data["seed"] == 3
        assert data["artifacts"] == ["a.csv"]
        assert "sourcecond" in data["versions"] and "numpy" in data["versions"]

    def test_non_finite_timing_refused(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_manifest(str(tmp_path), "demo", {}, 0, {"total": float("inf")}, [])
        assert not (tmp_path / "manifest.json").exists()


class TestJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_payload_refused(self, tmp_path, value):
        # no artifact holds the non-standard NaN/Infinity tokens, and a
        # refused payload leaves no partial file behind
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            fileio.write_json(str(path), {"a": 1.0, "nested": {"z": [0.5, value]}})
        assert not path.exists()

    def test_writes_sorted_indented_json(self, tmp_path):
        path = tmp_path / "summary.json"
        fileio.write_json(str(path), {"b": 1, "a": [0.5, None]})
        assert path.read_text() == '{\n  "a": [\n    0.5,\n    null\n  ],\n  "b": 1\n}\n'


class TestLoadGrayscale:
    def test_pfm_color_uses_luma(self, tmp_path):
        path = str(tmp_path / "c.pfm")
        rgb = np.zeros((4, 4, 3), dtype=np.float32)
        rgb[:, :, 1] = 1.0  # pure green
        fileio.write_pfm(path, rgb)
        img = fileio.load_grayscale(path)
        assert img.shape == (4, 4)
        # constant image normalizes to zero
        assert not np.any(img)

    def test_p5_and_normalization(self, tmp_path, rng):
        path = str(tmp_path / "g.pgm")
        arr = rng.uniform(2.0, 3.0, (6, 6))
        fileio.write_pgm16(path, arr)
        img = fileio.load_grayscale(path)
        assert img.min() == 0.0 and img.max() == 1.0


class TestMalformedImages:
    @pytest.mark.parametrize("payload", [
        b"P5\n4 4\n255\n" + bytes(15),        # one byte short
        b"P5\n4 four\n255\n" + bytes(16),     # non-integer size
        b"P5\n4 4\n70000\n" + bytes(32),      # maxval out of range
        b"P6\n2 2\n255\n" + bytes(11),        # color, one byte short
        b"P2\n2 2\n255\n1 2 3\n",             # ascii, one sample short
        b"P2\n2 2\n255\n1 2 x 4\n",           # ascii, bad sample
        b"Pf\n0 4\n-1.0\n",                   # empty floatmap
        b"Pf\n4 4\nscale\n" + bytes(64),      # bad scale line
        b"Pf\n4 4\nnan\n" + bytes(64),        # scales that give no byte order
        b"Pf\n4 4\n0\n" + bytes(64),
        b"Pf\n4 4\n-0.0\n" + bytes(64),
        b"Pf\n4 4\ninf\n" + bytes(64),
    ])
    def test_rejected_as_input_error(self, tmp_path, payload):
        path = str(tmp_path / "bad.img")
        with open(path, "wb") as f:
            f.write(payload)
        with pytest.raises(InputError):
            fileio.load_grayscale(path)

    @pytest.mark.parametrize("sidecar", ['{"min": 0.0', '{"min": 0.0}', '[0, 1]'])
    def test_bad_scaling_sidecar(self, tmp_path, sidecar):
        path = str(tmp_path / "g.pgm")
        fileio.write_pgm16(path, np.eye(4))
        with open(path + ".json", "w") as f:
            f.write(sidecar)
        with pytest.raises(InputError):
            fileio.load_grayscale(path)

    def test_ascii_graymap_reads(self, tmp_path):
        path = str(tmp_path / "ok.pgm")
        with open(path, "wb") as f:
            f.write(b"P2\n2 2\n4\n0 1\n2 4\n")
        assert np.array_equal(fileio.load_grayscale(path), [[0.0, 0.25], [0.5, 1.0]])
