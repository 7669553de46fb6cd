"""Bit-exact artifact I/O: 16-bit graymaps, float maps, CSV series, manifests.

Graymaps (``pgm16``) are for inspection and carry their min-max scaling in a
sidecar JSON; float maps (``pfm``) and CSV series are the lossless carriers
for certificates, dual fields and masks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform

import numpy as np

from .errors import InputError


def _float_repr(x) -> str:
    return format(float(x), ".17g")


def _open_input(path: str):
    """Open an input image for binary reading; a file that cannot be opened
    (missing, a directory, unreadable) is an input error."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# portable graymap (P5, 16 bit) with scaling sidecar


def write_pgm16(path: str, array: np.ndarray) -> None:
    array = np.asarray(array, dtype=float)
    if array.ndim != 2:
        raise InputError("pgm16 arrays must be 2D")
    if not np.all(np.isfinite(array)):
        raise InputError("pgm16 arrays must be finite")
    lo, hi = float(array.min()), float(array.max())
    if hi > lo:
        scaled = np.round((array - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(array)
    h, w = array.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(scaled.astype(">u2").tobytes())
    with open(path + ".json", "w", encoding="ascii") as f:
        json.dump({"min": lo, "max": hi}, f, sort_keys=True)
        f.write("\n")


def _read_pnm_header(f):
    def token():
        tok = b""
        while True:
            c = f.read(1)
            if not c:
                raise InputError("truncated header")
            if c.isspace():
                if tok:
                    return tok
                continue
            if c == b"#":
                while f.read(1) not in (b"\n", b""):
                    pass
                continue
            tok += c

    magic = token()
    try:
        w, h, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise InputError(f"bad graymap header in {f.name}: {exc}") from None
    _check_size(w, h)
    if not 0 < maxval < 65536:
        raise InputError(f"graymap maxval {maxval} outside 1..65535")
    return magic, w, h, maxval


def _check_size(w: int, h: int) -> None:
    if w < 1 or h < 1:
        raise InputError(f"image size {w}x{h} is empty")


def _read_samples(f, dtype, count: int, path: str) -> np.ndarray:
    """The next ``count`` binary samples of ``f``; short data is an input error."""
    raw = f.read()
    need = count * np.dtype(dtype).itemsize
    if len(raw) < need:
        raise InputError(f"truncated image data in {path}: {len(raw)} of {need} bytes")
    return np.frombuffer(raw, dtype=dtype, count=count)


def read_pgm16(path: str) -> np.ndarray:
    """Read a P5 graymap; restores float values from the sidecar when present."""
    raw, maxval = _read_pnm(path, (b"P5",))
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="ascii") as f:
            try:
                meta = json.load(f)
                lo, hi = float(meta["min"]), float(meta["max"])
            except (ValueError, KeyError, TypeError) as exc:
                raise InputError(f"bad scaling sidecar {sidecar}: {exc!r}") from None
        if hi > lo:
            return lo + raw / maxval * (hi - lo)
        return np.full(raw.shape, lo, dtype=float)
    return raw / maxval


# ---------------------------------------------------------------------------
# portable floatmap (Pf/PF, float32 little-endian, bottom-up rows)


def write_pfm(path: str, array: np.ndarray) -> None:
    array = np.asarray(array, dtype=np.float32)
    if array.ndim == 2:
        magic, data = "Pf", array[:, :, None]
    elif array.ndim == 3 and array.shape[2] in (2, 3):
        if array.shape[2] == 2:  # pad two-channel fields to PF color
            array = np.concatenate([array, np.zeros_like(array[:, :, :1])], axis=2)
        magic, data = "PF", array
    else:
        raise InputError("pfm arrays must be 2D or have 2 or 3 channels")
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(data[::-1].astype("<f4").tobytes())


def read_pfm(path: str) -> np.ndarray:
    with _open_input(path) as f:
        magic = f.readline().strip()
        if magic not in (b"Pf", b"PF"):
            raise InputError(f"not a floatmap: {path}")
        try:
            w, h = (int(t) for t in f.readline().split())
            scale = float(f.readline())
        except ValueError as exc:
            raise InputError(f"bad floatmap header in {path}: {exc}") from None
        # the sign gives the byte order; a zero or non-finite scale is not a PFM scale
        if not 0 < abs(scale) < math.inf:
            raise InputError(f"bad floatmap scale {scale} in {path}")
        _check_size(w, h)
        channels = 3 if magic == b"PF" else 1
        dtype = "<f4" if scale < 0 else ">f4"
        data = _read_samples(f, dtype, w * h * channels, path)
    data = data.reshape(h, w, channels)[::-1]
    return data[:, :, 0] if channels == 1 else data


def field_to_pfm(q: np.ndarray) -> np.ndarray:
    """The ``(n_y-1) x (n_x-1) x 2`` array that stores a ``(2, n_y, n_x)``
    dual field as a float map: its two channels on the interior grid, channel
    last, without the pads.  ``write_pfm`` adds the zero third channel."""
    q = np.asarray(q)
    if q.ndim != 3 or q.shape[0] != 2 or min(q.shape[1:]) < 2:
        raise InputError(f"expected a (2, n_y, n_x) dual field, got {q.shape}")
    return np.moveaxis(q[:, :-1, :-1], 0, -1)


def field_from_pfm(array: np.ndarray) -> np.ndarray:
    """The ``(2, h+1, w+1)`` dual field of an ``h x w`` PF float map written
    by ``field_to_pfm``: its first two channels on the interior grid, zero
    pads, and the zero padding channel dropped."""
    if array.ndim != 3 or array.shape[2] != 3:
        raise InputError("expected a 3-channel floatmap")
    h, w = array.shape[:2]
    q = np.zeros((2, h + 1, w + 1))
    q[:, :-1, :-1] = np.moveaxis(array[:, :, :2], -1, 0)
    return q


def load_grayscale(path: str) -> np.ndarray:
    """Load a grayscale image from PNM/PFM files, normalized to [0, 1].

    Color inputs are collapsed with the Rec. 601 luma weights.
    """
    with _open_input(path) as f:
        magic = f.read(2)
    if magic in (b"Pf", b"PF"):
        img = read_pfm(path)
    elif magic == b"P5":
        img = read_pgm16(path)
    elif magic in (b"P6", b"P2", b"P3"):
        samples, maxval = _read_pnm(path, (b"P2", b"P3", b"P6"))
        img = samples / maxval
    else:
        raise InputError(f"unsupported image file {path!r} (use PGM/PPM/PFM)")
    if img.ndim == 3:
        img = img @ np.array([0.299, 0.587, 0.114])
    img = np.asarray(img, dtype=float)
    if not np.all(np.isfinite(img)):
        raise InputError(f"image {path!r} has non-finite values")
    lo, hi = float(img.min()), float(img.max())
    return (img - lo) / (hi - lo) if hi > lo else np.zeros_like(img)


def _read_pnm(path: str, magics: tuple) -> tuple:
    """``(samples, maxval)`` of a graymap or pixmap whose magic is one of
    ``magics``: the samples as floats of shape ``(h, w)``, or ``(h, w, 3)``
    for a pixmap."""
    with _open_input(path) as f:
        magic, w, h, maxval = _read_pnm_header(f)
        if magic not in magics:
            raise InputError(f"not a {b' or '.join(magics).decode()} map: {path}")
        color = magic in (b"P3", b"P6")
        count = w * h * (3 if color else 1)
        if magic in (b"P2", b"P3"):
            try:
                values = np.array(f.read().split()[:count], dtype=float)
            except ValueError as exc:
                raise InputError(f"bad sample in {path}: {exc}") from None
            if values.size < count:
                raise InputError(f"truncated image data in {path}: "
                                 f"{values.size} of {count} samples")
        else:
            dtype = ">u2" if maxval > 255 else np.uint8
            values = _read_samples(f, dtype, count, path).astype(float)
    return values.reshape((h, w, 3) if color else (h, w)), maxval


# ---------------------------------------------------------------------------
# CSV series (RFC 4180, 17 significant digits)


def write_series_csv(path: str, columns: dict) -> None:
    """Write named, equal-length columns; floats keep 17 significant digits."""
    import csv

    names = list(columns)
    if not names:
        raise InputError("no columns to write")
    arrays = [np.asarray(columns[name]) for name in names]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise InputError("columns must have equal length")
    with open(path, "w", newline="", encoding="ascii") as f:
        writer = csv.writer(f)
        writer.writerow(names)
        for i in range(length):
            row = []
            for a in arrays:
                x = a[i]
                if isinstance(x, (np.integer, int)):
                    row.append(str(int(x)))
                else:
                    row.append(_float_repr(x))
            writer.writerow(row)


def read_series_csv(path: str) -> dict:
    import csv

    with open(path, "r", newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        names = next(reader)
        cols = {name: [] for name in names}
        for row in reader:
            for name, cell in zip(names, row):
                cols[name].append(float(cell))
    return {name: np.array(vals) for name, vals in cols.items()}


# ---------------------------------------------------------------------------
# canonical configs and run manifests


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical serialization, stable under key reordering."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def write_manifest(out_dir: str, command: str, config: dict, seed: int, timings: dict,
                   artifacts: list) -> str:
    """Persist the audit record of one run, its inputs, outputs, tool
    versions and wall-clock timings, after checking every listed artifact
    exists."""
    from . import __version__

    missing = [a for a in artifacts if not os.path.exists(os.path.join(out_dir, a))]
    if missing:
        raise InputError(f"manifest lists missing artifacts: {missing}")
    path = os.path.join(out_dir, "manifest.json")
    _dump_json(path, {
        "command": command,
        "config_hash": config_hash(config),
        "seed": seed,
        "artifacts": sorted(artifacts),
        "versions": (f"sourcecond {__version__}, numpy {np.__version__}, "
                     f"python {platform.python_version()}"),
        "timings": timings,
    })
    return path


def _dump_json(path: str, payload: dict) -> None:
    # standard JSON only: a NaN or infinite float raises ValueError before
    # the file is opened
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="ascii") as f:
        f.write(text + "\n")


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as standard JSON; a NaN or infinite float is refused
    with ``ValueError`` and nothing is written."""
    _dump_json(path, payload)
