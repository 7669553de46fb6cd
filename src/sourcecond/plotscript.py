"""Static plotting scripts dropped next to the run artifacts.

The core package never renders; these scripts let anyone with matplotlib turn
the emitted CSV/PFM data into figures after the fact.
"""

# the last lines of every script
_SAVE = '''\
fig.tight_layout()
fig.savefig("plots.png", dpi=150)
print("wrote plots.png")
'''

# the imports, the float-map reader and the summary of both Fourier studies
_PFM_PRELUDE = '''\
import json

import numpy as np
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt


def read_pfm(path):
    with open(path, "rb") as f:
        magic = f.readline().strip()
        w, h = (int(t) for t in f.readline().split())
        scale = float(f.readline())
        ch = 3 if magic == b"PF" else 1
        data = np.frombuffer(f.read(), dtype="<f4" if scale < 0 else ">f4",
                             count=w * h * ch).reshape(h, w, ch)[::-1]
    return data[:, :, 0] if ch == 1 else data

metrics = json.load(open("metrics.json"))
'''

LASSO_PLOT = '''\
#!/usr/bin/env python3
"""Render the polynomial-regression run in this directory (needs matplotlib)."""
import csv
import json

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    names = rows[0]
    cols = {n: [float(r[i]) for r in rows[1:]] for i, n in enumerate(names)}
    return cols

series = read_csv("series.csv")
coeffs = read_csv("coefficients.csv")
summary = json.load(open("summary.json"))

fig, axes = plt.subplots(2, 2, figsize=(11, 8))
ax = axes[0][0]
ax.plot(series["sample"], series["f_clean"], label="f")
ax.plot(series["sample"], series["f_noisy"], ".", label="noisy data")
ax.plot(series["sample"], series["g_alpha"], "--", label="range data")
ax.set_title("data"); ax.legend()
ax = axes[0][1]
ax.plot(series["sample"], series["v"])
ax.set_title(f"certificate v, norm {summary['v_norm']:.2f}")
ax = axes[1][0]
ax.plot(coeffs["degree"], coeffs["phi_t_v"], label="Phi^T v")
ax.plot(coeffs["degree"], coeffs["sign_w_true"], "x", label="sign(w)")
ax.set_title("subdifferential check"); ax.legend()
ax = axes[1][1]
hist = read_csv("history.csv")
ax.semilogy(hist["iteration"], hist["grad_norm"])
ax.set_title("gradient norm")
''' + _SAVE

FOURIER_PLOT = '''\
#!/usr/bin/env python3
"""Render the Fourier-sampling run in this directory (needs matplotlib)."""
''' + _PFM_PRELUDE + '''\
panels = [
    ("u_true.pfm", "ground truth"),
    ("backprojection.pfm", "certificate backprojection"),
    ("q_norm.pfm", "|q| field"),
    ("solution.pfm", "variational solution"),
    ("baseline.pfm", "linear baseline"),
    ("mask.pfm", "sampling mask"),
]
fig, axes = plt.subplots(2, 3, figsize=(13, 8))
for ax, (name, title) in zip(axes.ravel(), panels):
    img = read_pfm(name)
    if name == "mask.pfm":
        img = np.fft.fftshift(img)
    ax.imshow(img, cmap="gray")
    ax.set_title(title); ax.axis("off")
fig.suptitle(f"rel error {metrics['rel_error']:.4f}, ||v||={metrics['v_norm']:.2f}")
''' + _SAVE

SAMPLING_PLOT = '''\
#!/usr/bin/env python3
"""Render the sampling-pattern study in this directory (needs matplotlib)."""
''' + _PFM_PRELUDE + '''\
fig, axes = plt.subplots(2, 4, figsize=(15, 7))
axes[0][0].imshow(read_pfm("u_true.pfm"), cmap="gray")
axes[0][0].set_title("ground truth")
for i, name in enumerate(("learned", "lowpass", "largest")):
    axes[0][i + 1].imshow(np.fft.fftshift(read_pfm(f"mask_{name}.pfm")), cmap="gray")
    axes[0][i + 1].set_title(f"{name} mask")
    axes[1][i + 1].imshow(read_pfm(f"solution_{name}.pfm"), cmap="gray")
    err = metrics["stages"][name]["rel_error"]
    axes[1][i + 1].set_title(f"{name}: rel err {err:.4f}")
axes[1][0].imshow(np.abs(read_pfm("vt_re.pfm") + 1j * read_pfm("vt_im.pfm")),
                  cmap="gray")
axes[1][0].set_title("|data-space certificate|")
for ax in axes.ravel():
    ax.axis("off")
''' + _SAVE
