"""Layout rules of the package that no single module's tests can see."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "sourcecond")

# the 2-D transforms and the 1-D passes they are made of; frequency grids and
# shifts (fftfreq, fftshift) are no transforms, and neither is the module
# ``np.fft`` itself
FFT_TRANSFORMS = {"fft2", "ifft2", "rfft2", "irfft2", "fft", "ifft", "rfft", "irfft"}


def _is_fft_module(node):
    # ``np.fft`` or ``numpy.fft``: the module, whose attributes are the transforms
    return (isinstance(node, ast.Attribute) and node.attr == "fft"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def transform_calls(source, filename="<source>"):
    """``(line, name)`` of every FFT transform that ``source`` names, whether
    as an attribute (``np.fft.fft2``), a bare name or an import."""
    tree = ast.parse(source, filename=filename)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FFT_TRANSFORMS:
            if not _is_fft_module(node):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in FFT_TRANSFORMS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module != "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in FFT_TRANSFORMS]
    return sorted(found)


def module_transform_calls(module):
    path = os.path.join(SRC, module)
    with open(path, encoding="utf-8") as f:
        return transform_calls(f.read(), path)


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != "operators.py"))
def test_fft_transforms_only_in_operators(module):
    # FFT conventions (norm, half spectrum, mirror weights) live in operators.py
    calls = module_transform_calls(module)
    assert not calls, f"{module} calls FFT transforms at {calls}; go through operators"


def test_operators_is_seen_to_transform():
    # the scan finds the transforms where they are, so an empty scan means
    # something: the full-spectrum maps name fft2/ifft2, and rdft2/irdft2
    # run the 1-D passes of the real pair
    names = {name for _, name in module_transform_calls("operators.py")}
    assert names == {"fft2", "ifft2", "fft", "ifft", "rfft", "irfft"}


def test_scan_tells_transforms_from_the_module_and_grids():
    source = "\n".join([
        "import numpy as np",
        "from numpy import fft",
        "freqs = np.fft.fftfreq(8) + np.fft.fftshift(np.arange(8))",
        "module = np.fft",
        "a = np.fft.fft(x)",
        "b = numpy.fft.irfft(y, n=8)",
        "from numpy.fft import rfft",
        "c = ifft(z)",
    ])
    assert transform_calls(source) == [(5, "fft"), (6, "irfft"), (7, "rfft"), (8, "ifft")]


# the numpy calls that sum a norm or an inner product, through BLAS for
# float arrays; every norm is taken by ``operators.norm``
def _is_numpy(node):
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _is_linalg(node):
    # ``np.linalg``, or ``linalg`` imported from numpy
    return ((isinstance(node, ast.Attribute) and node.attr == "linalg"
             and _is_numpy(node.value))
            or (isinstance(node, ast.Name) and node.id == "linalg"))


def norm_sum_calls(source, filename="<source>"):
    """``(line, name)`` of every ``np.linalg.norm``, ``np.dot`` and
    ``np.vdot`` that ``source`` names, as an attribute or an import."""
    tree = ast.parse(source, filename=filename)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in ("dot", "vdot") and _is_numpy(node.value):
                found.append((node.lineno, node.attr))
            elif node.attr == "norm" and _is_linalg(node.value):
                found.append((node.lineno, "linalg.norm"))
        elif isinstance(node, ast.ImportFrom):
            wanted = {"numpy": ("dot", "vdot"), "numpy.linalg": ("norm",)}.get(node.module, ())
            found += [(node.lineno, a.name) for a in node.names if a.name in wanted]
    return sorted(found)


def module_norm_sum_calls(module):
    path = os.path.join(SRC, module)
    with open(path, encoding="utf-8") as f:
        return norm_sum_calls(f.read(), path)


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != "operators.py"))
def test_norms_only_in_operators(module):
    # one summation for every norm that feeds a metric, a stop, a
    # verification or a summary: operators.norm
    calls = module_norm_sum_calls(module)
    assert not calls, f"{module} sums norms at {calls}; call operators.norm"


def test_operators_is_seen_to_take_the_norm():
    # operators.norm's plain branch is the one np.linalg.norm left
    assert [name for _, name in module_norm_sum_calls("operators.py")] == ["linalg.norm"]


def test_norm_scan_finds_each_spelling():
    source = "\n".join([
        "import numpy as np",
        "from numpy import linalg",
        "a = np.linalg.norm(x) + numpy.linalg.norm(y)",
        "b = np.dot(x, y) + np.vdot(x, y)",
        "c = linalg.norm(x) + scipy.linalg.norm(x) + x.dot(y) + norm(x)",
        "from numpy.linalg import norm",
        "from numpy import dot, vdot",
    ])
    assert norm_sum_calls(source) == [
        (3, "linalg.norm"), (3, "linalg.norm"), (4, "dot"), (4, "vdot"),
        (5, "linalg.norm"), (6, "norm"), (7, "dot"), (7, "vdot")]


# the stop rule has one owner, ``solvers._iterate``: solvers hand it a metric
# and a step, and no solver body reads the tolerance or forms the two-part
# metric itself
def named_outside(source, name, allowed=(), filename="<source>"):
    """``(line, owner)`` of every place ``source`` names ``name``, as a bare
    name, an attribute or an import, outside the top-level functions and
    classes in ``allowed``; ``owner`` is the top-level definition around
    it, or None at module level."""
    tree = ast.parse(source, filename=filename)
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        if owner in allowed:
            continue
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and name in (node.name, node.asname))):
                found.append((node.lineno, owner))
    return sorted(found)


def module_named_outside(module, name, allowed=()):
    path = os.path.join(SRC, module)
    with open(path, encoding="utf-8") as f:
        return named_outside(f.read(), name, allowed, path)


@pytest.mark.parametrize("module", ["solvers.py", "varreg.py"])
def test_tolerance_read_only_by_the_loop(module):
    reads = module_named_outside(module, "grad_tol", ("SolveConfig", "_iterate"))
    assert not reads, f"{module} reads grad_tol at {reads}; the stop rule is _iterate's"


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(SRC) if name.endswith(".py")))
def test_two_part_metric_formed_only_by_the_loop(module):
    allowed = ("_iterate", "_mean_of_halves") if module == "solvers.py" else ()
    uses = module_named_outside(module, "_mean_of_halves", allowed)
    assert not uses, f"{module} names _mean_of_halves at {uses}; only _iterate calls it"


def test_loop_is_seen_to_own_the_stop_rule():
    # the scans find the names where they are, so an empty scan means something
    owners = {owner for _, owner in module_named_outside("solvers.py", "grad_tol")}
    assert owners == {"SolveConfig", "_iterate"}
    owners = {owner for _, owner in module_named_outside("solvers.py", "_mean_of_halves")}
    assert owners == {"_iterate"}


def test_name_scan_finds_each_spelling():
    source = "\n".join([
        "from .solvers import _iterate, _mean_of_halves",
        "import x as grad_tol",
        "class SolveConfig:",
        "    grad_tol: float = 0.0",
        "def _iterate(cfg):",
        "    return cfg.grad_tol",
        "def solve(cfg):",
        "    tol = cfg.grad_tol + getattr(cfg, 'other')",
        "    return _mean_of_halves(tol, grad_tol, True, tol)",
        "cfg.grad_tol = 1.0",
    ])
    assert named_outside(source, "grad_tol", ("SolveConfig", "_iterate")) == [
        (2, None), (8, "solve"), (9, "solve"), (10, None)]
    assert named_outside(source, "_mean_of_halves") == [(1, None), (9, "solve")]
