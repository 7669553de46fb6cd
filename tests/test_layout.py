"""Layout rules of the package that no single module's tests can see."""

import ast
import inspect
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


@pytest.mark.parametrize("module", sorted(name for name in os.listdir(SRC) if name.endswith(".py")))
def test_norms_only_in_operators(module):
    # one summation for every norm that feeds a metric, a stop, a
    # verification or a summary: operators.norm, which sums without BLAS, so
    # operators.py names none of these either
    calls = module_norm_sum_calls(module)
    assert not calls, f"{module} sums norms at {calls}; call operators.norm"


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


def _is_square(node):
    # ``x ** 2`` or ``np.square(x)``
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant)
                and node.right.value == 2)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "square" and _is_numpy(node.func.value))


def square_sum_calls(source, filename="<source>"):
    """``(line, name)`` of every ``np.sum``, ``np.add.reduce`` and
    ``.sum()`` whose summand holds a square (``** 2`` or ``np.square``):
    a squared norm summed by hand."""
    tree = ast.parse(source, filename=filename)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr == "sum" and _is_numpy(func.value):
            name, summand = "sum", node.args[:1]
        elif (func.attr == "reduce" and isinstance(func.value, ast.Attribute)
              and func.value.attr == "add" and _is_numpy(func.value.value)):
            name, summand = "add.reduce", node.args[:1]
        elif func.attr == "sum":
            name, summand = ".sum()", [func.value]
        else:
            continue
        if any(_is_square(inner) for arg in summand for inner in ast.walk(arg)):
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != "operators.py"))
def test_sums_of_squares_only_in_operators(module):
    # a squared norm is ``norm(x) ** 2``: the sum is operators.norm's
    with open(os.path.join(SRC, module), encoding="utf-8") as f:
        calls = square_sum_calls(f.read(), module)
    assert not calls, f"{module} sums squares at {calls}; call operators.norm"


def test_square_sum_scan_finds_each_spelling():
    source = "\n".join([
        "a = np.sum(np.abs(u - w) ** 2) + numpy.sum(np.square(x))",
        "b = np.add.reduce(x ** 2, axis=None) + (x ** 2).sum() + np.square(x).sum(axis=0)",
        "c = np.sum(x * x) + np.sum(x ** 3) + (x ** 2).max() + sum(x ** 2)",
        "d = np.add.reduce(weights * (x.real ** 2 + x.imag ** 2))",
    ])
    assert square_sum_calls(source) == [
        (1, "sum"), (1, "sum"), (2, ".sum()"), (2, ".sum()"), (2, "add.reduce"),
        (4, "add.reduce")]


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


# a map writes its result into an array one way, ``apply(x, out=)`` and
# ``adjoint(y, out=)``: no second pair of names does the same work
def defined(source, name, filename="<source>"):
    """Lines of every function or class that ``source`` defines as ``name``."""
    tree = ast.parse(source, filename=filename)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name == name)


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(SRC) if name.endswith(".py")))
@pytest.mark.parametrize("name", ["apply_into", "adjoint_into"])
def test_no_second_pair_of_out_forms(module, name):
    with open(os.path.join(SRC, module), encoding="utf-8") as f:
        source = f.read()
    found = defined(source, name) + [line for line, _ in named_outside(source, name)]
    assert not found, f"{module} names {name} at {sorted(found)}; pass out= to apply/adjoint"


def test_definition_scan_finds_each_spelling():
    source = "\n".join([
        "class M:",
        "    def apply_into(self, x, out):",
        "        return self.apply(x)",
        "async def apply_into(): pass",
        "class apply_into: pass",
        "m.apply_into(x, out)",
    ])
    assert defined(source, "apply_into") == [2, 4, 5]
    assert named_outside(source, "apply_into") == [(6, None)]


def test_every_map_takes_out():
    from sourcecond import operators

    maps = {name: cls for name, cls in inspect.getmembers(operators, inspect.isclass)
            if issubclass(cls, operators.LinearMap) and cls.__module__ == operators.__name__}
    assert set(maps) >= {"LinearMap", "IdentityMap", "SamplingMap", "FourierSamplingMap",
                         "MatrixMap", "GradientMap"}
    for name, cls in maps.items():
        for method in (cls.apply, cls.adjoint):
            out = inspect.signature(method).parameters.get("out")
            assert out is not None and out.default is None, f"{name}.{method.__name__}"
