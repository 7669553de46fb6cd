"""Layout rules of the package that no single module's tests can see."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "sourcecond")

# frequency grids and shifts (fftfreq, fftshift) are no transforms
FFT_TRANSFORMS = {"fft2", "ifft2", "rfft2", "irfft2"}


def transform_calls(path):
    """``(line, name)`` of every FFT transform that ``path`` names, whether as
    an attribute (``np.fft.fft2``), a bare name or an import."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FFT_TRANSFORMS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in FFT_TRANSFORMS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in FFT_TRANSFORMS]
    return sorted(found)


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != "operators.py"))
def test_fft_transforms_only_in_operators(module):
    # FFT conventions (norm, half spectrum, mirror weights) live in operators.py
    calls = transform_calls(os.path.join(SRC, module))
    assert not calls, f"{module} calls FFT transforms at {calls}; go through operators"


def test_operators_is_seen_to_transform():
    # the scan finds the transforms where they are, so an empty scan means something
    names = {name for _, name in transform_calls(os.path.join(SRC, "operators.py"))}
    assert names == FFT_TRANSFORMS
