import ast
import re
from pathlib import Path

from softcone import profiles, quadrature

SRC = Path(__file__).resolve().parent.parent / "src" / "softcone"


def _function_level_relative_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                         if isinstance(node, ast.ImportFrom) and node.level > 0)
    return found


def test_no_intra_package_import_inside_a_function():
    # a module imports the modules it needs at its top; an import cycle is
    # mended by moving code, not by importing inside a function
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = sorted({hit for path in paths for hit in _function_level_relative_imports(path)})
    assert found == []


def test_no_numpy_polynomial_in_the_package():
    # every Legendre rule and basis comes from quadrature's own recurrences
    use = re.compile(r"\bnp\.polynomial\b|from numpy\.polynomial|import numpy\.polynomial")
    found = [path.name for path in sorted(SRC.glob("*.py")) if use.search(path.read_text())]
    assert found == []


def test_slope_oracles_build_no_gauss_rule(monkeypatch):
    # the soft factor is a closed form, independent of the Gauss rules of the
    # pairings whose slopes it checks
    def never(order):
        raise AssertionError(f"a Gauss rule of order {order} was built")

    assert not hasattr(profiles, "gauss_rule")
    monkeypatch.setattr(quadrature, "gauss_rule", never)
    assert profiles.angular_factor(0.3) > 0.0
    assert profiles.pairwise_angular_factor((0.0, 0.0, 0.3), (0.2, 0.0, 0.1)) > 0.0
