"""The raise contract: the package has two exception classes, one per
CLI exit code, and every ``raise`` in it names one of them.  So no bad
input reaches ``cli.main`` as an exception it does not map to exit 2
or 3."""

import ast
from pathlib import Path

import pytest

import transrisk

PACKAGE = Path(transrisk.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
FAMILIES = {"ValidationError", "NumericalError"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_names_a_family(path):
    stray = [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(parse(path)) if isinstance(node, ast.Raise)
        and not (isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
                 and node.exc.func.id in FAMILIES)
    ]
    assert stray == []


def test_errors_module_defines_exactly_the_two_families():
    classes = {node.name: [ast.unparse(base) for base in node.bases]
               for node in parse(PACKAGE / "errors.py").body if isinstance(node, ast.ClassDef)}
    assert classes == {name: ["Exception"] for name in FAMILIES}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_no_other_module_defines_an_exception(path):
    bases = [ast.unparse(base) for node in ast.walk(parse(path))
             if isinstance(node, ast.ClassDef) for base in node.bases]
    assert [b for b in bases if b.endswith(("Error", "Exception"))] == []
