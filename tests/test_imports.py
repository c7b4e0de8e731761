"""Each logidp module uses only the public names of the others."""

import ast
from pathlib import Path

import pytest

import logidp

MODULES = sorted(Path(logidp.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def private_cross_imports(source: str) -> list[str]:
    """Underscore names the source takes from a logidp module: `from .m import
    _x`, `from logidp.m import _x`, and `m._x` or `logidp.m._x` on an
    imported module."""
    tree = ast.parse(source)
    modules = {"logidp"}  # names bound to a logidp module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "logidp"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "logidp"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.asname and a.name.startswith("logidp."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base is not None and base.split(".")[0] in modules:
                found.append(f"{base}.{node.attr}")
    return found


@pytest.mark.parametrize("source, found", [
    ("from .mechanisms import _check_delta, MechanismKind", ["mechanisms._check_delta"]),
    ("from logidp.sensitivity import _from_json_dict", ["logidp.sensitivity._from_json_dict"]),
    ("from . import mia\nmia._forward(1)", ["mia._forward"]),
    ("import logidp.rng as r\nr._mix", ["r._mix"]),
    ("import logidp.rng\nlogidp.rng._mix", ["logidp.rng._mix"]),
    ("from .rng import RngStream\nfrom . import __version__\nself._cache = 1", []),
], ids=["relative", "absolute", "module-attribute", "aliased-module", "dotted-module", "public-only"])
def test_checker_finds_private_imports(source, found):
    assert private_cross_imports(source) == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_another_modules_private_names(path):
    assert private_cross_imports(path.read_text()) == []
