"""Each logidp module uses only the public names of the others."""

import ast
from collections import defaultdict
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


def seed_label_owners(sources: dict[str, str]) -> dict[str, set[str]]:
    """For each string literal that opens a derive_seed call's labels, the
    modules (keys of sources) that make such a call."""
    owners = defaultdict(set)
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and (_dotted(node.func) or "").split(".")[-1] == "derive_seed"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)):
                owners[node.args[1].value].add(module)
    return dict(owners)


def test_seed_label_checker_finds_each_calling_module():
    sources = {
        "a": 'derive_seed(s, "x")\nderive_seed(s, "y", 1)',
        "b": 'rng.derive_seed(s, "x", k)\nderive_seed(s, label)\nother(s, "y")',
    }
    assert seed_label_owners(sources) == {"x": {"a", "b"}, "y": {"a"}}


def test_each_seed_label_has_one_owner():
    # distinct draws come from distinct derived streams only while no two
    # modules can derive the same label for different purposes
    owners = seed_label_owners({path.stem: path.read_text() for path in MODULES})
    assert {"attack-eval", "attack-data", "shadow-head", "noise"} <= set(owners)
    assert {label: sorted(mods) for label, mods in owners.items() if len(mods) > 1} == {}
