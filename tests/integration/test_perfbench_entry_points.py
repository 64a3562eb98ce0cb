"""perfbench's per-layer wrappers patch program entry points by name.

``perfbench/layers.py`` lists them in ``FUNCTIONS`` and ``METHODS``; a
renamed or moved entry point would otherwise surface only when a traced
benchmark run tries to patch it.  The tables are read from the source
without importing or executing the file.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def patch_table(name: str) -> tuple:
    """The literal value of the module-level assignment to ``name``."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} assigns no {name}")


@pytest.mark.parametrize(
    "module, function, layer", patch_table("FUNCTIONS"), ids=str
)
def test_every_patched_function_exists(module, function, layer):
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize(
    "module, owner, method, layer", patch_table("METHODS"), ids=str
)
def test_every_patched_method_is_defined_on_its_class(module, owner, method, layer):
    cls = getattr(importlib.import_module(module), owner)
    assert callable(cls.__dict__.get(method))
