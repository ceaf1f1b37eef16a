"""Docstrings and comments in ``src/topoflux`` name only things that exist."""

import importlib
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "topoflux"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
# a double-backticked dotted name, such as ``MAX_STEPS``, ``_Plateau.dropped`` or
# ``dynamics._support``
DOTTED = re.compile(r"``([A-Za-z_][\w.]*)``")


def named_internals(module):
    """The names that the source of ``module`` writes between double backticks and that start
    with _ or are all capitals, each with the module that should hold it: the first part of a
    dotted name, or its second when the first is a sibling module."""
    for dotted in DOTTED.findall((SRC / f"{module}.py").read_text()):
        parts = dotted.split(".")
        if len(parts) > 1 and parts[0] in MODULES:
            owner, name = parts[:2]
        else:
            owner, name = module, parts[0]
        if name.startswith("_") or name.isupper():
            yield owner, name


def test_backticked_internal_names_exist():
    # (module whose source names it, module that should hold it, name)
    names = {(module, *pair) for module in MODULES for pair in named_internals(module)}
    missing = sorted(
        (module, f"{owner}.{name}")
        for module, owner, name in names
        if not hasattr(importlib.import_module(f"topoflux.{owner}"), name)
    )
    assert names
    assert not missing
