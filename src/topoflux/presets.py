"""The bundled scenario presets: the ``configs/*.json`` files, loaded by name.

Those files are the only copy.  ``configs/`` is found beside ``src/``, so this
needs a source checkout or an editable install.  altParams pins its resonance
target at 50 GHz, where its EJ alone gives a 50.6 GHz plasma frequency.
"""

from __future__ import annotations

import json
from pathlib import Path

_CONFIGS = Path(__file__).resolve().parents[2] / "configs"
_NAMES = ("fig2a", "fig2b", "altParams", "fig3a", "fig3b", "robustness")


def preset_names() -> tuple[str, ...]:
    return _NAMES


def scenario_preset(name: str) -> dict:
    """A fresh copy of the raw scenario config ``configs/<name>.json``."""
    if name not in _NAMES:
        raise KeyError(f"unknown preset {name!r}; have {', '.join(_NAMES)}")
    return json.loads((_CONFIGS / f"{name}.json").read_text())
