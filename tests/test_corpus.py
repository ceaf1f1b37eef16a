"""Stored exit codes and summary numbers of a corpus of configs (``tests/corpus``).

``scripts/write_corpus.py`` writes the configs and ``expected.json``, and only
it does.  Each stored run, a command with one of the configs or with none,
runs through the CLI as it did there: the exit code and the start of the
stderr line must match exactly, and every number of the summary to a
relative 1e-12.  Two numbers within 1e-14 of each other also match:
round-off-level diagnostics, such as a trace error of 1e-16, keep no stable
relative digits across BLAS builds.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "corpus"
EXPECTED = json.loads((CORPUS / "expected.json").read_text())


def _writer():
    path = ROOT / "scripts" / "write_corpus.py"
    spec = importlib.util.spec_from_file_location("write_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRITER = _writer()


def test_corpus_holds_the_written_configs():
    texts = WRITER.configs()
    assert {n: (e["config"], e["argv"]) for n, e in EXPECTED.items()} == WRITER.entries(texts)
    assert {p.name for p in CORPUS.iterdir()} == {f"{n}.json" for n in [*texts, "expected"]}
    for name, text in texts.items():
        assert (CORPUS / f"{name}.json").read_text() == text, name


@pytest.mark.parametrize("name", EXPECTED)
def test_config_keeps_its_exit_code_and_numbers(name):
    expected = EXPECTED[name]
    got = WRITER.record(expected["argv"], expected["config"])
    assert (got["exit"], got["stderr"]) == (expected["exit"], expected["stderr"])
    assert got["numbers"].keys() == expected["numbers"].keys()
    moved = {
        path: (value, got["numbers"][path])
        for path, value in expected["numbers"].items()
        if not math.isclose(got["numbers"][path], value, rel_tol=1e-12, abs_tol=1e-14)
    }
    assert not moved
