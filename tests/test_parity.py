"""The golden parity gate: outputs that a kernel change must keep bitwise
still hash to the digests in ``tests/golden/parity.txt``."""

import importlib.util
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "parity.txt"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden_digests(parity):
    golden = GOLDEN.read_text().splitlines()
    key = [line for line in golden if line.startswith("# ")]
    here = parity.lines()
    for line, saved in zip(islice(here, len(key)), key):
        if line != saved:
            pytest.skip(f"golden digests come from another machine: {line!r} here, {saved!r} golden")
    saved = golden[len(key):]
    assert len(saved) == 122
    assert list(here) == saved
