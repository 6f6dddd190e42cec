"""The golden parity gate: outputs that a kernel change must keep bitwise
still hash to the digests in ``tests/golden/parity.txt``."""

import importlib.util
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
    key, saved = parity.read_saved(GOLDEN)
    other = parity.key_difference(key)
    if other:
        pytest.skip(f"golden digests come from another machine: {other}")
    assert len(saved) == 122
    diff = parity.first_difference(saved, list(parity.digests()))
    assert diff is None, diff


def test_check_names_the_first_field_or_digest_that_differs(parity):
    _, saved = parity.read_saved(GOLDEN)
    here = parity.machine_key()
    assert parity.key_difference(here) is None
    assert parity.key_difference({**here, "numpy": "1.0"}) == (
        f"numpy is {here['numpy']!r} here, '1.0' in the saved output"
    )
    changed = list(saved)
    for i in (7, 40):
        changed[i] = (saved[i][0], "0" * 64)
    assert parity.first_difference(saved, changed) == (
        f"{saved[7][0]} differs: {'0' * 64} here, {saved[7][1]} saved"
    )
    assert parity.first_difference(saved, saved[:-1]) == "121 digests here, 122 saved"
    assert parity.first_difference(saved, saved) is None
