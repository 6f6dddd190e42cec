"""The golden parity gate: outputs that a kernel change must keep bitwise
still hash to the digests in ``tests/golden/parity.txt``."""

import importlib.util
import os
import subprocess
import sys
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


def test_machine_key_names_the_blas_core(parity):
    """The key's last line is the OpenBLAS core, which moves digests where
    the version strings do not; a forced core shows in the key, so the gate
    skips on it instead of failing."""
    core = parity.blas_core()
    assert list(islice(parity.lines(), 5))[-1] == f"# blas_core: {core}"
    assert any(line.startswith("# blas_core: ") for line in GOLDEN.read_text().splitlines())
    if core == "unknown":
        pytest.skip("numpy's BLAS reports no core name")
    script = f"import runpy; print(runpy.run_path({parity.__file__!r})['blas_core']())"
    env = os.environ | {"OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "Haswell", out.stderr


def test_an_argument_is_refused_before_any_digest():
    """The script takes no arguments, so ``--check golden.txt`` cannot
    look like a comparison that passed: it exits 2 and prints nothing."""
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parity.py"), "--check", str(GOLDEN)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "pytest tests/test_parity.py" in out.stderr
