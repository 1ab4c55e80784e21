"""``tools/bitcheck.py compare``: exit 0 only when two dumps hold the same
keys with the same bytes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BITCHECK = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"


def compare(tmp_path, a: dict, b: dict) -> subprocess.CompletedProcess:
    np.savez(tmp_path / "a.npz", **a)
    np.savez(tmp_path / "b.npz", **b)
    return subprocess.run([sys.executable, str(BITCHECK), "compare",
                           str(tmp_path / "a.npz"), str(tmp_path / "b.npz")],
                          capture_output=True, text=True)


BASE = {"w/op/X": np.array([[1.0, -0.0], [2.5, 3.0]]), "w/op/n": np.array([3, 4])}


def test_identical_dumps_exit_0(tmp_path):
    out = compare(tmp_path, BASE, {k: v.copy() for k, v in BASE.items()})
    assert out.returncode == 0
    assert out.stdout.strip() == "w/op: IDENTICAL"


@pytest.mark.parametrize("entry, value", [((1, 0), np.nextafter(2.5, 3.0)), ((0, 1), 0.0)],
                         ids=["one-ulp", "signed-zero"])
def test_one_differing_float_exits_1(tmp_path, entry, value):
    other = dict(BASE, **{"w/op/X": BASE["w/op/X"].copy()})
    other["w/op/X"][entry] = value
    out = compare(tmp_path, BASE, other)
    assert out.returncode == 1
    assert out.stdout.startswith("w/op: X:")


def test_key_in_one_file_only_exits_1(tmp_path):
    out = compare(tmp_path, BASE, dict(BASE, **{"w/op/extra": np.zeros(2)}))
    assert out.returncode == 1
    assert "extra: only in" in out.stdout
