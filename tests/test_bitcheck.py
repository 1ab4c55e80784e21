"""``tools/bitcheck.py``: ``compare`` exits 0 only when two dumps hold the same
keys with the same bytes; ``dump --workload NAME`` runs only the named workloads."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
import types
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


def test_differing_records_name_their_first_differing_row(tmp_path):
    # rows are outer steps; X differs first, yet the row is still reported
    records = np.arange(12.0).reshape(4, 3)
    a = dict(BASE, **{"w/op/records": records})
    later = records.copy()
    later[2, 1] = np.nextafter(later[2, 1], 0.0)
    out = compare(tmp_path, a, dict(a, **{"w/op/X": BASE["w/op/X"] + 1.0, "w/op/records": later}))
    assert out.returncode == 1
    assert out.stdout.startswith("w/op: X:")
    assert out.stdout.rstrip().endswith("; records differ from row 2; work counts identical")
    # a solve that stops earlier on the same path differs from the row it lacks
    out = compare(tmp_path, a, dict(a, **{"w/op/records": records[:3]}))
    assert out.stdout.strip() == ("w/op: records: float64[4, 3] vs float64[3, 3]; "
                                  "records differ from row 3; work counts identical")


def load_bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", BITCHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclasses.dataclass
class FakeResult:
    value: float


def fake_workloads(ran):
    def setup(name):
        def ops(seed):
            return [types.SimpleNamespace(name="op", call=lambda: ran.append(name) or FakeResult(1.5))]
        return ops

    return types.SimpleNamespace(SETUPS={"a": setup("a"), "b": setup("b"), "c": setup("c")})


def test_a_solve_dump_tells_inner_stop_reasons_apart(tmp_path):
    # a noise_floor exit and a max_iter exit have the same counts: neither
    # stopped nor failed its line search
    from ralmkit.newton import NewtonStats
    from ralmkit.ralm import RalmResult

    bitcheck = load_bitcheck()

    def dumped(reason):
        stats = [NewtonStats(iterations=2, stop_reason="criterion"),
                 NewtonStats(iterations=5, stop_reason=reason)]
        result = RalmResult(X=types.SimpleNamespace(X=np.eye(2)), y=np.zeros(2),
                            records=[], converged=False, inner_stats=stats)
        return {f"w/op/{k}": v for k, v in bitcheck._fields(result).items()}

    a, b = dumped("max_iter"), dumped("noise_floor")
    assert list(a["w/op/stop_reasons"]) == ["criterion", "max_iter"]
    assert np.array_equal(a["w/op/newton_counts"], b["w/op/newton_counts"])
    assert compare(tmp_path, a, {k: v.copy() for k, v in a.items()}).returncode == 0
    out = compare(tmp_path, a, b)
    assert out.returncode == 1
    assert out.stdout.startswith("w/op: stop_reasons:")


def fake_solve(X, dual_jumps=0, **counts):
    from ralmkit.geometry import Euclidean, ManifoldPoint
    from ralmkit.newton import NewtonStats
    from ralmkit.ralm import RalmResult

    return RalmResult(X=ManifoldPoint(Euclidean(*X.shape), X), y=np.zeros(2), records=[],
                      converged=True,
                      inner_stats=[NewtonStats(stop_reason="criterion", **counts)],
                      dual_jumps=dual_jumps)


@pytest.mark.parametrize("moved, field", [({"rounding_accepts": 1}, "newton_counts"),
                                          ({"dual_jumps": 1}, "dual_jumps")],
                         ids=["rounding_accepts", "dual_jumps"])
def test_every_solve_count_is_a_work_count(tmp_path, moved, field):
    # solves that differ only in one count, with every float byte-identical
    bitcheck = load_bitcheck()

    def dumped(result):
        return {f"w/op/{k}": np.asarray(v) for k, v in bitcheck._fields(result).items()}

    out = compare(tmp_path, dumped(fake_solve(np.eye(2), iterations=3)),
                  dumped(fake_solve(np.eye(2), iterations=3, **moved)))
    assert out.returncode == 1
    assert out.stdout.strip().endswith(f"; work counts differ ({field})")


def test_work_counts_are_reported_apart_from_bytes(tmp_path):
    # a solve whose rounding moved but whose counts held, then one whose
    # Newton counts moved; a certificate's counts are its int and bool fields
    from ralmkit.certify import Certificate

    bitcheck = load_bitcheck()

    def dumped(result, op="op"):
        return {f"w/{op}/{k}": np.asarray(v) for k, v in bitcheck._fields(result).items()}

    a = dumped(fake_solve(np.eye(2), iterations=3))
    out = compare(tmp_path, a, dumped(fake_solve(np.eye(2) + 1e-16, iterations=3)))
    assert out.returncode == 1
    assert out.stdout.strip().endswith("; work counts identical")
    out = compare(tmp_path, a, dumped(fake_solve(np.eye(2) + 1e-16, iterations=4)))
    assert out.stdout.strip().endswith("; work counts differ (newton_counts)")

    cert = Certificate(kind="genhess", min_eig=0.5, subspace_dim=3, operator_applications=41)
    a = dumped(cert)
    out = compare(tmp_path, a, dumped(dataclasses.replace(cert, min_eig=0.5 + 1e-16)))
    assert out.stdout.strip() == "w/op: min_eig: max abs difference 1.110e-16; work counts identical"
    moved = dataclasses.replace(cert, min_eig=0.4, operator_applications=42, partial=True)
    out = compare(tmp_path, a, dumped(moved))
    assert out.stdout.strip().endswith("; work counts differ (partial, operator_applications)")


def test_dump_runs_only_the_named_workloads(tmp_path, monkeypatch):
    bitcheck, ran = load_bitcheck(), []
    monkeypatch.setattr(bitcheck, "_import", lambda root: fake_workloads(ran))
    out = tmp_path / "o.npz"
    assert bitcheck.main(["dump", str(out), "--workload", "c", "--workload", "a"]) == 0
    assert ran == ["a", "a", "c", "c"]  # each once untraced, then traced
    with np.load(out) as dumped:
        assert sorted(dumped.files) == ["a/op/value", "c/op/value"]
    with pytest.raises(SystemExit, match="unknown workload x; known: a, b, c"):
        bitcheck.main(["dump", str(out), "--workload", "x"])
    assert ran == ["a", "a", "c", "c"]


def test_dump_prints_each_peak_and_saves_none(tmp_path, monkeypatch, capsys):
    # the solve holds four 50 x 40 arrays at once, and five more that its
    # first run keeps, which the traced run does not make; the certificate's
    # line has no ambient size
    from ralmkit.certify import Certificate

    kept = []

    def solve():
        kept.extend([] if kept else [np.ones((50, 40)) for _ in range(5)])
        held = [np.ones((50, 40)) for _ in range(3)]
        return fake_solve(np.full((50, 40), float(len(held))))

    bitcheck = load_bitcheck()
    ops = [types.SimpleNamespace(name="solve", call=solve),
           types.SimpleNamespace(name="cert", call=lambda: Certificate("genhess", 0.5, 3))]
    monkeypatch.setattr(bitcheck, "_import",
                        lambda root: types.SimpleNamespace(SETUPS={"w": lambda seed: ops}))
    out = tmp_path / "o.npz"
    assert bitcheck.main(["dump", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    solve_line = re.fullmatch(r"w/solve: dumped; peak (\S+) MiB = (\S+) ambient arrays", lines[0])
    assert solve_line and 4.0 <= float(solve_line[2]) < 4.2
    assert float(solve_line[1]) == pytest.approx(float(solve_line[2]) * 16000 / 2 ** 20, abs=2e-3)
    assert re.fullmatch(r"w/cert: dumped; peak \d+\.\d{3} MiB", lines[1])
    with np.load(out) as dumped:
        assert not [key for key in dumped.files if "peak" in key]
    assert compare(tmp_path, *[dict(np.load(out))] * 2).returncode == 0


PROBE_TARGET = '''\
import numpy as np
from types import SimpleNamespace


def solve():
    a = np.ones((50, 40))
    b = a + 1.0
    c = a + b
    del a, b
    return SimpleNamespace(X=SimpleNamespace(manifold=SimpleNamespace(ambient_shape=c.shape)))
'''


def test_peak_prints_the_src_lines_where_one_operation_peaks(tmp_path, monkeypatch, capsys):
    # three 50 x 40 arrays are live from `c = a + b` until `del a, b` ends;
    # the caller's lambda, outside src/, is not reported; the unit comes from
    # the manifold's ambient shape, not from an X (which the result lacks)
    src = (tmp_path / "src").resolve()
    src.mkdir()
    (src / "probe_target.py").write_text(PROBE_TARGET)
    spec = importlib.util.spec_from_file_location("probe_target", src / "probe_target.py")
    target = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(target)
    ops = [types.SimpleNamespace(name="other", call=lambda: pytest.fail("not this one")),
           types.SimpleNamespace(name="op", call=lambda: target.solve())]
    bitcheck = load_bitcheck()
    monkeypatch.setattr(bitcheck, "_import",
                        lambda root: types.SimpleNamespace(SETUPS={"w": lambda seed: ops}))
    assert bitcheck.main(["peak", "w/op", "--root", str(src.parent), "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = re.fullmatch(r"w/op: peak \S+ MiB = (\S+) ambient arrays", lines[0])
    assert head and 3.0 <= float(head[1]) < 3.1
    rows = [re.fullmatch(r" *(\S+) arrays  (\S+)  (.*)", line).groups() for line in lines[1:]]
    assert [(where, text) for _, where, text in rows] == [
        ("src/probe_target.py:8", "c = a + b"),
        ("src/probe_target.py:9", "del a, b"),
        ("src/probe_target.py:7", "b = a + 1.0"),
    ]
    assert [round(float(size)) for size, _, _ in rows] == [3, 3, 2]
    with pytest.raises(SystemExit, match="no seed-0 operation x"):
        bitcheck.main(["peak", "x", "--root", str(src.parent)])
