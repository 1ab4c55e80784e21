"""The benchmark's traced run looks up ralmkit callables by name; every one
of them must still exist where it is looked up.  The names kept only for it
have no caller in ralmkit, so they can go with the tracer targets."""

import ast
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if attr not in vars(owner)]
    assert not missing, f"traced names missing: {missing}"


SRC = Path(__file__).resolve().parents[1] / "src" / "ralmkit"
# Kept in src/ only for the tracer above: no ralmkit module may use them.
TRACER_ONLY = {"auglag_value", "auglag_rgrad", "auglag_dual_grad", "auglag_ghess_vec"}
# Mirrors of the Evaluation and Certificate APIs that are gone.
DELETED = {"evaluate", "multiplier_update", "holds"}


def uses_and_definitions(tree):
    """The tracer-only names ``tree`` refers to and the deleted names it defines."""
    uses, defined = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in TRACER_ONLY:
            uses.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in TRACER_ONLY:
            uses.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            uses |= {a.name for a in node.names} & TRACER_ONLY
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in DELETED:
            defined.add(node.name)
    return uses, defined


def test_tracer_only_names_have_no_caller_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        uses, defined = uses_and_definitions(ast.parse(path.read_text(), str(path)))
        assert not uses, f"{path.name} uses tracer-only names {sorted(uses)}"
        assert not defined, f"{path.name} defines deleted names {sorted(defined)}"


def test_the_scan_sees_each_kind_of_use():
    source = """
from .lagrangian import auglag_value
v = lagrangian.auglag_rgrad(P, rho, X, y)
f = auglag_dual_grad
def evaluate(P, rho, X, y): ...
class C:
    def holds(self): ...
"""
    uses, defined = uses_and_definitions(ast.parse(source))
    assert uses == {"auglag_value", "auglag_rgrad", "auglag_dual_grad"}
    assert defined == {"evaluate", "holds"}
