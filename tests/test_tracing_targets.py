"""The benchmark's traced run looks up ralmkit callables by name; every one
of them must still exist where it is looked up."""

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
