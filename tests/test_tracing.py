"""The benchmark's tracer rebinds names that exist and puts them back."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound_and_restored():
    spans = _load_spans()
    bindings = [(owner, attr) for _, owners, attr, _ in spans.TRACED for owner in owners]
    for owner, attr in bindings:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not bound"
    originals = [owner.__dict__[attr] for owner, attr in bindings]
    with spans.Tracer().installed():
        for (owner, attr), orig in zip(bindings, originals):
            assert owner.__dict__[attr] is not orig, f"{owner.__name__}.{attr}"
    for (owner, attr), orig in zip(bindings, originals):
        assert owner.__dict__[attr] is orig, f"{owner.__name__}.{attr} not restored"
