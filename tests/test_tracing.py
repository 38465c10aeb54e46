"""The benchmark's tracer: it rebinds names that exist and puts them back,
and every span a listed per-call metric divides by is called."""

import importlib.util
import json
from pathlib import Path

import gaped.tester
from gaped.generators import gen_periodic_splice, gen_random_edits
from gaped.tester import TesterConfig

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


def test_every_per_call_span_of_the_benchmark_is_called():
    # A listed <span>.us_per_call metric is calls-divided, so a span that
    # is never called leaves it without a value; each workload shape must
    # call every such span at least once.
    spans = _load_spans()
    per_layer = json.loads((SPANS.parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"].removesuffix(".us_per_call") for m in per_layer
             if m["name"].endswith(".us_per_call")]
    assert names
    shapes = {
        "splice": (gen_periodic_splice(4096, 2, 5, seed=1, sigma=8),
                   TesterConfig(t=16, c_s=1.0, seed=3)),
        "sparse": (gen_random_edits(1 << 14, 32, seed=5),
                   TesterConfig(t=64, epsilon=0.5, c_s=0.5, seed=7)),
        "rate 1": (gen_random_edits(4096, 3, seed=11), TesterConfig(t=8, seed=2)),
    }
    for shape, ((x, y), cfg) in shapes.items():
        tracer = spans.Tracer()
        with tracer.installed():
            gaped.tester.run(x, y, cfg)
        tracer.fold()
        totals = tracer.take_totals()
        for name in names:
            assert totals.get(name, {}).get("calls", 0) > 0, (shape, name)
