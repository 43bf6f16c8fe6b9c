"""The benchmark's tracer wraps kkweyl functions by owner and attribute name;
a refactor that renames or removes one would break `bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracing_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, owner, attr, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert not missing
