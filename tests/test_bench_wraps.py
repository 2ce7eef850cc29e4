"""The benchmark's per-layer tracing wraps package functions and methods by
name: a rename or deletion would break every traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_every_function_and_method_the_benchmark_wraps_exists(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends src/ and bench/
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.TRACED_FUNCTIONS and bench.TRACED_METHODS
    for span, module, attr, _ in bench.TRACED_FUNCTIONS:
        assert callable(getattr(module, attr, None)), span
    for span, cls, attr, _ in bench.TRACED_METHODS:
        assert attr in cls.__dict__, span
