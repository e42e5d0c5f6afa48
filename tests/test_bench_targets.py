"""The benchmark's tracer must find every function it wraps.

``bench/tracer.py`` patches ragmark functions by module and name. A refactor
that renames or moves one of them makes ``Tracer.install`` raise
``TraceTargetMissing``; this test turns that into a tier-1 failure.
"""

import importlib.util
from pathlib import Path

import ragmark.retrieve

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists_and_is_restored():
    original = ragmark.retrieve.search
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert ragmark.retrieve.search is not original
    finally:
        tracer.uninstall()
    assert ragmark.retrieve.search is original
