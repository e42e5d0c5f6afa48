"""The benchmark's tracer must find every function it wraps, and see it run.

``bench/tracer.py`` patches ragmark functions by module and name. A refactor
that renames or moves one of them makes ``Tracer.install`` raise
``TraceTargetMissing``; these tests turn that into a tier-1 failure, as they
do a refactor that routes the sweep around the names the tracer wraps, or
one that breaks an output check of ``bench/selftest.py``.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import ragmark.retrieve
from ragmark.corpus import Sentence
from ragmark.embed import LocalHashEmbedder
from ragmark.experiment import ExperimentConfig, run_sweep
from ragmark.generate import ExtractiveMockClient
from ragmark.index import IndexKind, build_sentence_index
from ragmark.qagen import QAPair
from ragmark import testgen

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


def test_sweep_search_and_pack_are_traced():
    embedder = LocalHashEmbedder(dim=32)
    texts = ["Alpha beta gamma delta.", "Beta gamma delta epsilon.", "Zeta eta theta iota."]
    index = build_sentence_index([Sentence("d", 0, i, t, 4) for i, t in enumerate(texts)],
                                 embedder)
    testset = testgen.TestSet(pairs=[QAPair("What about alpha beta?", ("d", 0), texts[0])], params={})
    cfg = ExperimentConfig(thresholds=[0.0, 0.5])
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=index,
                  gen_client=ExtractiveMockClient(), embedder=embedder)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"index.search", "retrieve.pack"} <= names
    # one search per question at the lowest threshold, 0.0, which returns every entry
    metrics = tracer.metrics()
    assert metrics["index.searches"] == len(testset.pairs)
    assert metrics["index.hits"] == len(index.key_texts) * metrics["index.searches"]


def test_bench_selftest_passes():
    # every workload at tiny scale, traced and untraced, plus the negative checks
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
