"""Span tracer that wraps ragmark's public functions from outside.

Each target is patched in the namespace its caller looks it up in (for
example ``ragmark.experiment.answer``, not ``ragmark.retrieve.answer``), so
the program runs unchanged apart from the wrapper. A target that no longer
exists raises ``TraceTargetMissing`` at install time: a refactor cannot turn a
layer silently to zero.

Spans are kept in memory and written once, at the end. A span's self time
is its duration minus the durations of its direct children, so the self
times of all spans plus the self time of the command roots add up to the
traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class TraceTargetMissing(RuntimeError):
    pass


def _count_texts(tr, args, result):
    tr.count("embed.texts", len(args[1]))
    for text in args[1]:
        tr.distinct("embed.distinct", text)


def _count_hits(tr, args, result):
    tr.count("index.searches")
    tr.count("index.hits", len(result))


def _count_packs(tr, args, result):
    tr.count("retrieve.packs")
    tr.count("retrieve.truncated", int(result.truncated))
    tr.distinct("retrieve.distinct_contexts", result.text)


def _count_prompts(tr, args, result):
    tr.count("generate.calls")
    tr.distinct("generate.distinct_prompts", args[1].prompt)


def _count_rows(tr, args, result):
    tr.count("metrics.rows")


def _count_sentences(tr, args, result):
    tr.count("corpus.sentences", len(result))


def _count_questions(tr, args, result):
    tr.count("qagen.questions", len(result.pairs))


def _count_clusters(tr, args, result):
    tr.count("testgen.clusters", int(result.params["clusters"]))


# (module, attribute path in that module, layer, counter hook). The layer
# name plus "_s" is the metric that reports the layer's self time.
TARGETS = [
    ("ragmark.cli", "split_paragraphs", "corpus.split", None),
    ("ragmark.cli", "extract_sentences", "corpus.split", None),
    ("ragmark.cli", "filter_sentences", "corpus.split", _count_sentences),
    ("ragmark.cli", "build_qa_dataset", "qagen.build", _count_questions),
    ("ragmark.embed", "LocalHashEmbedder.embed_batch", "embed.embed", _count_texts),
    ("ragmark.embed", "RemoteEmbedder.embed_batch", "embed.embed", _count_texts),
    ("ragmark.cli", "build_sentence_index", "index.build", None),
    ("ragmark.cli", "build_question_index", "index.build", None),
    ("ragmark.cli", "save_index", "index.save", None),
    ("ragmark.cli", "load_index", "index.load", None),
    ("ragmark.experiment", "load_index", "index.load", None),
    ("ragmark.retrieve", "search", "index.search", _count_hits),
    ("ragmark.retrieve", "pack_context", "retrieve.pack", _count_packs),
    ("ragmark.cli", "answer", "retrieve.answer_self", None),
    ("ragmark.experiment", "answer", "retrieve.answer_self", None),
    ("ragmark.generate", "ExtractiveMockClient.generate", "generate.generate", _count_prompts),
    ("ragmark.generate", "RemoteGenerationClient.generate", "generate.generate", _count_prompts),
    ("ragmark.cli", "score_row", "metrics.score", _count_rows),
    ("ragmark.experiment", "score_row", "metrics.score", _count_rows),
    ("ragmark.metrics", "cs_score", "metrics.cs", None),
    ("ragmark.metrics", "rouge", "metrics.rouge", None),
    ("ragmark.metrics", "meteor", "metrics.meteor", None),
    ("ragmark.metrics", "bleu", "metrics.bleu", None),
    ("ragmark.cli", "assemble_test_set", "testgen.assemble_self", _count_clusters),
    ("ragmark.testgen", "reduce_dim", "testgen.reduce", None),
    ("ragmark.testgen", "cluster_points", "testgen.cluster", None),
    ("ragmark.cli", "run_baseline", "experiment.sweep_self", None),
    ("ragmark.cli", "run_sweep", "experiment.sweep_self", None),
    ("ragmark.cli", "summarize", "experiment.report", None),
    ("ragmark.cli", "emit_report", "experiment.report", None),
    ("ragmark.cli", "write_score_rows_jsonl", "experiment.report", None),
    ("ragmark.cli", "write_score_rows_csv", "experiment.report", None),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in TARGETS))
COUNTS = ["corpus.sentences", "qagen.questions", "embed.texts", "index.searches", "index.hits",
          "retrieve.packs", "retrieve.truncated", "generate.calls", "metrics.rows",
          "testgen.clusters"]
# ratio metric -> (distinct counter, base count)
RATIOS = {
    "embed.distinct_ratio": ("embed.distinct", "embed.texts"),
    "retrieve.distinct_contexts_ratio": ("retrieve.distinct_contexts", "retrieve.packs"),
    "generate.distinct_prompts_ratio": ("generate.distinct_prompts", "generate.calls"),
}
TOTALS = ["trace.wall_s", "trace.untraced_s", "trace.sweep_wall_s", "trace.sweep_untraced_s"]


class Tracer:
    """Records one span per wrapped call; a benchmark command is the root span."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, root index]
        self.spans: list[list] = []
        self._child_time: list[float] = []
        self._local = threading.local()
        self._counts: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)  # distinct keys within the current command
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        root = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._child_time.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack().pop()
        if span[3] >= 0:
            self._child_time[span[3]] += span[2] - span[1]

    @contextmanager
    def command(self, name: str):
        """Root span around one CLI command; distinct counts restart with it."""
        self._seen.clear()
        idx = self._open(f"cli.{name}")
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n: int = 1) -> None:
        self._counts[name] += n

    def distinct(self, name: str, key) -> None:
        seen = self._seen[name]
        if key not in seen:
            seen.add(key)
            self._counts[name] += 1

    def _wrap(self, owner, attr: str, layer: str, hook) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for module_name, path, layer, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = vars(owner).get(part)
                if owner is None:
                    raise TraceTargetMissing(f"{module_name}.{path}: {part} no longer exists")
            if not callable(vars(owner).get(attr)):
                raise TraceTargetMissing(f"{module_name}.{path} no longer exists")
            self._wrap(owner, attr, layer, hook)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_time(self, idx: int) -> float:
        name, start, end, _, _ = self.spans[idx]
        return end - start - self._child_time[idx]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric: layer self times, counts, ratios and trace totals."""
        out = {f"{layer}_s": 0.0 for layer in LAYERS}
        for name in TOTALS:
            out[name] = 0.0
        for idx, (name, start, end, parent, root) in enumerate(self.spans):
            if parent < 0:
                out["trace.wall_s"] += end - start
                out["trace.untraced_s"] += self.self_time(idx)
                if name == "cli.sweep":
                    out["trace.sweep_wall_s"] += end - start
                    out["trace.sweep_untraced_s"] += self.self_time(idx)
            else:
                out[f"{name}_s"] += self.self_time(idx)
        for name in COUNTS:
            out[name] = self._counts[name]
        for name, (distinct, base) in RATIOS.items():
            total = self._counts[base]
            out[name] = self._counts[distinct] / total if total else 0.0
        return out

    def layer_table(self) -> list[str]:
        """Per layer: calls, self time, and self time inside sweep commands."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        in_sweep: dict[str, float] = defaultdict(float)
        for idx, (name, _, _, parent, root) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += self.self_time(idx)
            if self.spans[root][0] == "cli.sweep":
                in_sweep[name] += self.self_time(idx)
        sweep_wall = sum(e - s for n, s, e, p, _ in self.spans if p < 0 and n == "cli.sweep")
        lines = [f"{'span':<24} {'calls':>8} {'self_s':>10} {'sweep_self_s':>13} "
                 f"{'sweep_share':>11}"]
        for name in sorted(calls, key=lambda n: -self_s[n]):
            share = in_sweep[name] / sweep_wall if sweep_wall else 0.0
            lines.append(f"{name:<24} {calls[name]:>8} {self_s[name]:>10.4f} "
                         f"{in_sweep[name]:>13.4f} {share:>11.1%}")
        return lines

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, root in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": root}) + "\n")
