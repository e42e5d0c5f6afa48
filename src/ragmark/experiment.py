"""Evaluation orchestration: baseline run, threshold sweeps, and reports.

A run scores every test question against its reference answer, once with no
retrieved context (the baseline arm) and once per similarity threshold per
index kind (the sweep arms). Arm averages, per-threshold breakdowns, best
thresholds, and pairwise relative deltas form one report record, the dict
that report.json holds; report.csv and the radar-plot files are built from
its arms.
"""

from __future__ import annotations

import json
import logging
import math
import string
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import as_float, as_float_list, as_int
from .corpus import count_tokens
from .embed import CachingEmbedder, Embedder
from .errors import ConfigError, RagmarkError, RunAbortedError
from .generate import GenerationClient
from .index import IndexedDataset, IndexKind, load_index
from .metrics import METRIC_NAMES, ScoreRow, score_row
from .qagen import QAPair
from .retrieve import (
    DEFAULT_TEMPLATE,
    Budgets,
    context_room,
    generation_request,
    render_prompt,
    retrieve_at,
)
# Not called here; bench/tracer.py wraps ``ragmark.experiment.answer`` by name.
from .retrieve import answer  # noqa: F401
from .testgen import TestSet

log = logging.getLogger(__name__)

BASELINE_ARM = "baseline"
SWEEP_ARMS = {IndexKind.SENTENCES: "rag_sentences", IndexKind.QUESTIONS: "rag_questions"}


def _read_template(path: str) -> str:
    """The prompt template at ``path``, checked to have exactly the two slots and to render."""
    template = Path(path).read_text(encoding="utf-8")
    try:
        slots = {name for _, name, _, _ in string.Formatter().parse(template) if name is not None}
    except ValueError as exc:
        raise ConfigError(f"prompt template {path}: {exc}") from exc
    if slots != {"context", "question"}:
        raise ConfigError(f"prompt template {path} must have exactly the slots {{context}} "
                          f"and {{question}}, found {sorted(slots)}")
    try:  # a conversion or format spec str rejects, or {context} after the context block
        render_prompt("", "", template)
        render_prompt("", "x", template)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"prompt template {path}: {exc!r}") from exc
    return template


def prompt_settings(cfg: dict[str, str]) -> tuple[Budgets, str]:
    """The token budgets and prompt template that the ``rag.*`` keys of ``cfg`` give."""
    template_path = cfg["rag.template_path"]
    template = _read_template(template_path) if template_path else DEFAULT_TEMPLATE
    budgets = Budgets(
        model_max_input=as_int(cfg, "rag.model_max_input"),
        answer_reserve=as_int(cfg, "rag.answer_reserve"),
    )
    # retrieve_at also subtracts each question; with no room even for an empty
    # one, every RAG arm would silently equal the baseline
    room = context_room("", budgets, template)
    if room < 1:
        raise ConfigError(
            f"no room for context: rag.model_max_input ({budgets.model_max_input}) minus "
            f"rag.answer_reserve ({budgets.answer_reserve}) leaves {room} tokens for "
            f"context after the prompt template"
        )
    return budgets, template


@dataclass
class ExperimentConfig:
    """What a baseline run or a sweep reads; the caller supplies the clients."""

    index_sentences_path: str = ""
    index_questions_path: str = ""
    thresholds: list[float] = field(default_factory=lambda: [i / 10 for i in range(11)])
    budgets: Budgets = field(default_factory=Budgets)
    template: str = DEFAULT_TEMPLATE
    failure_budget: float = 0.2

    def __post_init__(self):
        if not self.thresholds:
            raise ConfigError("at least one threshold is required")
        for t in self.thresholds:
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"threshold {t} outside [0, 1]")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ConfigError("thresholds must be strictly increasing")
        if not 0.0 <= self.failure_budget <= 1.0:  # NaN fails too
            raise ConfigError(f"exp.failure_budget {self.failure_budget} outside [0, 1]")

    @classmethod
    def from_config(cls, cfg: dict[str, str]) -> "ExperimentConfig":
        budgets, template = prompt_settings(cfg)
        return cls(
            index_sentences_path=cfg["exp.index_sentences"],
            index_questions_path=cfg["exp.index_questions"],
            thresholds=as_float_list(cfg, "exp.thresholds"),
            budgets=budgets,
            template=template,
            failure_budget=as_float(cfg, "exp.failure_budget"),
        )

    def index_path(self, kind: IndexKind) -> str:
        """The configured index of ``kind``; empty when there is none."""
        if kind is IndexKind.SENTENCES:
            return self.index_sentences_path
        return self.index_questions_path


def require_context_room(cfg: ExperimentConfig, testset: TestSet, source: str) -> None:
    """Reject a sweep over no test question, or in which none leaves a token for context.

    An arm with no rows has no mean, and every RAG row of a question with no
    room would silently equal its baseline row. ``source`` names the test set.
    """
    questions = [pair.question for pair in testset.pairs]
    if not questions:
        raise ConfigError(f"test set {source} has no question-answer pairs")
    if max(context_room(q, cfg.budgets, cfg.template) for q in questions) < 1:
        raise ConfigError(
            f"no room for context: rag.model_max_input ({cfg.budgets.model_max_input}) minus "
            f"rag.answer_reserve ({cfg.budgets.answer_reserve}) leaves no tokens after the "
            f"prompt of any test question; the shortest question has "
            f"{min(map(count_tokens, questions))} tokens"
        )


def _question_ids(testset: TestSet) -> list[str]:
    return [f"q{i:04d}" for i in range(len(testset.pairs))]


def _check_failures(failures: int, total: int, budget: float) -> None:
    if total and failures / total > budget:
        raise RunAbortedError(
            f"{failures}/{total} questions failed, over the {budget:.0%} budget"
        )


class SweepMemo:
    """What one sweep command has already generated and scored.

    ``_cmd_sweep`` shares one memo between the baseline and both sweep arms.
    Generation at temperature 0 must repeat itself, and the empty-context
    prompt is the baseline prompt, so each distinct prompt is generated once
    per command. Scores depend only on the generated text and the reference,
    so each distinct pair is scored once and each row carries the question id
    of the cell that asked for it. Scoring embeds each distinct sentence batch
    once (``CachingEmbedder``), so a reference is embedded once per command.
    A failed generate or score stores nothing, so the next cell with the same
    prompt tries again. A memo serves one generation client, one embedder and
    one set of budgets, as a command has.
    """

    def __init__(self):
        self.texts: dict[str, str] = {}
        self.scores: dict[tuple[str, str], ScoreRow] = {}
        self.batches: dict[tuple[str, ...], np.ndarray] = {}

    def row(self, qid: str, prompt: str, reference: str, gen_client: GenerationClient,
            embedder: Embedder, budgets: Budgets) -> ScoreRow:
        """``qid``'s score row for the answer to ``prompt``; raises what generate or score raise."""
        generated = self.texts.get(prompt)
        if generated is None:
            generated = gen_client.generate(generation_request(prompt, budgets))
            self.texts[prompt] = generated
        row = self.scores.get((generated, reference))
        if row is None:
            row = score_row(qid, generated, reference, CachingEmbedder(embedder, self.batches))
            self.scores[(generated, reference)] = row
        return replace(row, question_id=qid)


def _score_cells(cfg: ExperimentConfig, testset: TestSet, keys: list,
                 prompts: Callable[[QAPair], list[str]], memo: SweepMemo,
                 gen_client: GenerationClient, embedder: Embedder) -> dict:
    """Rows by key, where ``prompts(pair)`` gives a pair's prompt at each key, in order.

    The keys are [None] for the baseline and the thresholds for a sweep arm;
    zero rows follow ``run_sweep``'s rules, with key for threshold.
    """
    results: dict = {key: [] for key in keys}
    failures = dict.fromkeys(keys, 0)

    def zero_row(qid: str, key, exc: RagmarkError) -> None:
        cell = qid if key is None else f"{qid} @ {key:.1f}"
        log.warning("%s: %s; zero row", cell, exc)
        failures[key] += 1
        _check_failures(failures[key], len(testset.pairs), cfg.failure_budget)
        results[key].append(ScoreRow(qid, 0.0, 0.0, 0.0, 0.0))

    for qid, pair in zip(_question_ids(testset), testset.pairs):
        try:
            cells = prompts(pair)
        except RagmarkError as exc:
            for key in keys:
                zero_row(qid, key, exc)
            continue
        for key, prompt in zip(keys, cells):
            try:
                results[key].append(memo.row(qid, prompt, pair.answer_text, gen_client,
                                             embedder, cfg.budgets))
            except RagmarkError as exc:
                zero_row(qid, key, exc)
    return results


def run_baseline(
    cfg: ExperimentConfig,
    *,
    testset: TestSet,
    gen_client: GenerationClient,
    embedder: Embedder,
    memo: SweepMemo | None = None,
) -> list[ScoreRow]:
    """Score every test question with a context-free prompt.

    Without ``memo``, a fresh one is used; the rows are the same either way.
    """
    return _score_cells(
        cfg, testset, [None], lambda pair: [render_prompt(pair.question, "", cfg.template)],
        memo or SweepMemo(), gen_client, embedder,
    )[None]


def run_sweep(
    cfg: ExperimentConfig,
    ds_kind: IndexKind,
    *,
    testset: TestSet,
    index: IndexedDataset | None = None,
    gen_client: GenerationClient,
    embedder: Embedder,
    memo: SweepMemo | None = None,
) -> dict[float, list[ScoreRow]]:
    """Score every test question at every configured threshold for one index kind.

    One pass per question: a single embed and search serve every threshold
    (``retrieve_at``), and ``memo`` generates each distinct prompt and scores
    each distinct answer once; without ``memo``, a fresh one is used and the
    rows are the same. A failed embed or search zeroes the question at every
    threshold; a failed generate or score zeroes one cell and is not
    remembered, so the next cell with the same prompt tries again. Each zero
    row counts against its own threshold's failure budget. Without
    ``index``, the configured index of ``ds_kind`` is loaded.
    """
    if index is None:
        path = cfg.index_path(ds_kind)
        if not path:
            raise ConfigError(f"no index path configured for {ds_kind.value}")
        index = load_index(path)
    if index.kind is not ds_kind:
        raise ConfigError(
            f"index is {index.kind.value}-keyed but the sweep asked for {ds_kind.value}"
        )

    def prompts(pair: QAPair) -> list[str]:
        return [cell.prompt for cell in retrieve_at(pair.question, index, cfg.thresholds,
                                                    embedder, cfg.budgets, template=cfg.template)]

    return _score_cells(cfg, testset, cfg.thresholds, prompts, memo or SweepMemo(), gen_client,
                        embedder)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def _means(rows: list[ScoreRow]) -> dict[str, float]:
    if not rows:
        raise ValueError("cannot average an empty arm")
    return {m: math.fsum(getattr(r, m) for r in rows) / len(rows) for m in METRIC_NAMES}


def summarize(
    arms: dict[str, list[ScoreRow]],
    sweeps: dict[str, dict[float, list[ScoreRow]]] | None = None,
) -> dict:
    """The report: arm averages plus pairwise relative deltas, as report.json holds it.

    ``{"arms": [{"label", "means", "best_threshold", "per_threshold"}], "deltas":
    {"a vs b": {metric: delta}}}``; ``means`` maps each metric to its mean,
    and ``per_threshold`` maps ``str(threshold)`` to the means there. A sweep
    arm's headline numbers are taken at its best threshold, chosen by highest
    mean cs with ties going to the lower threshold; a plain arm has
    ``best_threshold`` None and no ``per_threshold``. The delta of arm a over
    arm b is (a - b) / b per metric, None where b is 0; both orientations are
    emitted so either denominator convention can be read off directly.
    """
    report_arms = [{"label": label, "means": _means(rows), "best_threshold": None,
                    "per_threshold": {}} for label, rows in arms.items()]
    for label, by_threshold in (sweeps or {}).items():
        if not by_threshold:
            raise ValueError(f"sweep arm {label!r} has no thresholds")
        per = {t: _means(rows) for t, rows in sorted(by_threshold.items())}
        best = max(per, key=lambda t: per[t]["cs"])  # the first of equal maxima
        report_arms.append({"label": label, "means": per[best], "best_threshold": best,
                            "per_threshold": {str(t): means for t, means in per.items()}})

    deltas: dict[str, dict[str, float | None]] = {}
    for a in report_arms:
        for b in report_arms:
            if a["label"] != b["label"]:
                deltas[f"{a['label']} vs {b['label']}"] = {
                    m: (a["means"][m] - base) / base if (base := b["means"][m]) else None
                    for m in METRIC_NAMES
                }
    return {"arms": report_arms, "deltas": deltas}


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit_report(report: dict, output_dir: str | Path, *, svg: bool = False) -> list[Path]:
    """Write ``report`` to report.json, its arms to report.csv and radar.json, and
    optionally radar.svg."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    arms = report["arms"]
    lines = ["arm,rouge,meteor,bleu,cs,best_threshold"]
    for arm in arms:
        best = "" if arm["best_threshold"] is None else repr(arm["best_threshold"])
        lines.append(",".join([arm["label"], *(repr(arm["means"][m]) for m in METRIC_NAMES), best]))
    radar = {
        "axes": list(METRIC_NAMES),
        "series": [{"label": arm["label"], "values": [arm["means"][m] for m in METRIC_NAMES]}
                   for arm in arms],
    }
    files = {
        "report.csv": "\n".join(lines) + "\n",
        "report.json": json.dumps(report, sort_keys=True, indent=2) + "\n",
        "radar.json": json.dumps(radar, sort_keys=True, indent=2) + "\n",
    }
    if svg:
        files["radar.svg"] = _radar_svg(arms)
    written = []
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
        written.append(out / name)
    return written


def _radar_svg(arms: list[dict], size: int = 420) -> str:
    """Self-contained radar render: one axis per metric, one polygon per arm."""
    from html import escape  # here, so that only --svg loads html's entity table

    cx = cy = size / 2
    radius = size * 0.38
    angles = [math.pi / 2 - 2 * math.pi * i / len(METRIC_NAMES) for i in range(len(METRIC_NAMES))]
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]

    def point(angle: float, fraction: float) -> tuple[float, float]:
        return cx + radius * fraction * math.cos(angle), cy - radius * fraction * math.sin(angle)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for fraction in (0.25, 0.5, 0.75, 1.0):
        ring = " ".join(f"{x:.2f},{y:.2f}" for x, y in (point(a, fraction) for a in angles))
        parts.append(f'<polygon points="{ring}" fill="none" stroke="#cccccc"/>')
    for angle, name in zip(angles, METRIC_NAMES):
        x, y = point(angle, 1.0)
        lx, ly = point(angle, 1.12)
        parts.append(f'<line x1="{cx}" y1="{cy}" x2="{x:.2f}" y2="{y:.2f}" stroke="#999999"/>')
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="12" text-anchor="middle">'
            f"{escape(name, quote=False)}</text>"
        )
    top = max((arm["means"][m] for arm in arms for m in METRIC_NAMES), default=1.0)
    scale = top if top > 0 else 1.0
    for i, arm in enumerate(arms):
        color = palette[i % len(palette)]
        poly = " ".join(
            f"{x:.2f},{y:.2f}"
            for x, y in (
                point(angle, arm["means"][m] / scale)
                for angle, m in zip(angles, METRIC_NAMES)
            )
        )
        parts.append(
            f'<polygon points="{poly}" fill="{color}" fill-opacity="0.15" stroke="{color}"/>'
        )
        parts.append(
            f'<text x="12" y="{20 + 16 * i}" font-size="12" fill="{color}">'
            f"{escape(arm['label'], quote=False)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
