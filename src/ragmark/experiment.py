"""Evaluation orchestration: baseline run, threshold sweeps, and reports.

A run scores every test question against its reference answer, once with no
retrieved context (the baseline arm) and once per similarity threshold per
index kind (the sweep arms). Arm averages, per-threshold breakdowns, best
thresholds, and pairwise relative deltas land in CSV/JSON reports plus a
radar-plot data file.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .config import as_float, as_float_list, as_int
from .embed import CachingEmbedder, Embedder
from .errors import ConfigError, RagmarkError, RunAbortedError
from .generate import GenerationClient
from .index import IndexedDataset, IndexKind, load_index
from .metrics import METRIC_NAMES, ScoreRow, score_row
from .retrieve import DEFAULT_TEMPLATE, Budgets, generation_request, render_prompt, retrieve_at
# Not called here; bench/tracer.py wraps ``ragmark.experiment.answer`` by name.
from .retrieve import answer  # noqa: F401
from .testgen import TestSet

log = logging.getLogger(__name__)

BASELINE_ARM = "baseline"
SWEEP_ARMS = {IndexKind.SENTENCES: "rag_sentences", IndexKind.QUESTIONS: "rag_questions"}


def prompt_settings(cfg: dict[str, str]) -> tuple[Budgets, str]:
    """The token budgets and prompt template that the ``rag.*`` keys of ``cfg`` give."""
    template = DEFAULT_TEMPLATE
    template_path = cfg["rag.template_path"]
    if template_path:
        template = Path(template_path).read_text(encoding="utf-8")
    budgets = Budgets(
        model_max_input=as_int(cfg, "rag.model_max_input"),
        answer_reserve=as_int(cfg, "rag.answer_reserve"),
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


@dataclass(frozen=True)
class Means:
    rouge: float
    meteor: float
    bleu: float
    cs: float


@dataclass
class ArmSummary:
    label: str
    means: Means
    best_threshold: float | None = None
    per_threshold: dict[float, Means] = field(default_factory=dict)


@dataclass
class ReportTable:
    arms: list[ArmSummary]
    deltas: dict[tuple[str, str], dict[str, float | None]]


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
        self.scores: dict[tuple[str, str], tuple[float, float, float, float]] = {}
        self.batches: dict[tuple[str, ...], np.ndarray] = {}

    def row(self, qid: str, prompt: str, reference: str, gen_client: GenerationClient,
            embedder: Embedder, budgets: Budgets) -> ScoreRow:
        """``qid``'s score row for the answer to ``prompt``; raises what generate or score raise."""
        generated = self.texts.get(prompt)
        if generated is None:
            generated = gen_client.generate(generation_request(prompt, budgets))
            self.texts[prompt] = generated
        scores = self.scores.get((generated, reference))
        if scores is not None:
            return ScoreRow(qid, *scores)
        row = score_row(qid, generated, reference, CachingEmbedder(embedder, self.batches))
        self.scores[(generated, reference)] = (row.rouge, row.meteor, row.bleu, row.cs)
        return row


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
    if memo is None:
        memo = SweepMemo()
    rows: list[ScoreRow] = []
    failures = 0
    ids = _question_ids(testset)
    for qid, pair in zip(ids, testset.pairs):
        prompt = render_prompt(pair.question, "", cfg.template)
        try:
            rows.append(memo.row(qid, prompt, pair.answer_text, gen_client, embedder,
                                 cfg.budgets))
        except RagmarkError as exc:
            log.warning("%s: %s; zero row", qid, exc)
            failures += 1
            _check_failures(failures, len(testset.pairs), cfg.failure_budget)
            rows.append(ScoreRow(qid, 0.0, 0.0, 0.0, 0.0))
    return rows


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
    if memo is None:
        memo = SweepMemo()
    if index is None:
        path = cfg.index_path(ds_kind)
        if not path:
            raise ConfigError(f"no index path configured for {ds_kind.value}")
        index = load_index(path)
    if index.kind is not ds_kind:
        raise ConfigError(
            f"index is {index.kind.value}-keyed but the sweep asked for {ds_kind.value}"
        )
    results: dict[float, list[ScoreRow]] = {t: [] for t in cfg.thresholds}
    failures = dict.fromkeys(cfg.thresholds, 0)

    def zero_row(qid: str, threshold: float, exc: RagmarkError) -> None:
        log.warning("%s @ %.1f: %s; zero row", qid, threshold, exc)
        failures[threshold] += 1
        _check_failures(failures[threshold], len(testset.pairs), cfg.failure_budget)
        results[threshold].append(ScoreRow(qid, 0.0, 0.0, 0.0, 0.0))

    for qid, pair in zip(_question_ids(testset), testset.pairs):
        try:
            cells = retrieve_at(pair.question, index, cfg.thresholds, embedder, cfg.budgets,
                                template=cfg.template)
        except RagmarkError as exc:
            for threshold in cfg.thresholds:
                zero_row(qid, threshold, exc)
            continue
        for cell in cells:
            try:
                row = memo.row(qid, cell.prompt, pair.answer_text, gen_client, embedder,
                               cfg.budgets)
            except RagmarkError as exc:
                zero_row(qid, cell.threshold, exc)
                continue
            results[cell.threshold].append(row)
    return results


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def _means(rows: list[ScoreRow]) -> Means:
    if not rows:
        raise ValueError("cannot average an empty arm")
    ordered = sorted(rows, key=lambda r: r.question_id)
    n = len(ordered)
    return Means(
        rouge=math.fsum(r.rouge for r in ordered) / n,
        meteor=math.fsum(r.meteor for r in ordered) / n,
        bleu=math.fsum(r.bleu for r in ordered) / n,
        cs=math.fsum(r.cs for r in ordered) / n,
    )


def summarize(
    arms: dict[str, list[ScoreRow]],
    sweeps: dict[str, dict[float, list[ScoreRow]]] | None = None,
) -> ReportTable:
    """Arm averages plus pairwise relative deltas.

    A sweep arm's headline numbers are taken at its best threshold, chosen
    by highest mean cs with ties going to the lower threshold. The delta of
    arm a over arm b is (a - b) / b per metric; both orientations are
    emitted so either denominator convention can be read off directly.
    """
    summaries: list[ArmSummary] = []
    for label, rows in arms.items():
        summaries.append(ArmSummary(label=label, means=_means(rows)))
    for label, by_threshold in (sweeps or {}).items():
        if not by_threshold:
            raise ValueError(f"sweep arm {label!r} has no thresholds")
        per = {t: _means(rows) for t, rows in sorted(by_threshold.items())}
        best_threshold, best_cs = None, -math.inf
        for t, m in per.items():
            if m.cs > best_cs:
                best_threshold, best_cs = t, m.cs
        summaries.append(
            ArmSummary(
                label=label,
                means=per[best_threshold],
                best_threshold=best_threshold,
                per_threshold=per,
            )
        )

    deltas: dict[tuple[str, str], dict[str, float | None]] = {}
    for a in summaries:
        for b in summaries:
            if a.label == b.label:
                continue
            entry: dict[str, float | None] = {}
            for metric in METRIC_NAMES:
                base = getattr(b.means, metric)
                entry[metric] = (getattr(a.means, metric) - base) / base if base else None
            deltas[(a.label, b.label)] = entry
    return ReportTable(arms=summaries, deltas=deltas)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _table_payload(table: ReportTable) -> dict:
    return {
        "arms": [
            {
                "label": arm.label,
                "means": {m: getattr(arm.means, m) for m in METRIC_NAMES},
                "best_threshold": arm.best_threshold,
                "per_threshold": {
                    str(t): {m: getattr(means, m) for m in METRIC_NAMES}
                    for t, means in arm.per_threshold.items()
                },
            }
            for arm in table.arms
        ],
        "deltas": {
            f"{a} vs {b}": entry for (a, b), entry in sorted(table.deltas.items())
        },
    }


def emit_report(table: ReportTable, output_dir: str | Path, *, svg: bool = False) -> list[Path]:
    """Write report.csv, report.json, radar.json, and optionally radar.svg."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    csv_path = out / "report.csv"
    lines = ["arm,rouge,meteor,bleu,cs,best_threshold"]
    for arm in table.arms:
        best = "" if arm.best_threshold is None else repr(arm.best_threshold)
        lines.append(
            f"{arm.label},{arm.means.rouge!r},{arm.means.meteor!r},"
            f"{arm.means.bleu!r},{arm.means.cs!r},{best}"
        )
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(csv_path)

    json_path = out / "report.json"
    json_path.write_text(
        json.dumps(_table_payload(table), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    written.append(json_path)

    radar_path = out / "radar.json"
    radar = {
        "axes": list(METRIC_NAMES),
        "series": [
            {"label": arm.label, "values": [getattr(arm.means, m) for m in METRIC_NAMES]}
            for arm in table.arms
        ],
    }
    radar_path.write_text(json.dumps(radar, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    written.append(radar_path)

    if svg:
        svg_path = out / "radar.svg"
        svg_path.write_text(_radar_svg(table), encoding="utf-8")
        written.append(svg_path)
    return written


def _radar_svg(table: ReportTable, size: int = 420) -> str:
    """Self-contained radar render: one axis per metric, one polygon per arm."""
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
            f"{escape(name)}</text>"
        )
    top = max(
        (getattr(arm.means, m) for arm in table.arms for m in METRIC_NAMES), default=1.0
    )
    scale = top if top > 0 else 1.0
    for i, arm in enumerate(table.arms):
        color = palette[i % len(palette)]
        poly = " ".join(
            f"{x:.2f},{y:.2f}"
            for x, y in (
                point(angle, getattr(arm.means, m) / scale)
                for angle, m in zip(angles, METRIC_NAMES)
            )
        )
        parts.append(
            f'<polygon points="{poly}" fill="{color}" fill-opacity="0.15" stroke="{color}"/>'
        )
        parts.append(
            f'<text x="12" y="{20 + 16 * i}" font-size="12" fill="{color}">'
            f"{escape(arm.label)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
