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

from .config import as_float, as_float_list, as_int
from .embed import Embedder, make_embedder
from .errors import ConfigError, RagmarkError, RunAbortedError
from .generate import GenerationClient, make_generation_client
from .index import IndexedDataset, IndexKind, load_index
from .metrics import METRIC_NAMES, ScoreRow, score_row
from .retrieve import DEFAULT_TEMPLATE, Budgets, generation_request, render_prompt, retrieve_at
# Not called here; bench/tracer.py wraps ``ragmark.experiment.answer`` by name.
from .retrieve import answer  # noqa: F401
from .testgen import TestSet

log = logging.getLogger(__name__)

BASELINE_ARM = "baseline"
SWEEP_ARMS = {IndexKind.SENTENCES: "rag_sentences", IndexKind.QUESTIONS: "rag_questions"}


@dataclass
class ExperimentConfig:
    testset_path: str
    index_sentences_path: str = ""
    index_questions_path: str = ""
    thresholds: list[float] = field(default_factory=lambda: [i / 10 for i in range(11)])
    embed_endpoint: str = "local:256"
    embed_batch_size: int = 64
    embed_timeout_ms: int = 10000
    gen_endpoint: str = "mock:extractive"
    gen_timeout_ms: int = 30000
    gen_retries: int = 1
    budgets: Budgets = field(default_factory=Budgets)
    template: str = DEFAULT_TEMPLATE
    seed: int = 0
    output_dir: str = "out"
    failure_budget: float = 0.2

    def __post_init__(self):
        if not self.thresholds:
            raise ConfigError("at least one threshold is required")
        for t in self.thresholds:
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"threshold {t} outside [0, 1]")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ConfigError("thresholds must be strictly increasing")

    @classmethod
    def from_config(cls, cfg: dict[str, str]) -> "ExperimentConfig":
        template = DEFAULT_TEMPLATE
        template_path = cfg["rag.template_path"]
        if template_path:
            template = Path(template_path).read_text(encoding="utf-8")
        return cls(
            testset_path=cfg["exp.testset"],
            index_sentences_path=cfg["exp.index_sentences"],
            index_questions_path=cfg["exp.index_questions"],
            thresholds=as_float_list(cfg, "exp.thresholds"),
            embed_endpoint=cfg["embed.endpoint"],
            embed_batch_size=as_int(cfg, "embed.batch_size"),
            embed_timeout_ms=as_int(cfg, "embed.timeout_ms"),
            gen_endpoint=cfg["gen.endpoint"],
            gen_timeout_ms=as_int(cfg, "gen.timeout_ms"),
            gen_retries=as_int(cfg, "gen.retries"),
            budgets=Budgets(
                model_max_input=as_int(cfg, "rag.model_max_input"),
                answer_reserve=as_int(cfg, "rag.answer_reserve"),
            ),
            template=template,
            seed=as_int(cfg, "exp.seed"),
            output_dir=cfg["exp.output_dir"],
            failure_budget=as_float(cfg, "exp.failure_budget"),
        )

    def build_embedder(self) -> Embedder:
        return make_embedder(
            self.embed_endpoint,
            batch_size=self.embed_batch_size,
            timeout_ms=self.embed_timeout_ms,
        )

    def build_gen_client(self) -> GenerationClient:
        return make_generation_client(
            self.gen_endpoint,
            timeout_ms=self.gen_timeout_ms,
            retries=self.gen_retries,
        )


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


def run_baseline(
    cfg: ExperimentConfig,
    *,
    testset: TestSet,
    gen_client: GenerationClient,
    embedder: Embedder,
) -> list[ScoreRow]:
    """Score every test question with a context-free prompt."""
    rows: list[ScoreRow] = []
    failures = 0
    ids = _question_ids(testset)
    for qid, pair in zip(ids, testset.pairs):
        prompt = render_prompt(pair.question, "", cfg.template)
        try:
            generated = gen_client.generate(generation_request(prompt, cfg.budgets))
            rows.append(score_row(qid, generated, pair.answer_text, embedder))
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
) -> dict[float, list[ScoreRow]]:
    """Score every test question at every configured threshold for one index kind.

    One pass per question: a single embed and search serve every threshold
    (``retrieve_at``), and each distinct prompt is generated and scored once,
    since generation at temperature 0 must repeat itself. A failed embed or
    search zeroes the question at every threshold; a failed generate or score
    zeroes one cell and is not remembered, so the next threshold with the same
    prompt tries again. Each zero row counts against its own threshold's
    failure budget. Without ``index``, the configured index of ``ds_kind`` is
    loaded.
    """
    if index is None:
        path = {
            IndexKind.SENTENCES: cfg.index_sentences_path,
            IndexKind.QUESTIONS: cfg.index_questions_path,
        }[ds_kind]
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
        by_prompt: dict[str, ScoreRow] = {}
        for cell in cells:
            row = by_prompt.get(cell.prompt)
            if row is None:
                try:
                    generated = gen_client.generate(generation_request(cell.prompt, cfg.budgets))
                    row = score_row(qid, generated, pair.answer_text, embedder)
                except RagmarkError as exc:
                    zero_row(qid, cell.threshold, exc)
                    continue
                by_prompt[cell.prompt] = row
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


def parse_report_csv(path: str | Path) -> list[ArmSummary]:
    """Inverse of the report.csv writer (headline numbers only)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "arm,rouge,meteor,bleu,cs,best_threshold":
        raise ValueError(f"{path}: unexpected report header")
    arms = []
    for line in lines[1:]:
        label, rouge, meteor, bleu, cs, best = line.split(",")
        arms.append(
            ArmSummary(
                label=label,
                means=Means(float(rouge), float(meteor), float(bleu), float(cs)),
                best_threshold=float(best) if best else None,
            )
        )
    return arms


def read_report_json(path: str | Path) -> ReportTable:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    arms = []
    for rec in payload["arms"]:
        arms.append(
            ArmSummary(
                label=rec["label"],
                means=Means(**{m: rec["means"][m] for m in METRIC_NAMES}),
                best_threshold=rec["best_threshold"],
                per_threshold={
                    float(t): Means(**{m: v[m] for m in METRIC_NAMES})
                    for t, v in rec["per_threshold"].items()
                },
            )
        )
    deltas = {}
    for key, entry in payload["deltas"].items():
        a, _, b = key.partition(" vs ")
        deltas[(a, b)] = {m: entry[m] for m in METRIC_NAMES}
    return ReportTable(arms=arms, deltas=deltas)


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
