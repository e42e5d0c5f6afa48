"""Readers of the report files ``emit_report`` writes, for round-trip checks."""

import json
from pathlib import Path

from ragmark.experiment import ArmSummary, Means, ReportTable
from ragmark.metrics import METRIC_NAMES


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
