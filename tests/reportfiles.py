"""Reader of the report.csv that ``emit_report`` writes, for round-trip checks."""

from pathlib import Path

from ragmark.metrics import METRIC_NAMES


def parse_report_csv(path: str | Path) -> list[dict]:
    """Inverse of the report.csv writer: each arm's label, means and best threshold."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "arm,rouge,meteor,bleu,cs,best_threshold":
        raise ValueError(f"{path}: unexpected report header")
    arms = []
    for line in lines[1:]:
        label, *means, best = line.split(",")
        arms.append({
            "label": label,
            "means": dict(zip(METRIC_NAMES, map(float, means), strict=True)),
            "best_threshold": float(best) if best else None,
        })
    return arms
