"""Output checks that do not trust the program's own arithmetic.

Each check recomputes what it compares against from the files the program
wrote (or from the generator), using only the standard library and numpy,
and raises ``CheckFailed`` on the first disagreement.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

METRICS = ("rouge", "meteor", "bleu", "cs")
REPORT_FILES = ("report.csv", "report.json", "radar.json")
ARM_INDEX = {"rag_sentences": "sentences", "rag_questions": "questions"}

# A key whose exact cosine lies this close to the threshold, or to the top
# score, may fall on either side in the program: the index stores float32
# vectors, which moves a cosine by up to about 1e-7, more than the program's
# own SCORE_EPS of 1e-9. Cosines of small integer count vectors that are not
# equal differ by far more than this.
TIE_TOL = 1e-6

_WORD_RE = re.compile(r"\w+")
_ASK_RE = re.compile(r"^threshold: (\S+) \((\w+) index, (\d+) hits, (\d+) packed(, truncated)?\)$",
                     re.M)


class CheckFailed(AssertionError):
    pass


def _fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Counts implied by the generator
# ---------------------------------------------------------------------------

def check_counts(build_dir: Path, sentences: int, paragraphs: int, questions: int) -> None:
    """Artefact record counts equal the counts the generator implies."""
    found = {
        "paragraphs.jsonl": len(_lines(build_dir / "paragraphs.jsonl")),
        "sentences.jsonl": len(_lines(build_dir / "sentences.jsonl")),
        "qa.jsonl": len(_lines(build_dir / "qa.jsonl")),
        "train+val": len(_lines(build_dir / "train.jsonl")) + len(_lines(build_dir / "val.jsonl")),
    }
    want = {"paragraphs.jsonl": paragraphs, "sentences.jsonl": sentences,
            "qa.jsonl": questions, "train+val": questions}
    for kind, count in (("sentences", sentences), ("questions", questions)):
        lines = _lines(build_dir / f"index_{kind}.jsonl")
        found[f"index_{kind} header"] = json.loads(lines[0])["count"]
        found[f"index_{kind} entries"] = len(lines) - 2  # header and checksum trailer
        want[f"index_{kind} header"] = want[f"index_{kind} entries"] = count
    _fail_unless(found == want, f"{build_dir}: counts {found} != generator's {want}")


def check_test_set(path: Path, clusters: int, per_cluster: int) -> list[str]:
    """A testgen set holds ``clusters`` clusters of ``per_cluster`` questions each.

    Returns its questions in file order.
    """
    lines = _lines(path)
    params = json.loads(lines[0])["params"]
    pairs = [json.loads(line) for line in lines[1:]]
    sizes = Counter(p["cluster_id"] for p in pairs)
    _fail_unless(params["clusters"] == clusters and len(sizes) == clusters,
                 f"{path}: {params['clusters']} clusters, want one per topic ({clusters})")
    _fail_unless(set(sizes.values()) == {per_cluster},
                 f"{path}: cluster sizes {dict(sizes)}, want {per_cluster} questions each")
    return [p["question"] for p in pairs]


# ---------------------------------------------------------------------------
# Score rows and reports
# ---------------------------------------------------------------------------

def read_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in _lines(path)]


def load_scores(out_dir: Path, n_questions: int) -> dict[str, dict[str, list[dict]]]:
    """arm -> threshold string -> rows, each file holding every question once, in order."""
    manifest = json.loads((out_dir / "scores_manifest.json").read_text(encoding="utf-8"))
    files = {"baseline": {"": manifest["baseline"]}}
    for label in manifest["arm_order"]:
        files[label] = manifest["sweeps"][label]
    want_ids = [f"q{i:04d}" for i in range(n_questions)]
    scores = {}
    for arm, by_threshold in files.items():
        scores[arm] = {}
        for t, name in by_threshold.items():
            rows = read_rows(out_dir / name)
            _fail_unless([r["question_id"] for r in rows] == want_ids,
                         f"{out_dir / name}: {len(rows)} rows, want q0000..q{n_questions - 1:04d}")
            scores[arm][t] = rows
    return scores


def _means(rows: list[dict]) -> dict[str, float]:
    return {m: math.fsum(r[m] for r in rows) / len(rows) for m in METRICS}


def expected_report(scores: dict[str, dict[str, list[dict]]]) -> list[dict]:
    """Per arm: headline means, best threshold (highest mean cs, lower wins ties), per threshold."""
    arms = []
    for label, by_threshold in scores.items():
        if label == "baseline":
            arms.append({"label": label, "means": _means(by_threshold[""]),
                         "best_threshold": None, "per_threshold": {}})
            continue
        ordered = sorted(by_threshold.items(), key=lambda kv: float(kv[0]))
        per = {t: _means(rows) for t, rows in ordered}
        best = None
        for t, means in per.items():
            if best is None or means["cs"] > per[best]["cs"]:
                best = t
        arms.append({"label": label, "means": per[best], "best_threshold": float(best),
                     "per_threshold": per})
    return arms


def expected_deltas(arms: list[dict]) -> dict[str, dict[str, float | None]]:
    deltas = {}
    for a in arms:
        for b in arms:
            if a["label"] != b["label"]:
                deltas[f"{a['label']} vs {b['label']}"] = {
                    m: (a["means"][m] - b["means"][m]) / b["means"][m] if b["means"][m] else None
                    for m in METRICS
                }
    return deltas


def check_reports(out_dir: Path, n_questions: int) -> int:
    """report.csv, report.json and radar.json agree exactly with an fsum recomputation.

    Returns the number of score rows the sweep wrote.
    """
    scores = load_scores(out_dir, n_questions)
    arms = expected_report(scores)
    deltas = expected_deltas(arms)

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    _fail_unless([a["label"] for a in report["arms"]] == [a["label"] for a in arms],
                 f"{out_dir}/report.json: arm order {[a['label'] for a in report['arms']]}")
    for got, want in zip(report["arms"], arms):
        _fail_unless(got["means"] == want["means"],
                     f"{out_dir}/report.json {want['label']} means {got['means']} "
                     f"!= {want['means']}")
        _fail_unless(got["best_threshold"] == want["best_threshold"],
                     f"{out_dir}/report.json {want['label']} best threshold "
                     f"{got['best_threshold']} != {want['best_threshold']}")
        _fail_unless(got["per_threshold"] == want["per_threshold"],
                     f"{out_dir}/report.json {want['label']} per-threshold means differ")
    _fail_unless(report["deltas"] == deltas, f"{out_dir}/report.json deltas differ")

    csv_lines = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    _fail_unless(csv_lines[0] == "arm,rouge,meteor,bleu,cs,best_threshold" and
                 len(csv_lines) == len(arms) + 1, f"{out_dir}/report.csv: bad shape")
    for line, want in zip(csv_lines[1:], arms):
        label, *values, best = line.split(",")
        got = dict(zip(METRICS, map(float, values)))
        _fail_unless(label == want["label"] and got == want["means"],
                     f"{out_dir}/report.csv {label}: {got} != {want['means']}")
        _fail_unless((float(best) if best else None) == want["best_threshold"],
                     f"{out_dir}/report.csv {label}: best threshold {best!r}")

    radar = json.loads((out_dir / "radar.json").read_text(encoding="utf-8"))
    want_series = [{"label": a["label"], "values": [a["means"][m] for m in METRICS]} for a in arms]
    _fail_unless(radar == {"axes": list(METRICS), "series": want_series},
                 f"{out_dir}/radar.json differs from the recomputed means")
    return sum(len(rows) for by_t in scores.values() for rows in by_t.values())


def check_identical(dir_a: Path, dir_b: Path, names=REPORT_FILES) -> None:
    for name in names:
        _fail_unless((dir_a / name).read_bytes() == (dir_b / name).read_bytes(),
                     f"{dir_b / name} differs from {dir_a / name}")


def check_beats_baseline(out_dir: Path, n_questions: int, arm: str = "rag_sentences",
                         threshold: str = "0.5") -> None:
    """Every question's cs at ``threshold`` on ``arm`` is above its no-context baseline."""
    scores = load_scores(out_dir, n_questions)
    for base, row in zip(scores["baseline"][""], scores[arm][threshold]):
        _fail_unless(row["cs"] > base["cs"],
                     f"{out_dir}: {row['question_id']} cs {row['cs']} at {arm} {threshold} "
                     f"does not beat baseline {base['cs']}")


def check_full_threshold(out_dir: Path, questions: list[str], scans: dict[str, "KeyScan"]) -> None:
    """At 1.0 a question with no parallel key scores exactly its baseline row.

    A key is parallel when its hashed bag of words points the same way as the
    question's: the same bag of words, or one that differs only in words
    that share a hash bucket. ``scans`` maps "sentences"/"questions" to the
    index scans. At least one (arm, question) cell must be covered.
    """
    scores = load_scores(out_dir, len(questions))
    covered = 0
    for arm, kind in ARM_INDEX.items():
        for q, base, row in zip(questions, scores["baseline"][""], scores[arm]["1.0"]):
            if scans[kind].cosines(q).max() >= 1.0 - TIE_TOL:
                continue
            covered += 1
            _fail_unless({m: row[m] for m in METRICS} == {m: base[m] for m in METRICS},
                         f"{out_dir}: {row['question_id']} at {arm} 1.0 has no parallel key "
                         f"but scored {row}, baseline {base}")
    _fail_unless(covered > 0, f"{out_dir}: no question without a parallel key to check at 1.0")


# ---------------------------------------------------------------------------
# ragmark ask against a numpy recomputation of the hashed bag-of-words scan
# ---------------------------------------------------------------------------

def read_index(path: Path) -> tuple[dict, list[dict]]:
    lines = path.read_bytes().split(b"\n")[:-1]
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:-1]]


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class KeyScan:
    """Bag-of-words key vectors (FNV-1a 64 word buckets) of one index file.

    Kept sparse, as (key, bucket, count) triples, so that the check adds
    little to the memory the benchmark reports.
    """

    def __init__(self, path: Path):
        header, entries = read_index(path)
        self.dim = int(header["dim"])
        self.kind = header["kind"]
        self.payloads = [e["payload_text"] for e in entries]
        self._buckets: dict[str, int] = {}
        rows, cols, counts = [], [], []
        for i, e in enumerate(entries):
            for bucket, count in self.counts(e["key_text"]).items():
                rows.append(i)
                cols.append(bucket)
                counts.append(count)
        self._rows = np.array(rows)
        self._cols = np.array(cols)
        self._counts = np.array(counts, dtype=np.float64)
        self._norms = np.sqrt(np.bincount(self._rows, weights=self._counts ** 2))

    def counts(self, text: str) -> Counter:
        out: Counter = Counter()
        for word in _WORD_RE.findall(text.lower()):
            bucket = self._buckets.get(word)
            if bucket is None:
                bucket = self._buckets[word] = _fnv1a64(word.encode("utf-8")) % self.dim
            out[bucket] += 1
        return out

    def cosines(self, text: str) -> np.ndarray:
        """Cosine of ``text`` against every key, in index order."""
        q = np.zeros(self.dim)
        for bucket, count in self.counts(text).items():
            q[bucket] = count
        q /= np.linalg.norm(q)
        dots = np.bincount(self._rows, weights=self._counts * q[self._cols],
                           minlength=len(self.payloads))
        return dots / self._norms


def parse_ask(output: str) -> tuple[str, int, str | None]:
    """(index kind, hit count, first packed payload or None) from ``ragmark ask`` output."""
    m = _ASK_RE.search(output)
    _fail_unless(m is not None, f"unparseable ask output: {output[:200]!r}")
    lines = output.splitlines()
    start = lines.index("context  :") + 1
    end = max(i for i, line in enumerate(lines) if line.startswith("answer   : "))
    context = lines[start:end]
    first = None if context == ["  (empty)"] else context[0]
    return m.group(2), int(m.group(3)), first


def check_ask(output: str, question: str, threshold: float, scan: KeyScan) -> None:
    """Hit count and first packed payload agree with the recomputed scan."""
    kind, hits, first = parse_ask(output)
    _fail_unless(kind == scan.kind, f"ask answered from a {kind} index, want {scan.kind}")
    cos = scan.cosines(question)
    lo = int((cos >= threshold + TIE_TOL).sum())
    hi = int((cos >= threshold - TIE_TOL).sum())
    _fail_unless(lo <= hits <= hi, f"ask {question!r}: {hits} hits, recomputed {lo}..{hi}")
    if hits == 0:
        _fail_unless(first is None, f"ask {question!r}: context without hits")
        return
    top = {scan.payloads[i] for i in np.flatnonzero(cos >= cos.max() - TIE_TOL)}
    _fail_unless(first in top, f"ask {question!r}: first payload {first!r} is not a top key's")
