"""Vector indexes over sentences or generated questions, with exact cosine scan.

Corpora here are small enough (tens of thousands of entries) that a full
scan is both fast and exactly reproducible, so no approximate structure is
used. Persistence is line-oriented JSON with a CRC32 trailer: metadata stays
human-auditable while vectors travel as packed little-endian float32.
"""

from __future__ import annotations

import base64
import bisect
import json
import logging
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Sentence
from .embed import Embedder
from .errors import (
    ChecksumError,
    DimMismatchError,
    EmptyIndexError,
    PersistenceError,
    ZeroVectorError,
)
from .qagen import QADataset

log = logging.getLogger(__name__)

FORMAT_VERSION = 1

# Slack for float rounding in threshold comparisons: a key identical to the
# query must pass threshold 1.0 even when its cosine lands at 1 - 1e-16.
SCORE_EPS = 1e-9


class IndexKind(str, Enum):
    SENTENCES = "sentences"  # key = sentence, payload = the sentence itself
    QUESTIONS = "questions"  # key = generated question, payload = parent paragraph


@dataclass
class IndexEntry:
    key_text: str
    payload_text: str
    paragraph_ref: tuple[str, int]


@dataclass(eq=False)
class IndexedDataset:
    """Entries plus their key vectors: row i of ``keys`` is entry i's key.

    The builders and ``load_index`` keep ``keys`` as float32, the on-disk
    precision, so save/load is an identity. ``unit_keys`` holds the rows
    scaled to unit length in float64, the matrix that ``search`` scans.
    """

    kind: IndexKind
    entries: list[IndexEntry]
    embedder_name: str
    keys: np.ndarray
    unit_keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.keys.ndim != 2 or len(self.keys) != len(self.entries):
            raise DimMismatchError(f"{len(self.entries)} entries, key array {self.keys.shape}")
        self.unit_keys = self.keys.astype(np.float64)
        self.unit_keys /= np.linalg.norm(self.unit_keys, axis=1, keepdims=True)

    @property
    def dim(self) -> int:
        return self.keys.shape[1]


@dataclass(frozen=True)
class RetrievalHit:
    score: float
    entry_ref: int  # index into IndexedDataset.entries


def _build(
    kind: IndexKind,
    key_texts: list[str],
    payload_texts: list[str],
    refs: list[tuple[str, int]],
    embedder: Embedder,
) -> IndexedDataset:
    if not key_texts:
        raise EmptyIndexError("nothing to index")
    vectors = embedder.embed_batch(key_texts)
    norms = np.linalg.norm(vectors, axis=1)
    entries, kept = [], []
    for i, (key_text, payload_text, ref) in enumerate(zip(key_texts, payload_texts, refs)):
        if norms[i] == 0.0:
            log.warning("skipping zero-vector entry %r", key_text[:60])
            continue
        entries.append(IndexEntry(key_text=key_text, payload_text=payload_text, paragraph_ref=ref))
        kept.append(i)
    if not entries:
        raise EmptyIndexError("every candidate entry embedded to a zero vector")
    return IndexedDataset(
        kind=kind,
        entries=entries,
        embedder_name=embedder.name,
        keys=vectors.astype(np.float32)[kept],
    )


def build_sentence_index(sentences: Sequence[Sentence], embedder: Embedder) -> IndexedDataset:
    """Index already-filtered sentences; each sentence is its own payload."""
    sentences = list(sentences)
    return _build(
        IndexKind.SENTENCES,
        [s.text for s in sentences],
        [s.text for s in sentences],
        [(s.doc_id, s.paragraph_ordinal) for s in sentences],
        embedder,
    )


def build_question_index(qa: QADataset, embedder: Embedder) -> IndexedDataset:
    """Index generated questions; the payload is the parent paragraph text."""
    return _build(
        IndexKind.QUESTIONS,
        [p.question for p in qa.pairs],
        [p.answer_text for p in qa.pairs],
        [p.paragraph_ref for p in qa.pairs],
        embedder,
    )


def below_threshold(score: float, threshold: float) -> bool:
    """The cut rule: whether a hit scoring ``score`` is left out at ``threshold``.

    Threshold 0.0 is the accept-everything case, negative scores included;
    otherwise a score passes when it reaches the threshold within SCORE_EPS.
    """
    return threshold > 0.0 and score < threshold - SCORE_EPS


def hits_at(hits: list[RetrievalHit], threshold: float) -> list[RetrievalHit]:
    """The hits of a search at ``threshold``, taken from a search at a lower one.

    ``search`` ranks exactly and sorts stably, so raising the threshold only
    shortens its result from the end.
    """
    cut = bisect.bisect_left(hits, True, key=lambda h: below_threshold(h.score, threshold))
    return hits[:cut]


def search(ds: IndexedDataset, query: np.ndarray, threshold: float) -> list[RetrievalHit]:
    """Exact scan: every entry not ``below_threshold``, best first.

    Ties keep insertion order. Threshold 0.0 returns all entries; threshold
    1.0 keeps only perfect directional matches (within float slack).
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (ds.dim,):
        raise DimMismatchError(f"query shape {q.shape} != index dim ({ds.dim},)")
    nq = np.linalg.norm(q)
    if nq == 0.0:
        raise ZeroVectorError("query embedded to a zero vector")
    scores = ds.unit_keys @ (q / nq)
    order = np.argsort(-scores, kind="stable")
    hits = []
    for i in order:
        s = float(scores[i])
        if below_threshold(s, threshold):
            break  # scores only fall from here
        hits.append(RetrievalHit(score=s, entry_ref=int(i)))
    return hits


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_index(ds: IndexedDataset, path: str | Path) -> None:
    """Header record, one record per entry, CRC32 trailer."""
    lines = []
    header = {
        "format_version": FORMAT_VERSION,
        "kind": ds.kind.value,
        "embedder_name": ds.embedder_name,
        "dim": ds.dim,
        "count": len(ds.entries),
    }
    lines.append(json.dumps(header, sort_keys=True))
    keys = ds.keys.astype("<f4")
    for e, key in zip(ds.entries, keys):
        rec = {
            "key_text": e.key_text,
            "payload_text": e.payload_text,
            "doc_id": e.paragraph_ref[0],
            "ordinal": e.paragraph_ref[1],
            "vec_b64": base64.b64encode(key.tobytes()).decode("ascii"),
        }
        lines.append(json.dumps(rec, sort_keys=True))
    body = "".join(line + "\n" for line in lines).encode("utf-8")
    trailer = json.dumps({"crc32": zlib.crc32(body) & 0xFFFFFFFF}) + "\n"
    Path(path).write_bytes(body + trailer.encode("utf-8"))


def load_index(path: str | Path) -> IndexedDataset:
    """Inverse of ``save_index``; entries are parsed straight from the file's bytes."""
    raw = Path(path).read_bytes()
    end = len(raw) - 1 if raw.endswith(b"\n") else len(raw)
    body_end = raw.rfind(b"\n", 0, end) + 1  # the trailer starts here
    if body_end == 0:
        raise ChecksumError(f"{path}: truncated index file")
    try:
        trailer = json.loads(raw[body_end:end])
        expected_crc = int(trailer["crc32"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ChecksumError(f"{path}: missing or unreadable checksum trailer") from exc
    actual_crc = zlib.crc32(memoryview(raw)[:body_end]) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise ChecksumError(
            f"{path}: checksum mismatch (stored {expected_crc}, computed {actual_crc})"
        )

    pos = raw.index(b"\n") + 1
    try:
        header = json.loads(raw[:pos])
    except ValueError as exc:
        raise PersistenceError(f"{path}: unreadable header") from exc
    if header.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"{path}: unsupported format_version {header.get('format_version')!r}"
        )
    dim = int(header["dim"])
    count = raw.count(b"\n", pos, body_end)
    if count != int(header["count"]):
        raise PersistenceError(
            f"{path}: header promises {header['count']} entries, found {count}"
        )

    entries = []
    keys = np.empty((count, dim), dtype=np.float32)
    for i in range(count):
        line_end = raw.index(b"\n", pos)
        rec = json.loads(raw[pos:line_end])
        pos = line_end + 1
        vec = np.frombuffer(base64.b64decode(rec["vec_b64"]), dtype="<f4")
        if len(vec) != dim:
            raise DimMismatchError(f"{path}: entry vector has dim {len(vec)}, header says {dim}")
        keys[i] = vec
        entries.append(
            IndexEntry(
                key_text=rec["key_text"],
                payload_text=rec["payload_text"],
                paragraph_ref=(rec["doc_id"], int(rec["ordinal"])),
            )
        )
    del raw  # the file's bytes need not outlive the parse
    return IndexedDataset(
        kind=IndexKind(header["kind"]),
        entries=entries,
        embedder_name=str(header["embedder_name"]),
        keys=keys,
    )
