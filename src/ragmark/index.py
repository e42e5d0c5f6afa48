"""Vector indexes over sentences or generated questions, with exact cosine scan.

Corpora here are small enough (tens of thousands of entries) that a full
scan is both fast and exactly reproducible, so no approximate structure is
used.

An index saved at ``X`` is two files that travel together. ``X`` is
line-oriented JSON: a header, one record per entry (texts and paragraph
ref), and a CRC32 trailer over everything before it. ``X.f32`` holds the
keys as raw little-endian float32, row-major, with no header; the header
of ``X`` records its size (count x dim) and CRC32, so the trailer's CRC
covers the whole index and two byte-identical ``X`` files mean two
identical indexes.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .corpus import Sentence, count_tokens
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

FORMAT_VERSION = 2

# Slack for float rounding in threshold comparisons: a key identical to the
# query must pass threshold 1.0 even when its cosine lands at 1 - 1e-16.
SCORE_EPS = 1e-9

# Rows normalised at a time when building unit_keys; bounds the float64
# temporary of the norm at this many rows instead of the whole index.
NORM_BLOCK_ROWS = 1024


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
    scaled to unit length in float64, the matrix that ``search`` scans; it
    is built on first use, so commands that never search do not pay for it.
    ``payload_tokens`` remembers each payload's token count the same way.
    """

    kind: IndexKind
    entries: list[IndexEntry]
    embedder_name: str
    keys: np.ndarray
    _token_counts: dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.keys.ndim != 2 or len(self.keys) != len(self.entries):
            raise DimMismatchError(f"{len(self.entries)} entries, key array {self.keys.shape}")

    @functools.cached_property
    def unit_keys(self) -> np.ndarray:
        unit = self.keys.astype(np.float64)
        for start in range(0, len(unit), NORM_BLOCK_ROWS):
            block = unit[start: start + NORM_BLOCK_ROWS]
            block /= np.linalg.norm(block, axis=1, keepdims=True)
        return unit

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def payload_tokens(self, i: int) -> int:
        """``count_tokens`` of entry i's payload, counted once per distinct payload."""
        payload = self.entries[i].payload_text
        count = self._token_counts.get(payload)
        if count is None:
            count = self._token_counts[payload] = count_tokens(payload)
        return count


@dataclass(frozen=True)
class RetrievalHit:
    score: float
    entry_ref: int  # index into IndexedDataset.entries


class Hits(Sequence[RetrievalHit]):
    """A ranking as two arrays: ``scores`` best first, ``refs`` the entry of each.

    An int index or iteration makes ``RetrievalHit``s, so only the hits a
    reader walks become objects; a slice is a ``Hits`` view. A ranking
    equals any sequence holding the same hits in the same order.
    """

    __slots__ = ("scores", "refs")

    def __init__(self, scores: np.ndarray, refs: np.ndarray):
        self.scores = scores
        self.refs = refs

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Hits(self.scores[i], self.refs[i])
        return RetrievalHit(float(self.scores[i]), int(self.refs[i]))

    def __iter__(self):
        return map(RetrievalHit, self.scores.tolist(), self.refs.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


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


def hits_at(hits: Hits, threshold: float) -> Hits:
    """The hits of a search at ``threshold``, taken from a search at a lower one.

    The cut rule: threshold 0.0 accepts everything, negative scores
    included; otherwise a score passes when it reaches the threshold within
    SCORE_EPS. ``search`` ranks exactly and sorts stably, and its scores
    only fall and are never NaN, so the passing hits are a prefix.
    """
    if threshold <= 0.0:
        return hits
    return hits[:np.count_nonzero(hits.scores >= threshold - SCORE_EPS)]


def search(ds: IndexedDataset, query: np.ndarray, threshold: float) -> Hits:
    """Exact scan: every entry that passes ``threshold`` (see ``hits_at``), best first.

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
    return hits_at(Hits(scores[order], order), threshold)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def keys_path(path: str | Path) -> Path:
    """The keys file that travels with the index file at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".f32")


def save_index(ds: IndexedDataset, path: str | Path) -> None:
    """Write the keys file, then the header, one record per entry and the CRC32 trailer.

    The keys go first: a crash between the two writes leaves either no index
    file or an older one whose keys CRC does not match, which ``load_index``
    reports.
    """
    keys = np.ascontiguousarray(ds.keys, dtype="<f4")
    with open(keys_path(path), "wb") as f:
        f.write(keys.data)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": ds.kind.value,
        "embedder_name": ds.embedder_name,
        "dim": ds.dim,
        "count": len(ds.entries),
        "keys_crc32": zlib.crc32(keys) & 0xFFFFFFFF,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for e in ds.entries:
        rec = {
            "key_text": e.key_text,
            "payload_text": e.payload_text,
            "doc_id": e.paragraph_ref[0],
            "ordinal": e.paragraph_ref[1],
        }
        lines.append(json.dumps(rec, sort_keys=True))
    body = "".join(line + "\n" for line in lines).encode("utf-8")
    trailer = json.dumps({"crc32": zlib.crc32(body) & 0xFFFFFFFF}) + "\n"
    with open(path, "wb") as f:
        f.write(body)
        f.write(trailer.encode("utf-8"))


def _int_at_least(value, low: int) -> bool:
    return type(value) is int and value >= low


def _entry(rec, path, line: int) -> IndexEntry:
    """The entry one record describes; a malformed record is a PersistenceError."""
    if isinstance(rec, dict):
        key_text, payload_text = rec.get("key_text"), rec.get("payload_text")
        doc_id, ordinal = rec.get("doc_id"), rec.get("ordinal")
        if (isinstance(key_text, str) and isinstance(payload_text, str)
                and isinstance(doc_id, str) and type(ordinal) is int):
            return IndexEntry(key_text, payload_text, (doc_id, ordinal))
    raise PersistenceError(
        f"{path}:{line}: an entry record is an object with string key_text, "
        f"payload_text and doc_id and an integer ordinal"
    )


def load_index(path: str | Path) -> IndexedDataset:
    """Inverse of ``save_index``.

    Checks the CRC, parses every entry record in one ``json.loads``, then
    reads the keys file straight into the key array and checks its size and
    CRC. A damaged file is a ``ChecksumError``; a missing keys file or a
    malformed but checksum-valid file is a ``PersistenceError``.
    """
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
    if not isinstance(header, dict):
        raise PersistenceError(f"{path}: header is not an object")
    if header.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"{path}: unsupported format_version {header.get('format_version')!r} "
            f"(this version reads {FORMAT_VERSION}); rebuild it with `ragmark index`"
        )
    kind, embedder_name, dim, promised, keys_crc = (
        header.get(name) for name in ("kind", "embedder_name", "dim", "count", "keys_crc32")
    )
    valid = {
        "kind": kind in tuple(k.value for k in IndexKind),
        "embedder_name": isinstance(embedder_name, str),
        "dim": _int_at_least(dim, 1),
        "count": _int_at_least(promised, 0),
        "keys_crc32": _int_at_least(keys_crc, 0),
    }
    bad = [name for name, ok in valid.items() if not ok]
    if bad:
        raise PersistenceError(f"{path}: header lacks a valid {', '.join(bad)}")
    count = raw.count(b"\n", pos, body_end)
    if count != promised:
        raise PersistenceError(f"{path}: header promises {promised} entries, found {count}")

    # json.dumps escapes newlines inside strings, so each record is one line
    # and the lines joined by commas form one JSON array.
    try:
        records = json.loads(b"[" + raw[pos:body_end - 1].replace(b"\n", b",") + b"]")
    except ValueError as exc:
        raise PersistenceError(f"{path}: unreadable entry record") from exc
    if len(records) != count:
        raise PersistenceError(f"{path}: {count} entry lines hold {len(records)} JSON values")
    del raw  # the file's bytes need not outlive the parse
    entries = [_entry(rec, path, line) for line, rec in enumerate(records, start=2)]

    kpath = keys_path(path)
    try:
        with open(kpath, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size != count * dim * 4:
                raise ChecksumError(f"{kpath}: {size} bytes, {path} promises {count} x {dim} float32")
            keys = np.empty((count, dim), dtype="<f4")
            read = f.readinto(keys.data)
    except FileNotFoundError as exc:
        raise PersistenceError(
            f"{kpath}: missing; an index file and its .f32 keys file travel together"
        ) from exc
    if read != size:
        raise ChecksumError(f"{kpath}: read {read} of {size} bytes")
    actual_keys_crc = zlib.crc32(keys) & 0xFFFFFFFF
    if actual_keys_crc != keys_crc:
        raise ChecksumError(
            f"{kpath}: keys checksum mismatch (stored in {path}: {keys_crc}, "
            f"computed {actual_keys_crc})"
        )
    return IndexedDataset(
        kind=IndexKind(kind),
        entries=entries,
        embedder_name=embedder_name,
        keys=keys,
    )
