"""Vector indexes over sentences or generated questions, with exact cosine scan.

Corpora here are small enough (tens of thousands of entries) that a full
scan is both fast and exactly reproducible, so no approximate structure is
used.

In memory an index is columns, not one object per entry: entry i is
``key_texts[i]``, the payload ``payloads[payload_ids[i]]`` (each distinct
payload text is held once), the paragraph ``(doc_ids[i], ordinals[i])`` and
row i of the float32 ``keys``. Each key row's float64 length is taken once,
in row blocks sized to stay in cache. ``search`` scans the float32 keys in
the same blocks: it widens one block at a time into a reused float64
buffer, takes each row's dot product with the unit query on its own, and
divides by the row's stored length. A key's score therefore depends on its
row alone, not on which rows are scanned with it or on how many BLAS
threads run, and no float64 copy of the whole index is made. The ranking
a search returns is two arrays, ``Hits``: the scores best first and the
entry ref (the row index) of each. It stays that way through the threshold
cut and context packing.

An index saved at ``X`` is two files that travel together. ``X`` is
line-oriented JSON: a header, one record per entry (texts and paragraph
ref), and a CRC32 trailer over everything before it. ``X.f32`` holds the
keys as raw little-endian float32, row-major, with no header; the header
of ``X`` records its size (count x dim) and CRC32, so the trailer's CRC
covers the whole index and two byte-identical ``X`` files mean two
identical indexes.
"""

from __future__ import annotations

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
from .wire import LineTemplate, parse_lines

log = logging.getLogger(__name__)

FORMAT_VERSION = 2

# Slack for float rounding in threshold comparisons: a key identical to the
# query must pass threshold 1.0 even when its cosine lands at 1 - 1e-16.
SCORE_EPS = 1e-9

# Size of one block of key rows in float64, for the row lengths and for the
# scan: each temporary and the scan's buffer stay cache-sized (128 rows at
# dim 512) and are reused by the allocator instead of being mapped afresh.
ROW_BLOCK_BYTES = 512 * 1024

# Bytes of index records that save_index holds before it writes them: a chunk
# of rows is held as text and then as the bytes written, half of this each.
SAVE_CHUNK_BYTES = 256 * 1024


class IndexKind(str, Enum):
    SENTENCES = "sentences"  # key = sentence, payload = the sentence itself
    QUESTIONS = "questions"  # key = generated question, payload = parent paragraph


def _block_rows(dim: int) -> int:
    return max(1, ROW_BLOCK_BYTES // (8 * dim))


def _row_blocks(rows: int, dim: int) -> list[slice]:
    step = _block_rows(dim)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _row_norms(keys: np.ndarray) -> np.ndarray:
    """Each row's float64 length, taken a block of rows at a time.

    The same operations in the same order as ``np.linalg.norm(axis=1)`` on a
    float64 copy, so the same bits, through one reused float64 buffer.
    """
    count, dim = keys.shape
    norms = np.empty(count)
    buf = np.empty((min(count, _block_rows(dim)), dim))
    for rows in _row_blocks(count, dim):
        block = keys[rows]
        squares = np.square(block, out=buf[:len(block)], dtype=np.float64)
        np.add.reduce(squares, axis=1, out=norms[rows])
    return np.sqrt(norms, out=norms)


def _unusable(norms: np.ndarray) -> np.ndarray:
    """Which keys are all zeros or hold a NaN or an infinity: they have no direction."""
    return ~((norms > 0.0) & (norms < np.inf))


@dataclass(eq=False)
class IndexedDataset:
    """An index as columns; entry i is row i of every column and of ``keys``.

    ``payloads`` holds each distinct payload text once and ``payload_ids``
    points each entry at its own, so a paragraph that several questions
    share is stored, compared and counted once. The builders and
    ``load_index`` keep ``keys`` as float32, the on-disk precision, so
    save/load is an identity; ``norms`` is each key row's float64 length,
    taken on construction unless given. ``search`` scans ``keys`` and
    ``norms`` where they are, through one block-sized buffer, so no copy
    of the whole key matrix is built.
    ``payload_tokens`` remembers each payload's token count on first use.
    """

    kind: IndexKind
    key_texts: list[str]
    payloads: list[str]
    payload_ids: list[int]
    doc_ids: list[str]
    ordinals: list[int]
    embedder_name: str
    keys: np.ndarray
    norms: np.ndarray | None = field(default=None, repr=False)
    _token_counts: dict[int, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        lengths = {len(column) for column in
                   (self.key_texts, self.payload_ids, self.doc_ids, self.ordinals)}
        if self.keys.ndim != 2 or lengths != {len(self.keys)}:
            raise DimMismatchError(
                f"columns of {sorted(lengths)} entries, key array {self.keys.shape}")
        if self.norms is None:
            self.norms = _row_norms(self.keys)

    @classmethod
    def from_columns(
        cls,
        kind: IndexKind,
        key_texts: list[str],
        payload_texts: list[str],
        doc_ids: list[str],
        ordinals: list[int],
        embedder_name: str,
        keys: np.ndarray,
        norms: np.ndarray | None = None,
    ) -> IndexedDataset:
        """The index whose entry i has these texts, paragraph and key.

        Equal payload texts share one id.
        """
        ids: dict[str, int] = {}
        payload_ids = [ids.setdefault(text, len(ids)) for text in payload_texts]
        return cls(kind, key_texts, list(ids), payload_ids, doc_ids, ordinals, embedder_name,
                   keys, norms)

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def payload_tokens(self, payload_id: int) -> int:
        """``count_tokens`` of ``payloads[payload_id]``, counted on first use."""
        count = self._token_counts.get(payload_id)
        if count is None:
            count = self._token_counts[payload_id] = count_tokens(self.payloads[payload_id])
        return count


class Hits:
    """A ranking as two arrays: ``scores`` (float64) best first, ``refs`` the entry of each.

    A ref is an entry index: a row of ``IndexedDataset.keys`` and of each
    column.
    """

    __slots__ = ("scores", "refs")

    def __init__(self, scores: np.ndarray, refs: np.ndarray):
        self.scores = scores
        self.refs = refs

    def __len__(self) -> int:
        return len(self.scores)


def _build(
    kind: IndexKind,
    key_texts: list[str],
    payload_texts: list[str],
    doc_ids: list[str],
    ordinals: list[int],
    embedder: Embedder,
) -> IndexedDataset:
    """The index whose entry i has these texts and paragraph, keyed by ``key_texts[i]``.

    The keys are embedded in one call straight into float32, the stored
    precision, so no float64 ``(n, dim)`` matrix is made (the texts go
    positionally: ``bench/tracer.py`` counts them as ``args[1]``). An entry
    whose float32 key has no direction is skipped with a warning.
    """
    if not key_texts:
        raise EmptyIndexError("nothing to index")
    keys = embedder.embed_batch(key_texts, dtype=np.float32)
    norms = _row_norms(keys)
    unusable = _unusable(norms)
    if unusable.any():
        for i in np.flatnonzero(unusable):
            log.warning("skipping zero-vector entry %r", key_texts[i][:60])
        kept = np.flatnonzero(~unusable).tolist()
        if not kept:
            raise EmptyIndexError("every candidate entry embedded to a zero vector")
        key_texts, payload_texts, doc_ids, ordinals = (
            [column[i] for i in kept] for column in (key_texts, payload_texts, doc_ids, ordinals)
        )
        keys, norms = keys[kept], norms[kept]
    return IndexedDataset.from_columns(kind, key_texts, payload_texts, doc_ids, ordinals,
                                       embedder.name, keys, norms)


def build_sentence_index(sentences: Sequence[Sentence], embedder: Embedder) -> IndexedDataset:
    """Index already-filtered sentences; each sentence is its own payload."""
    sentences = list(sentences)
    texts = [s.text for s in sentences]
    return _build(
        IndexKind.SENTENCES,
        texts,
        texts,
        [s.doc_id for s in sentences],
        [s.paragraph_ordinal for s in sentences],
        embedder,
    )


def build_question_index(qa: QADataset, embedder: Embedder) -> IndexedDataset:
    """Index generated questions; the payload is the parent paragraph text."""
    return _build(
        IndexKind.QUESTIONS,
        [p.question for p in qa.pairs],
        [p.answer_text for p in qa.pairs],
        [p.paragraph_ref[0] for p in qa.pairs],
        [p.paragraph_ref[1] for p in qa.pairs],
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
    cut = np.count_nonzero(hits.scores >= threshold - SCORE_EPS)
    return Hits(hits.scores[:cut], hits.refs[:cut])


def _scores(ds: IndexedDataset, unit_query: np.ndarray) -> np.ndarray:
    """Each key's cosine to ``unit_query``, scanned a cache-sized block of rows at a time.

    A block is widened into one reused float64 buffer (float32 widens
    exactly) and ``vecdot`` takes each row's dot product on its own, one
    BLAS ``ddot`` per row; dividing by the stored row length finishes the
    cosine. So a score depends on its own row alone.
    """
    count, dim = ds.keys.shape
    scores = np.empty(count)
    wide = np.empty((min(count, _block_rows(dim)), dim))
    for rows in _row_blocks(count, dim):
        out = scores[rows]
        block = wide[:len(out)]
        block[...] = ds.keys[rows]
        np.vecdot(block, unit_query, out=out)
    scores /= ds.norms
    return scores


def search(ds: IndexedDataset, query: np.ndarray, threshold: float) -> Hits:
    """Exact scan: every entry that passes ``threshold`` (see ``hits_at``), best first.

    The ranking is two arrays (``Hits``), scores and entry refs. Ties keep
    insertion order. Threshold 0.0 returns all entries; threshold
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
    scores = _scores(ds, q / nq)
    order = np.argsort(-scores, kind="stable")
    return hits_at(Hits(scores[order], order), threshold)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def keys_path(path: str | Path) -> Path:
    """The keys file that travels with the index file at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".f32")


_ENTRY = LineTemplate({"key_text": str, "payload_text": str, "doc_id": str, "ordinal": int})


def _rows_per_chunk(ds: IndexedDataset, payload_texts: list[str]) -> int:
    """Rows whose record text, held once as text and once as bytes, is about ``SAVE_CHUNK_BYTES``.

    Sized from the mean record: its key text and escaped payload, plus 64
    bytes for the field names, the document id and the ordinal.
    """
    count = len(ds.key_texts)
    lengths = list(map(len, payload_texts))
    text = sum(map(len, ds.key_texts)) + sum(map(lengths.__getitem__, ds.payload_ids))
    return max(1, int(SAVE_CHUNK_BYTES / (2 * (text / max(count, 1) + 64))))


def save_index(ds: IndexedDataset, path: str | Path) -> None:
    """Write the keys file, then the header, one record per entry and the CRC32 trailer.

    The keys go first: a crash between the two writes leaves either no index
    file or an older one whose keys CRC does not match, which ``load_index``
    reports. Each distinct payload is escaped once; the records are
    formatted and written a chunk of rows at a time, with the body's CRC
    taken as they go, so the whole body is never held at once. A crash
    mid-write leaves a file without a valid trailer, which ``load_index``
    reports as a ``ChecksumError``.
    """
    keys = np.ascontiguousarray(ds.keys, dtype="<f4")
    with open(keys_path(path), "wb") as f:
        f.write(keys.data)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": ds.kind.value,
        "embedder_name": ds.embedder_name,
        "dim": ds.dim,
        "count": len(ds.key_texts),
        "keys_crc32": zlib.crc32(keys) & 0xFFFFFFFF,
    }
    payload_texts = _ENTRY.format("payload_text", ds.payloads)
    rows = _rows_per_chunk(ds, payload_texts)
    with open(path, "wb") as f:
        data = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
        crc = zlib.crc32(data)
        f.write(data)
        for start in range(0, len(ds.key_texts), rows):
            stop = start + rows
            data = _ENTRY.join({
                "key_text": _ENTRY.format("key_text", ds.key_texts[start:stop]),
                "payload_text": list(map(payload_texts.__getitem__, ds.payload_ids[start:stop])),
                "doc_id": _ENTRY.format("doc_id", ds.doc_ids[start:stop]),
                "ordinal": _ENTRY.format("ordinal", ds.ordinals[start:stop]),
            }).encode("utf-8")
            crc = zlib.crc32(data, crc)
            f.write(data)
        f.write((json.dumps({"crc32": crc}) + "\n").encode("utf-8"))


def _int_at_least(value, low: int) -> bool:
    return type(value) is int and value >= low


def load_index(path: str | Path) -> IndexedDataset:
    """Inverse of ``save_index``.

    Checks the CRC, then reads the entry lines through the JSONL readers'
    parser (``parse_lines``): one ``json.loads`` for all of them, and the
    records checked a column at a time, one record a line, each of exactly
    the four entry fields with their exact types, no coercion. A file that
    fails is named by its first line that is not, read alone, one such
    record. Then it reads the keys file straight into
    the key array and checks its size, and, in one pass over cache-sized
    row blocks, its CRC and each row's length. A damaged file is a
    ``ChecksumError``; a missing keys file, a malformed but checksum-valid
    file, or a key row that is all zeros or not finite is a
    ``PersistenceError``.
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
    kind, embedder_name, dim, count, keys_crc = (
        header.get(name) for name in ("kind", "embedder_name", "dim", "count", "keys_crc32")
    )
    valid = {
        "kind": kind in tuple(k.value for k in IndexKind),
        "embedder_name": isinstance(embedder_name, str),
        "dim": _int_at_least(dim, 1),
        "count": _int_at_least(count, 0),
        "keys_crc32": _int_at_least(keys_crc, 0),
    }
    bad = [name for name, ok in valid.items() if not ok]
    if bad:
        raise PersistenceError(f"{path}: header lacks a valid {', '.join(bad)}")
    body = raw[pos:body_end - 1]
    del raw  # the file's bytes need not outlive the parse
    columns = parse_lines(_ENTRY, body, count)
    if columns is None:
        found = body.count(b"\n") + (body_end > pos)
        if found != count:
            raise PersistenceError(f"{path}: header promises {count} entries, found {found}")
        line = next(n for n, text in enumerate(body.split(b"\n"), start=2)
                    if parse_lines(_ENTRY, text, 1) is None)
        raise PersistenceError(
            f"{path}:{line}: an entry line is one JSON object of exactly four fields: "
            f"string key_text, payload_text and doc_id and an integer ordinal"
        )
    del body

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
    actual_keys_crc = 0
    norms = np.empty(count)
    for rows in _row_blocks(count, dim):  # each block is still in cache for its norms
        actual_keys_crc = zlib.crc32(keys[rows], actual_keys_crc)
        norms[rows] = _row_norms(keys[rows])
    if actual_keys_crc != keys_crc:
        raise ChecksumError(
            f"{kpath}: keys checksum mismatch (stored in {path}: {keys_crc}, "
            f"computed {actual_keys_crc})"
        )
    unusable = np.flatnonzero(_unusable(norms))
    if len(unusable):
        row = int(unusable[0])
        raise PersistenceError(
            f"{kpath}: key row {row} is all zeros or not finite; it is the key of the entry "
            f"on {path}:{row + 2}"
        )
    return IndexedDataset.from_columns(IndexKind(kind), columns["key_text"],
                                       columns["payload_text"], columns["doc_id"],
                                       columns["ordinal"], embedder_name, keys, norms)
