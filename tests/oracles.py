"""Independent brute-force oracles used to cross-check the implementations.

Deliberately naive: list scans instead of count dictionaries, subsequence
enumeration instead of the LCS recurrence, the rolling-row LCS DP instead of
the bit-parallel one, reference scans that re-stem every token instead of
per-word position stacks, per-pair python cosines instead of the matrix
scan, one dot product per row in a python loop and one whole-matrix
``gemv`` over unit rows instead of the blocked row scan, a cosine per pair
that takes both lengths again instead of each length once, one n x n x 2
array and one whole-matrix norm instead of row blocks,
the dim x dim covariance instead of the n x n Gram matrix for PCA,
format-1 index files with one base64 vector per record instead of a raw
keys file, one ``IndexEntry`` object per index line, parsed and checked
line by line, instead of columns parsed in one ``json.loads`` and checked a
column at a time, BLEU that counts
every reference n-gram at every level, a binary search over token prefixes
instead of a cut at the budget-th token, re-counting the whole joined
context per packed payload, one ``(score, ref)`` pair per ranked entry and
a bisect over them instead of two arrays and a vectorised cut, one
search, pack, generate and score per sweep cell, a hashed embedding counted
one word at a time into its own float64 row instead of one ``bincount``
per block of texts, an index file encoded as one body before it is
written instead of streamed in chunks, JSONL records built as one dict
each and encoded by ``JSONEncoder.encode`` instead of formatted a column
at a time through a compiled line template, a sentence scanner that walks the
text one character at a time instead of one boundary pattern, and paragraph
splitting that re-counts every joined chunk and re-scans the rest of an
over-budget sentence for every piece instead of carrying counts forward, and
JSONL files read with one ``json.loads`` and one decoder call per line, each
field checked by its own exact-type rule and passed by keyword, instead of a
chunk of lines parsed in one ``json.loads`` into columns that pass whole
when every value has its exact type, a question
mock that hashes each text with the byte-at-a-time ``fnv1a64`` instead of one
numpy pass over all texts, a dataset build that asks a per-text client from
a thread pool instead of making one batch call, and a whitespace regex
instead of ``str.split`` for question dedup keys.
Slow is fine; different code paths are the point.
"""

import base64
import bisect
import dataclasses
import json
import logging
import math
import random
import re
import threading
import typing
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ragmark.corpus import (
    _BLANK_LINE_RE,
    Paragraph,
    _is_abbreviation,
    check_paragraph_budget,
    count_tokens,
    normalize_ws,
    token_spans,
    truncate_to_token_budget,
)
from ragmark.embed import _WORD_RE, fnv1a64
from ragmark.errors import (
    ChecksumError,
    DegenerateCloudError,
    DimMismatchError,
    EmptyDocumentError,
    PersistenceError,
    RagmarkError,
    ZeroVectorError,
)
from ragmark.experiment import _check_failures, _question_ids
from ragmark.generate import GenerationRequest
from ragmark.index import (
    SCORE_EPS,
    Hits,
    IndexedDataset,
    IndexKind,
    hits_at,
    keys_path,
    search,
)
from ragmark.metrics import BLEU_SMOOTH_FLOOR, ScoreRow, _stem, score_row
from ragmark.qagen import FALLBACK_QUESTION, QUESTION_GEN_WORKERS, QADataset, QAPair
from ragmark.retrieve import PackedContext, render_prompt
from ragmark.testgen import TestSet

log = logging.getLogger(__name__)


@dataclass
class IndexEntry:
    """One index entry as one object: how ``IndexedDataset`` held its entries before columns."""

    key_text: str
    payload_text: str
    paragraph_ref: tuple[str, int]


def dataset_of(kind, entries, embedder_name, keys):
    """The ``IndexedDataset`` holding ``entries``, with row i of ``keys`` for entry i."""
    return IndexedDataset.from_columns(
        kind,
        [e.key_text for e in entries],
        [e.payload_text for e in entries],
        [e.paragraph_ref[0] for e in entries],
        [e.paragraph_ref[1] for e in entries],
        embedder_name,
        np.asarray(keys),
    )


def entries_of(ds):
    """Every entry of ``ds`` as an ``IndexEntry``, in order."""
    return [IndexEntry(key_text, ds.payloads[payload_id], (doc_id, ordinal))
            for key_text, payload_id, doc_id, ordinal
            in zip(ds.key_texts, ds.payload_ids, ds.doc_ids, ds.ordinals)]


def _oracle_ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i: i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def oracle_bleu_tokens(cand, ref, max_n=4):
    """BLEU that counts every reference n-gram and takes a log at every level."""
    if not cand:
        return 0.0
    log_sum = 0.0
    levels = 0
    for n in range(1, max_n + 1):
        total = len(cand) - n + 1
        if total < 1:
            break
        cand_counts = _oracle_ngram_counts(cand, n)
        ref_counts = _oracle_ngram_counts(ref, n)
        clipped = 0
        for gram, count in cand_counts.items():
            r = ref_counts.get(gram, 0)
            clipped += count if count < r else r
        precision = clipped / total if clipped else BLEU_SMOOTH_FLOOR
        log_sum += math.log(precision)
        levels += 1
    score = math.exp(log_sum / levels)
    c, r = len(cand), len(ref)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return score * brevity


def oracle_bleu(cand, ref, max_n=4):
    """Clipped n-gram precision via raw list scans; product-form geometric mean."""
    if not cand:
        return 0.0
    precisions = []
    for n in range(1, max_n + 1):
        cand_grams = [tuple(cand[i: i + n]) for i in range(len(cand) - n + 1)]
        if not cand_grams:
            break
        ref_grams = [tuple(ref[i: i + n]) for i in range(len(ref) - n + 1)]
        clipped = sum(
            min(cand_grams.count(g), ref_grams.count(g)) for g in set(cand_grams)
        )
        precisions.append(clipped / len(cand_grams) if clipped else 1e-9)
    geo = math.prod(precisions) ** (1.0 / len(precisions))
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return geo * brevity


def subsequences(seq):
    """Every subsequence of seq as a set of tuples (including the empty one)."""
    out = set()
    for mask in range(1 << len(seq)):
        out.add(tuple(seq[i] for i in range(len(seq)) if mask >> i & 1))
    return out


def oracle_lcs(cand, ref):
    """Longest common subsequence by exhaustive enumeration."""
    common = subsequences(cand) & subsequences(ref)
    return max(len(s) for s in common)


def oracle_rouge(cand, ref):
    if not cand or not ref:
        return 0.0
    lcs = oracle_lcs(cand, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    return 2 * p * r / (p + r)


def oracle_lcs_length(a, b):
    """Longest common subsequence length via the classic rolling-row DP."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                p, q = cur[j - 1], prev[j]
                cur.append(p if p >= q else q)
        prev = cur
    return prev[-1]


def oracle_align(cand, ref):
    """METEOR's greedy alignment by scanning the reference per candidate, re-stemming as it goes."""
    taken = [False] * len(ref)
    pairs = {}
    for ci, word in enumerate(cand):
        for ri, rword in enumerate(ref):
            if not taken[ri] and rword == word:
                pairs[ci] = ri
                taken[ri] = True
                break
    for ci, word in enumerate(cand):
        if ci in pairs:
            continue
        stem = _stem(word)
        for ri, rword in enumerate(ref):
            if not taken[ri] and _stem(rword) == stem:
                pairs[ci] = ri
                taken[ri] = True
                break
    return sorted(pairs.items())


def oracle_cosine(x, y):
    dot = math.fsum(a * b for a, b in zip(x, y))
    nx = math.sqrt(math.fsum(a * a for a in x))
    ny = math.sqrt(math.fsum(b * b for b in y))
    return dot / (nx * ny)


def oracle_search(key_vectors, query, threshold, eps=1e-9):
    """(score, index) hits sorted by descending score, stable ties, inclusive cut."""
    scored = [(oracle_cosine(vec, query), i) for i, vec in enumerate(key_vectors)]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    if threshold == 0.0:
        return scored
    return [(s, i) for s, i in scored if s >= threshold - eps]


def _oracle_below_threshold(score, threshold):
    return threshold > 0.0 and score < threshold - SCORE_EPS


def oracle_hits_at(hits, threshold):
    """The prefix of a list of (score, ref) pairs that passes ``threshold``, by bisection."""
    cut = bisect.bisect_left(hits, True, key=lambda h: _oracle_below_threshold(h[0], threshold))
    return hits[:cut]


def oracle_pair_cosine(x: np.ndarray, y: np.ndarray) -> float:
    """Dot product over the product of norms; symmetric and scale-invariant."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise DimMismatchError(f"dim mismatch: {xv.shape} vs {yv.shape}")
    nx = float(np.linalg.norm(xv))
    ny = float(np.linalg.norm(yv))
    if nx == 0.0 or ny == 0.0:
        raise ZeroVectorError("cosine is undefined for zero-norm vectors")
    return float(np.dot(xv, yv) / (nx * ny))


def oracle_cs_best(g_vecs, r_vecs, cos=oracle_cosine):
    """Mean over generated vectors of the best ``cos`` against any reference vector."""
    best = [max(cos(g, r) for r in r_vecs) for g in g_vecs]
    return math.fsum(best) / len(best)


def oracle_search_loop(ds, query, threshold):
    """Each row's dot product over its length, a row at a time; one (score, ref) pair per hit."""
    q = np.asarray(query, dtype=np.float64)
    unit_query = q / np.linalg.norm(q)
    norms = oracle_norms(ds.keys)
    scores = np.array([float(np.dot(ds.keys[i].astype(np.float64), unit_query)) / norms[i]
                       for i in range(len(ds.keys))])
    order = np.argsort(-scores, kind="stable")
    hits = []
    for i in order:
        s = float(scores[i])
        if _oracle_below_threshold(s, threshold):
            break  # scores only fall from here
        hits.append((s, int(i)))
    return hits


def oracle_within(points, eps):
    """DBSCAN neighbour matrix in one shot, through the full n x n x 2 difference array."""
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return (diff ** 2).sum(axis=2) <= eps ** 2


def oracle_reduce_dim(vectors, target_dim=2):
    """PCA through an eigendecomposition of the dim x dim covariance, at any n."""
    if len(vectors) < target_dim + 1:
        raise ValueError(f"need more than {target_dim} vectors to reduce")
    x = np.asarray(vectors, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    if float(np.trace(cov)) <= 1e-12:
        raise DegenerateCloudError("all points are identical; nothing to project")
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")[:target_dim]
    components = eigenvectors[:, order].T
    for i, component in enumerate(components):
        pivot = int(np.argmax(np.abs(component)))
        if component[pivot] < 0:
            components[i] = -component
    return centered @ components.T


def oracle_local_hash_embed(texts, dim):
    """``LocalHashEmbedder(dim)`` one text at a time: count each word, divide by the norm."""
    out = np.empty((len(texts), dim), dtype=np.float64)
    for i, text in enumerate(texts):
        words = _WORD_RE.findall(text.lower())
        if not words:
            raise ZeroVectorError(f"no embeddable words in {text!r}")
        counts = np.zeros(dim, dtype=np.float64)
        for w in words:
            counts[fnv1a64(w.encode("utf-8")) % dim] += 1.0
        counts /= np.linalg.norm(counts)
        out[i] = counts
    return out


def oracle_norms(keys):
    """Each row's float64 length, with one norm over the whole matrix."""
    return np.linalg.norm(keys.astype(np.float64), axis=1)


def oracle_unit_keys(keys):
    """Rows of ``keys`` scaled to unit length in float64."""
    return keys.astype(np.float64) / oracle_norms(keys)[:, None]


def oracle_search_gemv(ds, query, threshold):
    """The unit rows times the unit query in one BLAS ``gemv``, as ``search`` once scanned.

    A ``gemv`` groups rows as the BLAS build and thread count choose, so a
    score's last bits can depend on its neighbours.
    """
    q = np.asarray(query, dtype=np.float64)
    scores = oracle_unit_keys(ds.keys) @ (q / np.linalg.norm(q))
    order = np.argsort(-scores, kind="stable")
    return hits_at(Hits(scores[order], order), threshold)


# json.dumps(obj, sort_keys=True) builds a new encoder on every call; one
# shared encoder writes the same bytes.
encode_sorted = json.JSONEncoder(sort_keys=True).encode


def oracle_flat_record(obj):
    """The JSONL record of a flat dataclass: every field under its own name."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def oracle_pair_record(pair, **ref):
    """JSONL record of a pair: its texts, the ``ref`` fields, and ``synthetic`` only when set."""
    rec = {"question": pair.question, "answer_text": pair.answer_text, **ref}
    if pair.synthetic:
        rec["synthetic"] = True
    return rec


def oracle_qa_record(pair):
    doc_id, ordinal = pair.paragraph_ref
    return oracle_pair_record(pair, doc_id=doc_id, paragraph_ordinal=ordinal)


def oracle_test_record(pair):
    return oracle_pair_record(pair, cluster_id=pair.paragraph_ref[1])


def oracle_jsonl(records):
    """The bytes of a JSONL file: each record encoded on its own line."""
    return "".join(encode_sorted(rec) + "\n" for rec in records).encode("utf-8")


def oracle_read_jsonl(path, decode):
    """``decode`` applied to the record on every non-blank line of ``path``.

    A line that is not JSON, or a record ``decode`` rejects (a missing field
    raises KeyError, a value of another type ValueError, a record that is
    not an object TypeError), is a PersistenceError naming ``path:line``.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, 1):
            if text.isspace():
                continue
            try:
                out.append(decode(json.loads(text)))
            except KeyError as exc:
                raise PersistenceError(f"{path}:{lineno}: record has no field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise PersistenceError(f"{path}:{lineno}: bad record: {exc}") from exc
    return out


def oracle_exact(value, kind):
    """``value`` if JSON holds it as a ``kind`` the writer writes; no value is converted."""
    if kind is float:
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        if not isinstance(value, float):
            raise ValueError(f"{value!r} is not a float")
        if value != value or abs(value) == math.inf:
            raise ValueError(f"{value!r} is not a finite number")
    elif kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{value!r} is not an integer")
    elif kind is bool and value is not True and value is not False:
        raise ValueError(f"{value!r} is not a boolean")
    elif kind is str and not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    elif kind is dict and not isinstance(value, dict):
        raise ValueError(f"{value!r} is not an object")
    return value


def oracle_flat_decode(cls):
    """The record decoder of flat dataclass ``cls``: every field checked, in field order."""
    hints = typing.get_type_hints(cls)
    fields = [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]
    return lambda rec: cls(**{name: oracle_exact(rec[name], kind) for name, kind in fields})


def oracle_decode_pair(rec, paragraph_ref):
    return QAPair(question=oracle_exact(rec["question"], str), paragraph_ref=paragraph_ref,
                  answer_text=oracle_exact(rec["answer_text"], str),
                  synthetic=oracle_exact(rec.get("synthetic", False), bool))


def oracle_decode_qa(rec):
    return oracle_decode_pair(rec, (oracle_exact(rec["doc_id"], str),
                                    oracle_exact(rec["paragraph_ordinal"], int)))


def oracle_decode_test_record(rec):
    """A test pair, or the object of a ``params`` header."""
    if "params" in rec:
        return oracle_exact(rec["params"], dict)
    return oracle_decode_pair(rec, ("cluster", oracle_exact(rec["cluster_id"], int)))


def oracle_read_test_set(path):
    records = oracle_read_jsonl(path, oracle_decode_test_record)
    params = records.pop(0) if records and isinstance(records[0], dict) else {}
    if any(isinstance(rec, dict) for rec in records):
        raise PersistenceError(f"{path}: the params header must be the first record")
    return TestSet(pairs=records, params=params)


def oracle_index_lines(ds, header):
    yield encode_sorted(header)
    for key_text, payload_id, doc_id, ordinal in zip(ds.key_texts, ds.payload_ids, ds.doc_ids,
                                                     ds.ordinals):
        rec = {
            "key_text": key_text,
            "payload_text": ds.payloads[payload_id],
            "doc_id": doc_id,
            "ordinal": ordinal,
        }
        yield encode_sorted(rec)


def oracle_save_index(ds, path):
    """Format 2 as one encoded body: the keys file, then every line joined, CRC'd and written."""
    keys = np.ascontiguousarray(ds.keys, dtype="<f4")
    keys_path(path).write_bytes(keys.tobytes())
    header = {
        "format_version": 2,
        "kind": ds.kind.value,
        "embedder_name": ds.embedder_name,
        "dim": ds.dim,
        "count": len(ds.key_texts),
        "keys_crc32": zlib.crc32(keys) & 0xFFFFFFFF,
    }
    body = "".join(line + "\n" for line in oracle_index_lines(ds, header)).encode("utf-8")
    trailer = json.dumps({"crc32": zlib.crc32(body) & 0xFFFFFFFF}) + "\n"
    Path(path).write_bytes(body + trailer.encode("utf-8"))


def oracle_save_index_v1(ds, path):
    """Format 1: header record, one record per entry with its key as base64 float32, CRC32 trailer."""
    lines = []
    header = {
        "format_version": 1,
        "kind": ds.kind.value,
        "embedder_name": ds.embedder_name,
        "dim": ds.dim,
        "count": len(ds.key_texts),
    }
    lines.append(json.dumps(header, sort_keys=True))
    keys = ds.keys.astype("<f4")
    for e, key in zip(entries_of(ds), keys):
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


def oracle_load_index_v1(path):
    """Inverse of ``oracle_save_index_v1``, one record and one base64 vector at a time."""
    raw = Path(path).read_bytes()
    end = len(raw) - 1 if raw.endswith(b"\n") else len(raw)
    body_end = raw.rfind(b"\n", 0, end) + 1
    if body_end == 0:
        raise ChecksumError(f"{path}: truncated index file")
    try:
        trailer = json.loads(raw[body_end:end])
        expected_crc = int(trailer["crc32"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ChecksumError(f"{path}: missing or unreadable checksum trailer") from exc
    if zlib.crc32(memoryview(raw)[:body_end]) & 0xFFFFFFFF != expected_crc:
        raise ChecksumError(f"{path}: checksum mismatch")
    pos = raw.index(b"\n") + 1
    header = json.loads(raw[:pos])
    if header.get("format_version") != 1:
        raise PersistenceError(f"{path}: unsupported format_version {header.get('format_version')!r}")
    dim = int(header["dim"])
    count = raw.count(b"\n", pos, body_end)
    if count != int(header["count"]):
        raise PersistenceError(f"{path}: header promises {header['count']} entries, found {count}")
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
        entries.append(IndexEntry(key_text=rec["key_text"], payload_text=rec["payload_text"],
                                  paragraph_ref=(rec["doc_id"], int(rec["ordinal"]))))
    return dataset_of(IndexKind(header["kind"]), entries, str(header["embedder_name"]), keys)


_ENTRY_FIELDS = ["doc_id", "key_text", "ordinal", "payload_text"]


def _oracle_entry(text, path, line):
    """The entry one line describes, read alone: a line that is not one JSON object of
    exactly the four entry fields, from ``{`` to ``}``, is a PersistenceError."""
    try:
        rec = json.loads(text) if text[:1] == b"{" and text[-1:] == b"}" else None
    except ValueError:
        rec = None
    if isinstance(rec, dict) and sorted(rec) == _ENTRY_FIELDS:
        key_text, payload_text = rec["key_text"], rec["payload_text"]
        doc_id, ordinal = rec["doc_id"], rec["ordinal"]
        if (isinstance(key_text, str) and isinstance(payload_text, str)
                and isinstance(doc_id, str) and type(ordinal) is int):
            return IndexEntry(key_text, payload_text, (doc_id, ordinal))
    raise PersistenceError(
        f"{path}:{line}: an entry line is one JSON object of exactly four fields: "
        f"string key_text, payload_text and doc_id and an integer ordinal"
    )


def oracle_load_index(path):
    """A format-2 index as (header, entries, keys): one ``json.loads`` and one entry per line.

    Checks only the record layout; the trailer and key checksums are taken
    as good.
    """
    lines = Path(path).read_bytes().split(b"\n")[:-2]  # the trailer and the final newline go
    header = json.loads(lines[0])
    entries = [_oracle_entry(line, path, number)
               for number, line in enumerate(lines[1:], start=2)]
    keys = np.fromfile(keys_path(path), dtype="<f4").reshape(header["count"], header["dim"])
    return header, entries, keys


def streaming_means(values):
    """Welford-style running mean."""
    mean = 0.0
    for i, v in enumerate(values, 1):
        mean += (v - mean) / i
    return mean


def oracle_iter_sentences(text):
    """Sentence boundaries found by walking ``text`` one character at a time."""
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] not in ".!?":
            i += 1
            continue
        j = i
        while j + 1 < n and text[j + 1] in ".!?":
            j += 1
        k = j + 1
        if k < n and text[k].isspace():
            m = k
            while m < n and text[m].isspace():
                m += 1
            if m < n and (text[m].isupper() or text[m].isdigit()):
                if not (text[i] == "." and i == j and _is_abbreviation(text, i)):
                    piece = text[start: j + 1].strip()
                    if piece:
                        yield piece
                    start = m
        i = j + 1
    tail = text[start:].strip()
    if tail:
        yield tail


def oracle_split_paragraphs(doc, budget):
    """Paragraph chunks that re-count each chunk once it is built."""
    check_paragraph_budget(budget)
    body = doc.body.strip()
    if not body:
        raise EmptyDocumentError(f"document {doc.id!r} has an empty body")
    chunks = []
    for natural in _BLANK_LINE_RE.split(body):
        text = normalize_ws(natural)
        if not text:
            continue
        if count_tokens(text) <= budget:
            chunks.append(text)
        else:
            chunks.extend(_oracle_split_oversize(text, budget))
    return [Paragraph(doc_id=doc.id, ordinal=i, text=text, token_count=count_tokens(text))
            for i, text in enumerate(chunks)]


def _oracle_split_oversize(text, budget):
    """Sentences packed by re-counting the joined chunk for every sentence."""
    chunks = []
    current = []

    def flush():
        if current:
            chunks.append(" ".join(current))
            current.clear()

    for sentence in oracle_iter_sentences(text):
        if count_tokens(sentence) > budget:
            flush()
            chunks.extend(_oracle_hard_split(sentence, budget))
            continue
        if current and count_tokens(" ".join(current + [sentence])) > budget:
            flush()
        current.append(sentence)
    flush()
    return chunks


def _oracle_hard_split(text, budget):
    """Budget-sized pieces, each cut from a fresh scan of the rest of ``text``."""
    pieces = []
    rest = text
    while rest:  # rest starts on a token and budget >= 1, so every cut takes one
        prefix, rest = truncate_to_token_budget(rest, budget)
        pieces.append(prefix)
    return pieces


def oracle_truncate_to_token_budget(text, budget):
    """Binary search for the longest token-boundary prefix within ``budget``,
    backing off in case counts do not grow with the prefix."""
    spans = token_spans(text)
    if not spans or budget <= 0:
        return "", text
    lo, hi = 0, len(spans)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if count_tokens(text[: spans[mid - 1][1]]) <= budget:
            lo = mid
        else:
            hi = mid - 1
    k = lo
    while k > 0 and count_tokens(text[: spans[k - 1][1]]) > budget:
        k -= 1
    if k == 0:
        return "", text
    cut = spans[k - 1][1]
    return text[:cut].rstrip(), text[cut:].lstrip()


def oracle_pack_context(hits, ds, budget):
    """Greedy packing that re-counts the whole joined context for every payload."""
    if budget < 1:
        raise ValueError("budget must be at least 1 token")
    text = ""
    used = 0
    included = []
    truncated = False
    seen = set()
    for ref in hits.refs.tolist():
        payload = ds.payloads[ds.payload_ids[ref]]
        if payload in seen:
            continue
        candidate = payload if not text else text + "\n" + payload
        count = count_tokens(candidate)
        if count <= budget:
            text, used = candidate, count
            seen.add(payload)
            included.append(ref)
            continue
        prefix = _oracle_truncate_join(text, payload, budget)
        if prefix:
            text = prefix if not text else text + "\n" + prefix
            used = count_tokens(text)
            included.append(ref)
        truncated = True
        break
    return PackedContext(text=text, included=included, truncated=truncated, token_count=used)


def _oracle_truncate_join(existing, payload, budget):
    """Longest token-boundary prefix of payload that keeps the joined text in budget."""
    if not existing:
        prefix, _ = oracle_truncate_to_token_budget(payload, budget)
        return prefix
    spans = token_spans(payload)
    lo, hi = 0, len(spans)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if count_tokens(existing + "\n" + payload[: spans[mid - 1][1]]) <= budget:
            lo = mid
        else:
            hi = mid - 1
    k = lo
    while k > 0 and count_tokens(existing + "\n" + payload[: spans[k - 1][1]]) > budget:
        k -= 1
    return payload[: spans[k - 1][1]].rstrip() if k else ""


def _oracle_answer_text(question, ds, threshold, embedder, gen_client, budgets, template):
    """One sweep cell from scratch: embed, search at the threshold, pack, generate."""
    query = embedder.embed_batch([question])[0]
    hits = search(ds, query, threshold)
    overhead = count_tokens(template.format(context="", question=question))
    context_budget = budgets.model_max_input - budgets.answer_reserve - overhead
    context = ""
    if hits and context_budget >= 1:
        context = oracle_pack_context(hits, ds, context_budget).text
    request = GenerationRequest(
        prompt=render_prompt(question, context, template),
        max_new_tokens=budgets.answer_reserve,
    )
    return gen_client.generate(request)


def oracle_run_sweep(cfg, testset, index, gen_client, embedder):
    """The per-threshold sweep loop: every cell embeds, searches, packs and generates."""
    ids = _question_ids(testset)
    results = {}
    for threshold in cfg.thresholds:
        rows = []
        failures = 0
        for qid, pair in zip(ids, testset.pairs):
            try:
                generated = _oracle_answer_text(pair.question, index, threshold, embedder,
                                                gen_client, cfg.budgets, cfg.template)
                rows.append(score_row(qid, generated, pair.answer_text, embedder))
            except RagmarkError as exc:
                log.warning("%s @ %.1f: %s; zero row", qid, threshold, exc)
                failures += 1
                _check_failures(failures, len(testset.pairs), cfg.failure_budget)
                rows.append(ScoreRow(qid, 0.0, 0.0, 0.0, 0.0))
        results[threshold] = rows
    return results


_ORACLE_WS_RE = re.compile(r"\s+")
_ORACLE_CONTENT_WORD_RE = re.compile(r"[a-z0-9]{4,}")


def oracle_normalize_question(question):
    """Dedup key by a whitespace regex: lowercase, collapse, strip the trailing '?'."""
    q = _ORACLE_WS_RE.sub(" ", question).strip().lower()
    return q[:-1].rstrip() if q.endswith("?") else q


def _oracle_questions_for(text, client, k):
    """One text's questions and synthetic flag, from one per-text client call."""
    seen, questions = set(), []
    for q in client.generate(text, k):
        if not isinstance(q, str):
            continue
        key = oracle_normalize_question(q)
        if key and key not in seen:
            seen.add(key)
            questions.append(q.strip())
    questions = questions[:k]
    if questions:
        return questions, False
    return [FALLBACK_QUESTION], True


class OracleMockQuestionGenClient:
    """The question mock one text per call, seeded by the byte-at-a-time ``fnv1a64``."""

    template = "What does the passage say about {}?"

    def __init__(self, seed=0):
        self.seed = seed

    def generate(self, paragraph_text, k):
        words = sorted(set(_ORACLE_CONTENT_WORD_RE.findall(paragraph_text.lower())))
        if not words:
            return []
        rng = random.Random(fnv1a64(paragraph_text.encode("utf-8")) ^ self.seed)
        picked = words if len(words) <= k else rng.sample(words, k)
        return [self.template.format(w) for w in picked]


def oracle_build_qa_dataset(paragraphs, client, k):
    """``build_qa_dataset`` over a per-text client, from threads sharing one queue.

    Client RagmarkErrors skip their paragraph with a warning, in paragraph
    order; any other exception stops the queue and is raised.
    """
    outcomes = [None] * len(paragraphs)
    queue = enumerate(paragraphs)
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i, paragraph = next(queue, (None, None))
            if paragraph is None:
                return
            try:
                outcomes[i] = _oracle_questions_for(paragraph.text, client, k)
            except BaseException as exc:
                outcomes[i] = exc
                if not isinstance(exc, RagmarkError):
                    with lock:
                        for _ in queue:
                            pass
                    return

    with ThreadPoolExecutor(max_workers=QUESTION_GEN_WORKERS) as pool:
        for _ in range(QUESTION_GEN_WORKERS):
            pool.submit(work)
    pairs = []
    for paragraph, outcome in zip(paragraphs, outcomes):
        if isinstance(outcome, RagmarkError):
            log.warning("skipping paragraph %s#%d: %s", paragraph.doc_id, paragraph.ordinal,
                        outcome)
            continue
        if isinstance(outcome, BaseException):
            raise outcome
        questions, synthetic = outcome
        pairs += [QAPair(q, (paragraph.doc_id, paragraph.ordinal), paragraph.text, synthetic)
                  for q in questions]
    if not pairs:
        raise RagmarkError("question generation failed for every paragraph")
    return QADataset(pairs=pairs)
