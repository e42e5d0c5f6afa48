"""Independent brute-force oracles used to cross-check the implementations.

Deliberately naive: list scans instead of count dictionaries, subsequence
enumeration instead of the LCS recurrence, the rolling-row LCS DP instead of
the bit-parallel one, reference scans that re-stem every token instead of
per-word position stacks, per-pair python cosines instead of the matrix
scan, one n x n x 2 array and one whole-matrix norm instead of row blocks,
the dim x dim covariance instead of the n x n Gram matrix for PCA,
format-1 index files with one base64 vector per record instead of a raw
keys file, a binary search over token prefixes instead of a cut at the
budget-th token, re-counting the whole joined context per packed payload,
one ``RetrievalHit`` per ranked entry and a bisect over them instead of two
arrays and a vectorised cut, and one search, pack, generate and score per
sweep cell. Slow is fine; different code paths are the point.
"""

import base64
import bisect
import json
import logging
import math
import zlib
from pathlib import Path

import numpy as np

from ragmark.corpus import count_tokens, token_spans
from ragmark.errors import (
    ChecksumError,
    DegenerateCloudError,
    DimMismatchError,
    PersistenceError,
    RagmarkError,
)
from ragmark.experiment import _check_failures, _question_ids
from ragmark.generate import GenerationRequest
from ragmark.index import SCORE_EPS, IndexedDataset, IndexEntry, IndexKind, RetrievalHit, search
from ragmark.metrics import ScoreRow, _stem, score_row
from ragmark.retrieve import PackedContext, render_prompt

log = logging.getLogger(__name__)


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
    """The prefix of a list of RetrievalHits that passes ``threshold``, by bisection."""
    cut = bisect.bisect_left(hits, True, key=lambda h: _oracle_below_threshold(h.score, threshold))
    return hits[:cut]


def oracle_search_loop(ds, query, threshold):
    """The same scan and sort as ``search``, then one RetrievalHit per passing entry."""
    q = np.asarray(query, dtype=np.float64)
    scores = ds.unit_keys @ (q / np.linalg.norm(q))
    order = np.argsort(-scores, kind="stable")
    hits = []
    for i in order:
        s = float(scores[i])
        if _oracle_below_threshold(s, threshold):
            break  # scores only fall from here
        hits.append(RetrievalHit(score=s, entry_ref=int(i)))
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


def oracle_unit_keys(keys):
    """Rows of ``keys`` scaled to unit length in float64, with one norm over the whole matrix."""
    unit = keys.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    return unit


def oracle_save_index_v1(ds, path):
    """Format 1: header record, one record per entry with its key as base64 float32, CRC32 trailer."""
    lines = []
    header = {
        "format_version": 1,
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
    return IndexedDataset(kind=IndexKind(header["kind"]), entries=entries,
                          embedder_name=str(header["embedder_name"]), keys=keys)


def streaming_means(values):
    """Welford-style running mean."""
    mean = 0.0
    for i, v in enumerate(values, 1):
        mean += (v - mean) / i
    return mean


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
    for hit in hits:
        payload = ds.entries[hit.entry_ref].payload_text
        if payload in seen:
            continue
        candidate = payload if not text else text + "\n" + payload
        count = count_tokens(candidate)
        if count <= budget:
            text, used = candidate, count
            seen.add(payload)
            included.append(hit)
            continue
        prefix = _oracle_truncate_join(text, payload, budget)
        if prefix:
            text = prefix if not text else text + "\n" + prefix
            used = count_tokens(text)
            included.append(hit)
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
