"""Independent brute-force oracles used to cross-check the implementations.

Deliberately naive: list scans instead of count dictionaries, subsequence
enumeration instead of the LCS recurrence, per-pair python cosines instead
of the matrix scan, one n x n x 2 array and one whole-matrix norm instead
of row blocks, re-counting
the whole joined context per packed payload, and one search, pack and
generate per sweep cell. Slow is fine; different code paths are the point.
"""

import logging
import math

import numpy as np

from ragmark.corpus import WhitespacePunctCounter, token_spans, truncate_to_token_budget
from ragmark.errors import RagmarkError
from ragmark.experiment import _check_failures, _question_ids
from ragmark.generate import GenerationRequest
from ragmark.index import search
from ragmark.metrics import ScoreRow, score_row
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


def oracle_within(points, eps):
    """DBSCAN neighbour matrix in one shot, through the full n x n x 2 difference array."""
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return (diff ** 2).sum(axis=2) <= eps ** 2


def oracle_unit_keys(keys):
    """Rows of ``keys`` scaled to unit length in float64, with one norm over the whole matrix."""
    unit = keys.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    return unit


def streaming_means(values):
    """Welford-style running mean."""
    mean = 0.0
    for i, v in enumerate(values, 1):
        mean += (v - mean) / i
    return mean


def oracle_pack_context(hits, ds, counter, budget):
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
        count = counter.count(candidate)
        if count <= budget:
            text, used = candidate, count
            seen.add(payload)
            included.append(hit)
            continue
        prefix = _oracle_truncate_join(text, payload, counter, budget)
        if prefix:
            text = prefix if not text else text + "\n" + prefix
            used = counter.count(text)
            included.append(hit)
        truncated = True
        break
    return PackedContext(text=text, included=included, truncated=truncated, token_count=used)


def _oracle_truncate_join(existing, payload, counter, budget):
    """Longest token-boundary prefix of payload that keeps the joined text in budget."""
    if not existing:
        prefix, _ = truncate_to_token_budget(payload, counter, budget)
        return prefix
    spans = token_spans(payload)
    lo, hi = 0, len(spans)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if counter.count(existing + "\n" + payload[: spans[mid - 1][1]]) <= budget:
            lo = mid
        else:
            hi = mid - 1
    k = lo
    while k > 0 and counter.count(existing + "\n" + payload[: spans[k - 1][1]]) > budget:
        k -= 1
    return payload[: spans[k - 1][1]].rstrip() if k else ""


def _oracle_answer_text(question, ds, threshold, embedder, gen_client, budgets, template):
    """One sweep cell from scratch: embed, search at the threshold, pack, generate."""
    counter = WhitespacePunctCounter()
    query = embedder.embed_batch([question])[0]
    hits = search(ds, query, threshold)
    overhead = counter.count(template.format(context="", question=question))
    context_budget = budgets.model_max_input - budgets.answer_reserve - overhead
    context = ""
    if hits and context_budget >= 1:
        context = oracle_pack_context(hits, ds, counter, context_budget).text
    request = GenerationRequest(
        prompt=render_prompt(question, context, template),
        max_new_tokens=budgets.answer_reserve,
        temperature=0.0,
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
