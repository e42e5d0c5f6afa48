"""Text-similarity scoring.

Four scores per (generated, reference) pair:

* bleu    - geometric mean of clipped n-gram precisions (n up to 4) with an
            epsilon smoothing floor, times a brevity penalty.
* rouge   - F1 over the longest common token subsequence.
* meteor  - one-to-one unigram alignment (exact match, then a suffix-strip
            stem match), harmonic mean weighted toward recall, discounted by
            a fragmentation penalty of 0.5 * (chunks / matches)^3.
* cs      - split both texts into sentences, embed them, and average each
            generated sentence's best cosine against the reference sentences.

All tokenization is lowercase words plus standalone punctuation, so every
score ignores letter case and trailing whitespace by construction.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import split_sentences, tokenize
from .embed import Embedder
from .errors import EmptyReferenceError, ZeroVectorError
from .wire import FlatRecord

log = logging.getLogger(__name__)

BLEU_SMOOTH_FLOOR = 1e-9
_LOG_SMOOTH_FLOOR = math.log(BLEU_SMOOTH_FLOOR)
METRIC_NAMES = ("rouge", "meteor", "bleu", "cs")

SCORE_CSV_HEADER = ["question_id", "rouge", "meteor", "bleu", "cs"]


@dataclass(frozen=True)
class ScoreRow:
    question_id: str
    rouge: float
    meteor: float
    bleu: float
    cs: float


def _tokens(text: str) -> list[str]:
    return tokenize(text.lower())


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def _ngrams(tokens: Sequence[str], n: int) -> Iterable:
    """The n-grams of ``tokens`` in order: a unigram is the token, a longer gram a tuple."""
    return tokens if n == 1 else zip(*[tokens[k:] for k in range(n)])


def bleu_tokens(cand: Sequence[str], ref: Sequence[str], max_n: int = 4) -> float:
    """BLEU on pre-tokenized input; see module docstring for the definition.

    Levels where the candidate has no n-grams at all are dropped from the
    geometric mean; a level with n-grams but zero matches contributes the
    smoothing floor instead of zeroing the whole score. Only reference
    n-grams that the candidate has are counted, and once a level matches
    nothing, no later one can (each longer gram holds a shorter one), so the
    remaining levels add the floor without counting.
    """
    if not cand:
        return 0.0
    levels = min(max_n, len(cand))
    log_sum = 0.0
    for n in range(1, levels + 1):
        cand_counts: dict = {}
        for gram in _ngrams(cand, n):
            cand_counts[gram] = cand_counts.get(gram, 0) + 1
        ref_counts = dict.fromkeys(cand_counts, 0)
        for gram in _ngrams(ref, n):
            if gram in ref_counts:
                ref_counts[gram] += 1
        clipped = sum(map(min, cand_counts.values(), ref_counts.values()))
        if not clipped:
            for _ in range(n, levels + 1):  # one floor per level, in order: the same sum
                log_sum += _LOG_SMOOTH_FLOOR
            break
        log_sum += math.log(clipped / (len(cand) - n + 1))
    score = math.exp(log_sum / levels)
    c, r = len(cand), len(ref)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return score * brevity


def bleu(candidate: str, reference: str, max_n: int = 4) -> float:
    return bleu_tokens(_tokens(candidate), _tokens(reference), max_n)


# ---------------------------------------------------------------------------
# ROUGE
# ---------------------------------------------------------------------------

def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel over Python ints.

    Allison-Dix/Hyyro: ``v`` holds one row of the DP over the longer sequence
    as its steps, a zero bit at position i where the row rises by one, so the
    zero bits count the LCS. One add, subtract and or per token of the shorter
    sequence advance the whole row. Gives exactly the rolling-row DP's value.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_tokens(cand: Sequence[str], ref: Sequence[str]) -> float:
    if not cand or not ref:
        return 0.0
    lcs = lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


def rouge(candidate: str, reference: str) -> float:
    """Headline ROUGE: F1 over the longest common subsequence of tokens."""
    return rouge_tokens(_tokens(candidate), _tokens(reference))


# ---------------------------------------------------------------------------
# METEOR
# ---------------------------------------------------------------------------

_STEM_SUFFIXES = ("ing", "es", "ed", "ly", "s")


def _stem(word: str) -> str:
    for suffix in _STEM_SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            return word[: -len(suffix)]
    return word


def _align(cand: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int]]:
    """Greedy one-to-one alignment: exact matches first, then stem matches.

    Candidates are scanned left to right and take the earliest unmatched
    reference token, which keeps the alignment deterministic. Within a pass,
    the tokens of one word (or stem) are taken in reference order, so each
    pass hands out a per-word stack of free positions. Reference stems are
    computed once, and only when the exact pass leaves a candidate unmatched.
    """
    free: dict[str, list[int]] = {}
    for ri in range(len(ref) - 1, -1, -1):  # descending, so pop() gives the earliest
        free.setdefault(ref[ri], []).append(ri)
    pairs: dict[int, int] = {}
    unmatched: list[int] = []
    for ci, word in enumerate(cand):
        slots = free.get(word)
        if slots:
            pairs[ci] = slots.pop()
        else:
            unmatched.append(ci)
    if unmatched:
        taken = set(pairs.values())
        free = {}
        for ri in range(len(ref) - 1, -1, -1):
            if ri not in taken:
                free.setdefault(_stem(ref[ri]), []).append(ri)
        for ci in unmatched:
            slots = free.get(_stem(cand[ci]))
            if slots:
                pairs[ci] = slots.pop()
    return sorted(pairs.items())


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev_ci = prev_ri = None
    for ci, ri in pairs:
        if prev_ci is None or ci != prev_ci + 1 or ri != prev_ri + 1:
            chunks += 1
        prev_ci, prev_ri = ci, ri
    return chunks


def meteor(candidate: str, reference: str) -> float:
    cand, ref = _tokens(candidate), _tokens(reference)
    if not cand or not ref:
        return 0.0
    pairs = _align(cand, ref)
    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(cand)
    recall = matches / len(ref)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (_chunk_count(pairs) / matches) ** 3
    return f_mean * (1.0 - penalty)


# ---------------------------------------------------------------------------
# Embedding-based best-match score
# ---------------------------------------------------------------------------

def cs_score(generated: str, reference: str, embedder: Embedder) -> float:
    """Mean over generated sentences of the best cosine against any reference sentence."""
    g_sentences = split_sentences(generated)
    r_sentences = split_sentences(reference)
    if not r_sentences:
        raise EmptyReferenceError("reference text has no sentences")
    if not g_sentences:
        log.warning("generated text has no sentences; scoring 0.0")
        return 0.0
    g_vecs = np.asarray(embedder.embed_batch(g_sentences), dtype=np.float64)
    r_vecs = np.asarray(embedder.embed_batch(r_sentences), dtype=np.float64)
    # each pair's cosine, the dot product over both lengths, with each length taken once
    cosines = (np.vecdot(g_vecs[:, None], r_vecs[None])
               / np.multiply.outer(_lengths(g_vecs), _lengths(r_vecs)))
    return math.fsum(cosines.max(axis=1)) / len(g_vecs)


def _lengths(vectors: np.ndarray) -> np.ndarray:
    lengths = np.sqrt(np.vecdot(vectors, vectors))
    if not lengths.all():
        raise ZeroVectorError("cosine is undefined for zero-norm vectors")
    return lengths


# ---------------------------------------------------------------------------
# Row assembly and persistence
# ---------------------------------------------------------------------------

def score_row(question_id: str, generated: str, reference: str, embedder: Embedder) -> ScoreRow:
    """All four metrics for one question; empty generated text scores a zero row."""
    if not generated or not generated.strip() or not reference or not reference.strip():
        log.warning("empty text for %s; emitting a zero row", question_id)
        return ScoreRow(question_id, 0.0, 0.0, 0.0, 0.0)
    return ScoreRow(
        question_id=question_id,
        rouge=rouge(generated, reference),
        meteor=meteor(generated, reference),
        bleu=bleu(generated, reference),
        cs=cs_score(generated, reference, embedder),
    )


def write_score_rows_csv(rows: Iterable[ScoreRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_CSV_HEADER)
        for row in rows:
            writer.writerow([row.question_id, repr(row.rouge), repr(row.meteor),
                             repr(row.bleu), repr(row.cs)])


_SCORE_ROW = FlatRecord(ScoreRow)


def write_score_rows_jsonl(rows: Iterable[ScoreRow], path: str | Path) -> None:
    _SCORE_ROW.write(rows, path)


def read_score_rows_jsonl(path: str | Path) -> list[ScoreRow]:
    return _SCORE_ROW.read(path)
