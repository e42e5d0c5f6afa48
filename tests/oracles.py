"""Independent brute-force oracles used to cross-check the implementations.

Deliberately naive: list scans instead of count dictionaries, subsequence
enumeration instead of the LCS recurrence, per-pair python cosines instead
of the matrix scan, one n x n x 2 array instead of row blocks. Slow is fine;
different code paths are the point.
"""

import math

import numpy as np


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


def streaming_means(values):
    """Welford-style running mean."""
    mean = 0.0
    for i, v in enumerate(values, 1):
        mean += (v - mean) / i
    return mean
