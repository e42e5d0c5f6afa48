"""Embedding contract and two interchangeable embedders.

``RemoteEmbedder`` talks to an HTTP sentence-embedding service.
``LocalHashEmbedder`` is a deterministic hashed bag-of-words stand-in so the
whole pipeline runs and tests offline. Both satisfy the same contract and
the vector dimension always comes from the embedder, never from callers.
A caller names the dtype it stores (an index keeps float32 keys), and the
vectors are written straight into one array of that dtype, so no wider
copy of a whole batch is made.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from .errors import (
    BadResponseError,
    EmbedderChangedError,
    ZeroVectorError,
)
from .wire import JsonEndpoint

if TYPE_CHECKING:
    import requests

_WORD_RE = re.compile(r"\w+")

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3

EMBED_RETRIES = 1  # transport retries per request, as gen.retries' default

# Texts counted at a time by LocalHashEmbedder: the block's counts stay
# about 1 MiB at dim 512 whatever the batch size.
EMBED_BLOCK_TEXTS = 256

# One numpy step of ``_fnv1a64_columns`` costs about as much as 24 bytes of
# ``fnv1a64``'s Python loop (2-vCPU VM), so hashing by byte position pays only
# when a step advances at least that many strings on average: total bytes at
# least this many times the longest string.
FNV_COLUMN_MIN_STRINGS = 24


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; stable across platforms and processes."""
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def fnv1a64_many(data: Sequence[bytes]) -> np.ndarray:
    """``fnv1a64`` of each byte string, as uint64.

    Many strings of like length are hashed a byte position at a time
    (``_fnv1a64_columns``); a few, or one much longer than the rest, are
    hashed byte by byte, which is then cheaper.
    """
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    if lengths.sum() < FNV_COLUMN_MIN_STRINGS * lengths.max(initial=0):
        return np.fromiter(map(fnv1a64, data), dtype=np.uint64, count=len(data))
    return _fnv1a64_columns(data, lengths)


def _fnv1a64_columns(data: Sequence[bytes], lengths: np.ndarray) -> np.ndarray:
    """``fnv1a64`` of each of ``data``, whose ``lengths`` are given; a numpy step a byte position.

    The strings are taken longest first, so step j updates the hashes of the
    leading strings longer than j with their j-th bytes. uint64 arithmetic
    wraps around, as the scalar mask does, so every hash is the same bits.
    """
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    flat = np.frombuffer(b"".join([data[i] for i in order.tolist()]), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    hashes = np.full(len(data), FNV64_OFFSET, dtype=np.uint64)
    prime = np.uint64(FNV64_PRIME)
    longest = int(lengths.max(initial=0))
    for j, count in enumerate(np.searchsorted(-lengths, -np.arange(longest)).tolist()):
        step = hashes[:count]  # the strings longer than j
        step ^= flat[starts[:count] + j]
        step *= prime
    out = np.empty_like(hashes)
    out[order] = hashes
    return out


class Embedder(Protocol):
    """Deterministic text-to-vector mapping with a declared dimension.

    ``embed_batch`` returns one finite array of shape ``(len(texts), dim)``
    and the given ``dtype``, row i embedding texts[i]. The rows in a
    narrower dtype are the float64 rows cast to it.
    """

    name: str
    dim: int

    def embed_batch(self, texts: Sequence[str], dtype=np.float64) -> np.ndarray: ...


class _WordBuckets(dict):
    """Lowercased word -> its FNV-1a 64 bucket, hashed on first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, word: str) -> int:
        bucket = self[word] = fnv1a64(word.encode("utf-8")) % self.dim
        return bucket


class LocalHashEmbedder:
    """Hashed bag-of-words embedder: no model, no network, fully deterministic.

    Each lowercase word is hashed (FNV-1a 64) to one of ``dim`` buckets;
    bucket counts are L2-normalized, so identical texts map to identical
    unit vectors. Each word is hashed once per instance: the vocabulary
    bounds the memo. A block of texts is counted at once with one
    ``bincount``; the counts are small integers, so each squared length is
    an exact sum and a row is bit-identical to dividing that text's counts
    by their ``np.linalg.norm``.
    """

    def __init__(self, dim: int = 64):
        if dim < 8:
            raise ValueError("dim must be at least 8")
        self.dim = dim
        self.name = f"local-hash-{dim}"
        self._buckets = _WordBuckets(dim)

    def embed_batch(self, texts: Sequence[str], dtype=np.float64) -> np.ndarray:
        out = np.empty((len(texts), self.dim), dtype=dtype)
        for start in range(0, len(texts), EMBED_BLOCK_TEXTS):
            self._embed_block(texts[start: start + EMBED_BLOCK_TEXTS],
                              out[start: start + EMBED_BLOCK_TEXTS])
        return out

    def _embed_block(self, texts: Sequence[str], out: np.ndarray) -> None:
        """Write the vectors of ``texts`` into ``out``; the block's counts die on return."""
        rows, dim = out.shape
        bucket_of = self._buckets.__getitem__
        buckets: list[int] = []
        word_counts = []
        for text in texts:
            words = _WORD_RE.findall(text.lower())
            if not words:
                raise ZeroVectorError(f"no embeddable words in {text!r}")
            buckets.extend(map(bucket_of, words))
            word_counts.append(len(words))
        # each word's cell in the block's flattened (rows, dim) counts; a
        # one-text block, as a query is, skips building the row offsets
        cells = buckets
        if rows > 1:
            cells = np.repeat(np.arange(0, rows * dim, dim), word_counts)
            cells += buckets
        counts = np.bincount(cells, minlength=rows * dim).reshape(rows, dim)
        norms = np.sqrt(np.vecdot(counts, counts))
        np.divide(counts, norms[:, None], out=out)


class RemoteEmbedder:
    """Client for an HTTP embedding service (POST /embed).

    Requests are split at ``batch_size`` and each checked response is
    written into the output, in input order, as it arrives; the dtype the
    caller stores changes no request. The declared dimension is learned
    from the first response; any later drift is an error, since
    mixed-dimension vectors poison an index.
    A transport failure or 5xx is retried ``EMBED_RETRIES`` times.
    This is where vectors enter the program, so every response is checked
    here once for count, shape and finiteness.
    """

    def __init__(
        self,
        endpoint: str,
        batch_size: int = 64,
        timeout_ms: int = 10000,
        session: requests.Session | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.endpoint = endpoint.rstrip("/")
        self.batch_size = batch_size
        self.name = f"remote:{self.endpoint}"
        self.dim: int | None = None
        self._http = JsonEndpoint(
            self.endpoint + "/embed", what="embedding", config="embed",
            timeout_ms=timeout_ms, retries=EMBED_RETRIES, session=session,
        )

    def embed_batch(self, texts: Sequence[str], dtype=np.float64) -> np.ndarray:
        texts = list(texts)
        for t in texts:
            if not t or not t.strip():
                raise ZeroVectorError("cannot embed empty text")
        out = None
        for start in range(0, len(texts), self.batch_size):
            vectors = self._embed_chunk(texts[start: start + self.batch_size])
            if out is None:  # the first response declares the dimension
                out = np.empty((len(texts), self.dim), dtype=dtype)
            out[start: start + len(vectors)] = vectors
        if out is None:
            return np.empty((0, self.dim or 0), dtype=dtype)
        return out

    def _embed_chunk(self, chunk: list[str]) -> np.ndarray:
        body = self._http.post({"texts": chunk})
        try:
            n_vectors = len(body["vectors"])
            dim = int(body["dim"])
            model = str(body.get("model", "unknown"))
            vectors = np.array(body["vectors"], dtype=np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            raise BadResponseError(f"malformed embedding response: {exc}") from exc
        if n_vectors != len(chunk):
            raise BadResponseError(
                f"asked for {len(chunk)} vectors, got {n_vectors}"
            )
        if self.dim is None:
            self.dim = dim
            self.name = model
        elif dim != self.dim:
            raise EmbedderChangedError(
                f"embedding dimension changed from {self.dim} to {dim} mid-run"
            )
        if vectors.shape != (len(chunk), self.dim):
            raise BadResponseError("vector length disagrees with declared dim")
        if not np.isfinite(vectors).all():
            raise BadResponseError("embedding contains non-finite values")
        return vectors


class CachingEmbedder:
    """An embedder that embeds each distinct batch once and then reuses its vectors.

    ``batches`` maps a batch's texts, in order, to what ``inner`` returned
    for it, so a cached result is bit-identical to a fresh call even for an
    embedder whose vectors depend on the rest of the batch. A failed call
    stores nothing. The stored arrays are float64, shared and read-only; a
    narrower ``dtype`` is a cast of them, as the contract makes a fresh call.
    """

    def __init__(self, inner: Embedder, batches: dict[tuple[str, ...], np.ndarray]):
        self.inner = inner
        self.batches = batches

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def dim(self) -> int:
        return self.inner.dim

    def embed_batch(self, texts: Sequence[str], dtype=np.float64) -> np.ndarray:
        key = tuple(texts)
        vectors = self.batches.get(key)
        if vectors is None:
            vectors = self.inner.embed_batch(texts)
            vectors.flags.writeable = False
            self.batches[key] = vectors
        return vectors.astype(dtype, copy=False)


def make_embedder(
    spec: str,
    *,
    batch_size: int = 64,
    timeout_ms: int = 10000,
) -> Embedder:
    """Build an embedder from a spec string.

    ``local`` or ``local:<dim>`` gives the hashing embedder (dim 64 by
    default); an http(s) URL gives the remote client.
    """
    local = re.fullmatch(r"local(?::(-?\d+))?", spec)
    if local:
        return LocalHashEmbedder(dim=int(local[1]) if local[1] else 64)
    if spec.startswith("http://") or spec.startswith("https://"):
        return RemoteEmbedder(spec, batch_size=batch_size, timeout_ms=timeout_ms)
    raise ValueError(f"unrecognized embedder spec: {spec!r}")
