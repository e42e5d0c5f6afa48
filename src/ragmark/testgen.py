"""Held-out test set construction from a sentence index.

Sentence embeddings are projected to 2D, density-clustered into topics,
outliers and over-budget clusters dropped, and each surviving cluster's
concatenated text becomes a reference answer with generated questions. The
reducer and clusterer are contracts; the shipped baselines (exact PCA,
DBSCAN) are deterministic so a fixed seed reproduces the set byte for byte.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .corpus import TokenCounter
from .errors import DegenerateCloudError, EmptyTestSetError, NoClustersError, PersistenceError
from .index import IndexedDataset, IndexKind
from .qagen import QAPair, QuestionGenClient, _usable_questions, decode_pair, encode_pair
from .wire import read_jsonl, write_jsonl

log = logging.getLogger(__name__)

CLUSTER_TOKEN_BUDGET = 256

# When density clustering yields more clusters than this, the smallest are
# merged into their nearest neighbor by centroid distance.
DEFAULT_MAX_CLUSTERS = 15
DEFAULT_MIN_PTS = 6

# Rows of the DBSCAN neighbour matrix computed per step in neighbor_matrix.
WITHIN_BLOCK_ROWS = 256


@dataclass
class ClusterParams:
    eps: float = 0.5
    min_pts: int = DEFAULT_MIN_PTS  # neighborhood size that makes a core point (self included)
    max_clusters: int = DEFAULT_MAX_CLUSTERS


@dataclass
class Cluster:
    id: int
    sentence_refs: list[int]  # entry indices into the source index
    concatenated_text: str
    token_count: int


@dataclass
class TestSet:
    pairs: list[QAPair]
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Dimensionality reduction
# ---------------------------------------------------------------------------

class Reducer(Protocol):
    name: str

    def reduce(self, matrix: np.ndarray, target_dim: int) -> np.ndarray: ...


class PcaReducer:
    """Exact PCA via eigendecomposition of the covariance matrix.

    Deterministic sign convention: each principal axis is flipped so its
    largest-magnitude component is positive. After ``reduce`` the instance
    exposes ``explained_variance_ratio_`` for the selected components.
    """

    name = "pca"

    def __init__(self):
        self.explained_variance_ratio_: np.ndarray | None = None

    def reduce(self, matrix: np.ndarray, target_dim: int) -> np.ndarray:
        x = np.asarray(matrix, dtype=np.float64)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        total = float(np.trace(cov))
        if total <= 1e-12:
            raise DegenerateCloudError("all points are identical; nothing to project")
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(-eigenvalues, kind="stable")[:target_dim]
        components = eigenvectors[:, order].T
        for i, component in enumerate(components):
            pivot = int(np.argmax(np.abs(component)))
            if component[pivot] < 0:
                components[i] = -component
        self.explained_variance_ratio_ = np.maximum(eigenvalues[order], 0.0) / total
        return centered @ components.T


def reduce_dim(
    vectors: np.ndarray,
    target_dim: int = 2,
    reducer: Reducer | None = None,
) -> np.ndarray:
    """Project an (n, dim) array of embedding vectors to (n, target_dim) (PCA by default)."""
    if len(vectors) < target_dim + 1:
        raise ValueError(f"need more than {target_dim} vectors to reduce")
    reducer = reducer or PcaReducer()
    return reducer.reduce(vectors, target_dim)


# ---------------------------------------------------------------------------
# Density clustering
# ---------------------------------------------------------------------------

def neighbor_matrix(pts: np.ndarray, eps: float) -> np.ndarray:
    """Boolean n x n matrix: squared distance of points i and j is at most eps**2.

    Built a block of rows at a time, so the float temporaries stay at
    WITHIN_BLOCK_ROWS x n rather than n x n per coordinate.
    """
    n = len(pts)
    within = np.empty((n, n), dtype=bool)
    for start in range(0, n, WITHIN_BLOCK_ROWS):
        block = pts[start: start + WITHIN_BLOCK_ROWS]
        sq = np.zeros((len(block), n))
        for axis in range(pts.shape[1]):
            d = block[:, None, axis] - pts[None, :, axis]
            d *= d
            sq += d
        within[start: start + WITHIN_BLOCK_ROWS] = sq <= eps ** 2
    return within


def cluster_points(
    points: np.ndarray, params: ClusterParams
) -> tuple[list[list[int]], list[int]]:
    """DBSCAN over 2D points: (clusters as sorted index lists, outlier indices).

    Deterministic for a fixed input order: seeds are visited in index order
    and ties always resolve to the lowest index. If more clusters form than
    ``params.max_clusters``, the smallest is merged into the cluster with the
    nearest centroid until the cap holds.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < params.min_pts:
        raise ValueError(f"need at least min_pts={params.min_pts} points, got {n}")

    within = neighbor_matrix(pts, params.eps)
    neighbor_counts = within.sum(axis=1)  # includes the point itself
    core = neighbor_counts >= params.min_pts

    labels = np.full(n, -1, dtype=int)
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != -1 or not core[seed]:
            continue
        frontier = [seed]
        labels[seed] = cluster_id
        while frontier:
            point = frontier.pop()
            if not core[point]:
                continue
            for neighbor in np.flatnonzero(within[point]):
                if labels[neighbor] == -1:
                    labels[neighbor] = cluster_id
                    frontier.append(int(neighbor))
        cluster_id += 1

    clusters = [sorted(np.flatnonzero(labels == c).tolist()) for c in range(cluster_id)]
    outliers = sorted(np.flatnonzero(labels == -1).tolist())
    if not clusters:
        raise NoClustersError("every point is an outlier at these parameters")

    clusters = _merge_to_cap(clusters, pts, params.max_clusters)
    return clusters, outliers


def _merge_to_cap(
    clusters: list[list[int]], pts: np.ndarray, max_clusters: int
) -> list[list[int]]:
    clusters = [sorted(c) for c in clusters]
    while len(clusters) > max_clusters:
        centroids = [pts[c].mean(axis=0) for c in clusters]
        smallest = min(range(len(clusters)), key=lambda i: (len(clusters[i]), i))
        others = [i for i in range(len(clusters)) if i != smallest]
        nearest = min(
            others,
            key=lambda i: (float(np.linalg.norm(centroids[i] - centroids[smallest])), i),
        )
        clusters[nearest] = sorted(clusters[nearest] + clusters[smallest])
        del clusters[smallest]
    return clusters


class DbscanClusterer:
    name = "dbscan"

    def __init__(self, params: ClusterParams | None = None):
        self.params = params or ClusterParams()

    def cluster(self, points: np.ndarray) -> tuple[list[list[int]], list[int]]:
        return cluster_points(points, self.params)

    def describe(self) -> dict:
        return {
            "clusterer": self.name,
            "eps": self.params.eps,
            "min_pts": self.params.min_pts,
            "max_clusters": self.params.max_clusters,
        }


class Clusterer(Protocol):
    name: str

    def cluster(self, points: np.ndarray) -> tuple[list[list[int]], list[int]]: ...

    def describe(self) -> dict: ...


# ---------------------------------------------------------------------------
# Test set assembly
# ---------------------------------------------------------------------------

def assemble_test_set(
    ds: IndexedDataset,
    reducer: Reducer,
    clusterer: Clusterer,
    counter: TokenCounter,
    qg_client: QuestionGenClient,
    *,
    questions_per_cluster: int = 5,
) -> TestSet:
    """reduce -> cluster -> drop outliers and over-budget clusters -> questions.

    Cluster text concatenates member sentences in their original corpus
    order. A cluster over the token budget under ``counter`` is dropped;
    questions follow the same dedup and fallback rules as the training
    pipeline.
    """
    if ds.kind is not IndexKind.SENTENCES:
        raise ValueError("test set generation needs a sentence-keyed index")
    points = reduce_dim(ds.keys, 2, reducer)
    raw_clusters, outliers = clusterer.cluster(points)
    if outliers:
        log.info("dropping %d outlier sentences", len(outliers))

    clusters: list[Cluster] = []
    for members in raw_clusters:
        ordered = sorted(members)
        text = " ".join(ds.entries[i].key_text for i in ordered)
        tokens = counter.count(text)
        if tokens > CLUSTER_TOKEN_BUDGET:
            log.info("dropping %d-token cluster (budget %d)", tokens, CLUSTER_TOKEN_BUDGET)
            continue
        clusters.append(
            Cluster(
                id=len(clusters),
                sentence_refs=ordered,
                concatenated_text=text,
                token_count=tokens,
            )
        )
    if not clusters:
        raise EmptyTestSetError("no cluster survived the token budget")

    pairs = []
    for cluster in clusters:
        questions, synthetic = _usable_questions(
            cluster.concatenated_text, qg_client, questions_per_cluster
        )
        for q in questions:
            pairs.append(
                QAPair(
                    question=q,
                    paragraph_ref=("cluster", cluster.id),
                    answer_text=cluster.concatenated_text,
                    synthetic=synthetic,
                )
            )

    params = {
        "reducer": reducer.name,
        **clusterer.describe(),
        "token_budget": CLUSTER_TOKEN_BUDGET,
        "embedder": ds.embedder_name,
        "questions_per_cluster": questions_per_cluster,
        "source_entries": len(ds.entries),
        "clusters": len(clusters),
        "outliers": len(outliers),
    }
    return TestSet(pairs=pairs, params=params)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _encode_test_pair(pair: QAPair) -> dict:
    return encode_pair(pair, cluster_id=pair.paragraph_ref[1])


def _decode_test_record(rec: dict) -> QAPair | dict:
    if "params" in rec:
        return rec["params"]
    return decode_pair(rec, ("cluster", int(rec["cluster_id"])))


def write_test_set_jsonl(ts: TestSet, path: str | Path) -> None:
    write_jsonl([{"params": ts.params}, *map(_encode_test_pair, ts.pairs)], path)


def read_test_set_jsonl(path: str | Path) -> TestSet:
    """The ``params`` header, when it is the first record, and the pairs after it."""
    records = read_jsonl(path, _decode_test_record)
    params = records.pop(0) if records and isinstance(records[0], dict) else {}
    if any(isinstance(rec, dict) for rec in records):
        raise PersistenceError(f"{path}: the params header must be the first record")
    return TestSet(pairs=records, params=params)
