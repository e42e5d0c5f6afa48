"""Held-out test set construction from a sentence index.

Sentence embeddings are projected to 2D by exact PCA (computed on the
smaller of the covariance and the Gram matrix), density-clustered into
topics by DBSCAN, outliers and over-budget clusters dropped, and each
surviving cluster's concatenated text becomes a reference answer with
generated questions. Both steps are deterministic, so a fixed seed
reproduces the set byte for byte.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import count_tokens
from .errors import DegenerateCloudError, EmptyTestSetError, NoClustersError, PersistenceError
from .index import IndexedDataset, IndexKind
from .qagen import QAPair, QuestionGenClient, decode_pair, encode_pair, questions_for
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

    def __post_init__(self):
        if not self.eps > 0:  # NaN fails too
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be at least 1, got {self.min_pts}")
        if self.max_clusters < 1:
            raise ValueError(f"max_clusters must be at least 1, got {self.max_clusters}")


@dataclass
class TestSet:
    pairs: list[QAPair]
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Dimensionality reduction
# ---------------------------------------------------------------------------

def reduce_dim(vectors: np.ndarray, target_dim: int = 2) -> np.ndarray:
    """Project an (n, dim) array of embedding vectors to (n, target_dim) by exact PCA.

    The principal axes come from an eigendecomposition of whichever of the
    dim x dim covariance and the n x n Gram matrix is smaller. With fewer
    vectors than dimensions (48 sentences of 512-dim keys at desk scale), the
    Gram matrix ``centered @ centered.T / (n - 1)`` has the same nonzero
    eigenvalues, and each of its eigenvectors ``u`` maps to the covariance
    axis ``centered.T @ u``, normalised. An axis along which the cloud has no
    spread (a rank-deficient cloud) projects every point to 0. Otherwise the
    covariance path runs unchanged.

    Deterministic sign convention: each axis is flipped so its
    largest-magnitude component is positive. When two components tie for
    the largest magnitude (on hashed bag-of-words keys, equal loadings on a
    topic's core-word buckets), rounding decides the sign, on either path.
    Clustering cannot tell: a flipped axis leaves every distance and
    centroid norm unchanged.
    """
    if len(vectors) < target_dim + 1:
        raise ValueError(f"need more than {target_dim} vectors to reduce")
    x = np.asarray(vectors, dtype=np.float64)
    centered = x - x.mean(axis=0)
    n, dim = x.shape
    gram_side = n < dim
    # covariance or Gram matrix; both have the cloud's variances as eigenvalues
    moments = (centered @ centered.T if gram_side else centered.T @ centered) / (n - 1)
    if float(np.trace(moments)) <= 1e-12:
        raise DegenerateCloudError("all points are identical; nothing to project")
    eigenvalues, eigenvectors = np.linalg.eigh(moments)
    order = np.argsort(-eigenvalues, kind="stable")[:target_dim]
    components = eigenvectors[:, order].T
    if gram_side:
        components = components @ centered  # row i: centered.T @ u_i
        # An eigenvalue at rounding level belongs to no axis: centered.T @ u
        # is then rounding noise inside the cloud's own span, and normalising
        # it would copy an earlier axis.
        spread = eigenvalues[order] > eigenvalues[order[0]] * dim * np.finfo(float).eps
        components[~spread] = 0.0
        components[spread] /= np.linalg.norm(components[spread], axis=1, keepdims=True)
    for i, component in enumerate(components):
        pivot = int(np.argmax(np.abs(component)))
        if component[pivot] < 0:
            components[i] = -component
    return centered @ components.T


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


# ---------------------------------------------------------------------------
# Test set assembly
# ---------------------------------------------------------------------------

def assemble_test_set(
    ds: IndexedDataset,
    params: ClusterParams,
    qg_client: QuestionGenClient,
    *,
    questions_per_cluster: int = 5,
) -> TestSet:
    """PCA to 2D -> DBSCAN -> drop outliers and over-budget clusters -> questions.

    Cluster text concatenates member sentences in their original corpus
    order. A cluster over the token budget is dropped; questions follow the
    same dedup and fallback rules as the training pipeline.
    """
    if questions_per_cluster < 1:
        raise ValueError(f"questions_per_cluster must be at least 1, got {questions_per_cluster}")
    if ds.kind is not IndexKind.SENTENCES:
        raise ValueError("test set generation needs a sentence-keyed index")
    points = reduce_dim(ds.keys, 2)
    raw_clusters, outliers = cluster_points(points, params)
    if outliers:
        log.info("dropping %d outlier sentences", len(outliers))

    texts: list[str] = []  # of the surviving clusters; a cluster's id is its position here
    for members in raw_clusters:
        text = " ".join(ds.entries[i].key_text for i in sorted(members))
        tokens = count_tokens(text)
        if tokens > CLUSTER_TOKEN_BUDGET:
            log.info("dropping %d-token cluster (budget %d)", tokens, CLUSTER_TOKEN_BUDGET)
            continue
        texts.append(text)
    if not texts:
        raise EmptyTestSetError("no cluster survived the token budget")

    pairs = []
    for cluster_id, text in enumerate(texts):
        questions, synthetic = questions_for(text, qg_client, questions_per_cluster)
        for q in questions:
            pairs.append(
                QAPair(
                    question=q,
                    paragraph_ref=("cluster", cluster_id),
                    answer_text=text,
                    synthetic=synthetic,
                )
            )

    header = {
        "reducer": "pca",
        "clusterer": "dbscan",
        "eps": params.eps,
        "min_pts": params.min_pts,
        "max_clusters": params.max_clusters,
        "token_budget": CLUSTER_TOKEN_BUDGET,
        "embedder": ds.embedder_name,
        "questions_per_cluster": questions_per_cluster,
        "source_entries": len(ds.entries),
        "clusters": len(texts),
        "outliers": len(outliers),
    }
    return TestSet(pairs=pairs, params=header)


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
