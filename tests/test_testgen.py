import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_reduce_dim, oracle_within
from topicfix import EMBED_DIM, corpus_pipeline, make_oversize_topic_doc, make_topic_corpus
from ragmark.corpus import count_tokens
from ragmark.embed import LocalHashEmbedder
from ragmark.errors import DegenerateCloudError, EmptyTestSetError, NoClustersError, PersistenceError
from ragmark.index import build_sentence_index
from ragmark.qagen import MockQuestionGenClient, build_qa_dataset
from ragmark import testgen
from ragmark.testgen import (
    ClusterParams,
    assemble_test_set,
    cluster_points,
    neighbor_matrix,
    read_test_set_jsonl,
    reduce_dim,
    write_test_set_jsonl,
)


class TestPcaReducer:
    def test_exact_2d_subspace_preserved(self):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(2, 64))
        coords = rng.normal(size=(40, 2))
        cloud = coords @ basis
        points = reduce_dim(cloud, 2)
        centered = cloud - cloud.mean(axis=0)
        for i in range(0, 30, 7):
            for j in range(i + 1, 30, 5):
                original = float(np.linalg.norm(centered[i] - centered[j]))
                projected = float(np.linalg.norm(points[i] - points[j]))
                assert projected == pytest.approx(original, abs=1e-9)

    def test_identical_vectors_degenerate(self):
        vecs = np.array([[1.0, 2.0, 3.0]] * 5)
        with pytest.raises(DegenerateCloudError):
            reduce_dim(vecs, 2)

    def test_deterministic_with_sign_convention(self):
        rng = np.random.default_rng(8)
        cloud = rng.normal(size=(30, 6))
        a = reduce_dim(cloud, 2)
        b = reduce_dim(cloud, 2)
        assert np.array_equal(a, b)

    def test_too_few_vectors(self):
        with pytest.raises(ValueError):
            reduce_dim(np.array([[1.0, 0.0], [0.0, 1.0]]), 2)

    def test_output_length_matches_input(self):
        vecs = np.array([np.random.default_rng(i).normal(size=8) for i in range(9)])
        assert len(reduce_dim(vecs, 2)) == 9


def _load_bench_topics():
    """``bench/topics.py``, the benchmark's corpus generator (it imports nothing from ragmark)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "topics.py"
    spec = importlib.util.spec_from_file_location("bench_topics", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


bench_topics = _load_bench_topics()


def _topic_keys(topics, seed):
    corpus = bench_topics.make_corpus(seed, topics, 16)
    sentences = [s for topic in corpus.topics for s in topic.sentences]
    return LocalHashEmbedder(EMBED_DIM).embed_batch(sentences).astype(np.float32)


def _gapped_cloud(seed, n, dim):
    """n points near a 2-D plane: axis spreads 10 and 3, noise 0.1, so both axes are well defined."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    coords = rng.normal(size=(n, 2)) * [10.0, 3.0]
    return coords @ basis.T + rng.normal(0, 0.1, size=(n, dim)) + rng.normal(size=dim)


def _clusters(points, eps, min_pts=6):
    try:
        return cluster_points(points, ClusterParams(eps=eps, min_pts=min_pts))
    except NoClustersError:
        return None


def _assert_same_axes_up_to_sign(points, expected, tol=1e-9):
    assert points.shape == expected.shape
    for axis in range(points.shape[1]):
        a, b = points[:, axis], expected[:, axis]
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= tol


class TestReduceDimMatchesCovarianceOracle:
    """Fewer points than dimensions take the Gram path; the rest must be the oracle, bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_covariance_path_bit_identical(self, seed, dim, extra):
        cloud = np.random.default_rng(seed).normal(size=(dim + extra - 1, dim))
        assert np.array_equal(reduce_dim(cloud, 2), oracle_reduce_dim(cloud, 2))

    @given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_gram_path_same_axes_and_clusters(self, seed, n, extra):
        cloud = _gapped_cloud(seed, n, n + extra)
        points, expected = reduce_dim(cloud, 2), oracle_reduce_dim(cloud, 2)
        _assert_same_axes_up_to_sign(points, expected)
        for eps in (0.5, 2.0):
            assert _clusters(points, eps, min_pts=3) == _clusters(expected, eps, min_pts=3)

    @pytest.mark.parametrize("topics", [3, 4, 8, 20])
    def test_topic_corpora_same_axes_and_clusters(self, topics):
        for seed in range(5):
            keys = _topic_keys(topics, seed)
            assert len(keys) < keys.shape[1]
            points, expected = reduce_dim(keys, 2), oracle_reduce_dim(keys, 2)
            _assert_same_axes_up_to_sign(points, expected)
            for eps in (0.1, 0.2, 0.5):
                assert _clusters(points, eps) == _clusters(expected, eps)

    def test_identical_vectors_degenerate_with_fewer_points_than_dims(self):
        with pytest.raises(DegenerateCloudError):
            reduce_dim(np.full((5, 64), 0.1), 2)

    def test_collinear_cloud_gets_a_zero_second_axis(self):
        rng = np.random.default_rng(4)
        direction, offset = rng.normal(size=256), rng.normal(size=256)
        direction /= np.linalg.norm(direction)
        along = np.concatenate([rng.normal(-3, 0.2, 20), rng.normal(3, 0.2, 28)])
        cloud = along[:, None] * direction + offset  # rank 1, target 2
        points, expected = reduce_dim(cloud, 2), oracle_reduce_dim(cloud, 2)
        assert np.isfinite(points).all()
        assert np.array_equal(points[:, 1], np.zeros(len(cloud)))
        _assert_same_axes_up_to_sign(points, expected)
        clusters = _clusters(points, 2.0)
        assert clusters == _clusters(expected, 2.0)
        assert [len(c) for c in clusters[0]] == [20, 28]

    def test_peak_memory_at_48_by_4096(self):
        keys = np.random.default_rng(2).normal(size=(48, 4096)).astype(np.float32)
        tracemalloc.start()
        try:
            points = reduce_dim(keys, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert points.shape == (48, 2)
        assert peak < 8 * 2**20  # the 4096 x 4096 covariance alone is 128 MiB


class TestClusterPoints:
    def _blobs(self, centers, n_each=50, sigma=0.15, seed=1):
        rng = np.random.default_rng(seed)
        pts = []
        for cx, cy in centers:
            pts.extend((cx + rng.normal(0, sigma), cy + rng.normal(0, sigma)) for _ in range(n_each))
        return pts

    def test_two_separated_blobs_exact_partition(self):
        points = self._blobs([(0, 0), (10, 10)])
        clusters, outliers = cluster_points(points, ClusterParams(eps=1.0, min_pts=6))
        assert len(clusters) == 2
        assert outliers == []
        assert sorted(clusters[0]) == list(range(50))
        assert sorted(clusters[1]) == list(range(50, 100))

    def test_sparse_scatter_no_clusters(self):
        points = [(float(i * 7), float(i * 11 % 13)) for i in range(12)]
        with pytest.raises(NoClustersError):
            cluster_points(points, ClusterParams(eps=0.01, min_pts=6))

    def test_one_blob_three_isolated_outliers(self):
        points = self._blobs([(0, 0)], n_each=20) + [(50.0, 50.0), (-40.0, 10.0), (5.0, -60.0)]
        clusters, outliers = cluster_points(points, ClusterParams(eps=1.0, min_pts=6))
        assert len(clusters) == 1
        assert sorted(clusters[0]) == list(range(20))
        assert outliers == [20, 21, 22]

    def test_deterministic_for_fixed_order(self):
        points = self._blobs([(0, 0), (6, 6), (0, 8)], n_each=30)
        a = cluster_points(points, ClusterParams(eps=1.0, min_pts=5))
        b = cluster_points(points, ClusterParams(eps=1.0, min_pts=5))
        assert a == b

    def test_merge_down_to_max_clusters(self):
        points = self._blobs([(0, 0), (8, 0), (0, 8), (8, 8)], n_each=12, sigma=0.1)
        params = ClusterParams(eps=0.8, min_pts=4, max_clusters=2)
        clusters, outliers = cluster_points(points, params)
        assert len(clusters) == 2
        assert sum(len(c) for c in clusters) + len(outliers) == 48

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            cluster_points([(0.0, 0.0)], ClusterParams(eps=1.0, min_pts=6))


class TestNeighborMatrix:
    # Integer coordinates with eps 5 or 13 put many pairs exactly at distance
    # eps (3-4-5 and 5-12-13 triangles), where <= must still hold.
    @given(
        st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=80),
        st.sampled_from([0.0, 1.0, 5.0, 13.0]),
        st.sampled_from([1.0, 0.5, 0.1, 3.7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_one_shot_oracle_on_exact_eps_distances(self, coords, eps, scale):
        pts = np.array(coords, dtype=np.float64) * scale
        assert np.array_equal(neighbor_matrix(pts, eps * scale), oracle_within(pts, eps * scale))

    @given(
        st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=40
        ),
        st.floats(0.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_one_shot_oracle_on_arbitrary_floats(self, coords, eps):
        pts = np.array(coords, dtype=np.float64)
        assert np.array_equal(neighbor_matrix(pts, eps), oracle_within(pts, eps))

    def test_matches_oracle_across_row_blocks(self):
        n = 3 * testgen.WITHIN_BLOCK_ROWS + 17
        pts = np.random.default_rng(5).integers(-30, 30, size=(n, 2)).astype(np.float64)
        for eps in (5.0, 13.0, 0.3):
            assert np.array_equal(neighbor_matrix(pts, eps), oracle_within(pts, eps))

    def test_cluster_points_peak_memory_at_3000_points(self):
        rng = np.random.default_rng(9)
        centers = rng.uniform(-100, 100, size=(30, 2))
        pts = (centers[:, None, :] + rng.normal(0, 0.3, size=(30, 100, 2))).reshape(-1, 2)
        tracemalloc.start()
        try:
            clusters, _ = cluster_points(pts, ClusterParams(eps=0.5, min_pts=6, max_clusters=30))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(clusters) == 30
        assert peak < 40 * 2**20


class TestAssembleTestSet:
    def _fixture_index(self, with_oversize=False):
        docs, vocab = make_topic_corpus()
        if with_oversize:
            docs[1] = make_oversize_topic_doc(
                vocab[1][0] + vocab[1][1], doc_id="doc1"
            )
        _, sentences = corpus_pipeline(docs)
        embedder = LocalHashEmbedder(dim=EMBED_DIM)
        return build_sentence_index(sentences, embedder), vocab

    def test_three_topic_blobs_recovered_exactly(self):
        ds, _ = self._fixture_index()
        points = reduce_dim(ds.keys, 2)
        clusters, outliers = cluster_points(points, ClusterParams(eps=0.2, min_pts=6))
        assert outliers == []
        assert sorted(sorted(c) for c in clusters) == [
            list(range(0, 8)), list(range(8, 16)), list(range(16, 24))
        ]

    def test_assembles_pairs_with_cluster_answers(self):
        ds, _ = self._fixture_index()
        ts = assemble_test_set(
            ds, ClusterParams(eps=0.2, min_pts=6), MockQuestionGenClient(seed=1),
        )
        assert len(ts.pairs) >= 3
        answers = {p.answer_text for p in ts.pairs}
        assert len(answers) == 3
        assert all(count_tokens(a) <= 256 for a in answers)
        assert ts.params == {
            "reducer": "pca",
            "clusterer": "dbscan",
            "eps": 0.2,
            "min_pts": 6,
            "max_clusters": 15,
            "token_budget": 256,
            "embedder": f"local-hash-{EMBED_DIM}",
            "questions_per_cluster": 5,
            "source_entries": 24,
            "clusters": 3,
            "outliers": 0,
        }

    def test_oversize_cluster_excluded(self):
        ds, vocab = self._fixture_index(with_oversize=True)
        ts = assemble_test_set(
            ds, ClusterParams(eps=0.2, min_pts=6), MockQuestionGenClient(seed=1),
        )
        answers = {p.answer_text for p in ts.pairs}
        assert len(answers) == 2
        oversize_words = set(vocab[1][0])
        for text in answers:
            assert not oversize_words & set(w.lower().rstrip(".") for w in text.split())
        assert all(count_tokens(a) <= 256 for a in answers)

    def test_wrong_kind_rejected(self):
        docs, _ = make_topic_corpus()
        paragraphs, _ = corpus_pipeline(docs)
        embedder = LocalHashEmbedder(dim=EMBED_DIM)
        qa = build_qa_dataset(paragraphs, MockQuestionGenClient(seed=1), k=2)
        from ragmark.index import build_question_index

        idq = build_question_index(qa, embedder)
        with pytest.raises(ValueError):
            assemble_test_set(
                idq, ClusterParams(), MockQuestionGenClient(seed=1),
            )

    def test_all_clusters_oversize_is_error(self):
        docs, _ = make_topic_corpus(sentences_per_topic=24)  # 24 x 13 = 312 tokens a topic
        _, sentences = corpus_pipeline(docs)
        ds = build_sentence_index(sentences, LocalHashEmbedder(dim=EMBED_DIM))
        with pytest.raises(EmptyTestSetError):
            assemble_test_set(
                ds, ClusterParams(eps=0.2, min_pts=6), MockQuestionGenClient(seed=1),
            )

    def test_no_test_answer_equals_training_answer_verbatim(self):
        ds, _ = self._fixture_index()
        docs, _ = make_topic_corpus()
        paragraphs, _ = corpus_pipeline(docs)
        training = build_qa_dataset(paragraphs, MockQuestionGenClient(seed=1), k=3)
        ts = assemble_test_set(
            ds, ClusterParams(eps=0.2, min_pts=6), MockQuestionGenClient(seed=1),
        )
        training_answers = {p.answer_text for p in training.pairs}
        assert not training_answers & {p.answer_text for p in ts.pairs}

    def test_pipeline_determinism_byte_identical(self, tmp_path):
        paths = []
        for run in range(2):
            ds, _ = self._fixture_index()
            ts = assemble_test_set(
                ds, ClusterParams(eps=0.2, min_pts=6), MockQuestionGenClient(seed=4),
            )
            path = tmp_path / f"ts{run}.jsonl"
            write_test_set_jsonl(ts, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        from ragmark.qagen import QAPair

        ts = testgen.TestSet(
            pairs=[
                QAPair("Why one?", ("cluster", 0), "Cluster zero text."),
                QAPair("Why two?", ("cluster", 1), "Cluster one text."),
            ],
            params={"reducer": "pca", "eps": 0.2},
        )
        path = tmp_path / "testset.jsonl"
        write_test_set_jsonl(ts, path)
        loaded = read_test_set_jsonl(path)
        assert loaded.params == ts.params
        assert [(p.question, p.paragraph_ref, p.answer_text) for p in loaded.pairs] == [
            (p.question, p.paragraph_ref, p.answer_text) for p in ts.pairs
        ]

    def test_header_optional_but_only_first(self, tmp_path):
        pair = '{"question": "Why?", "answer_text": "Text.", "cluster_id": 4}\n'
        path = tmp_path / "testset.jsonl"
        path.write_text(pair)
        loaded = read_test_set_jsonl(path)
        assert loaded.params == {} and [p.paragraph_ref for p in loaded.pairs] == [("cluster", 4)]
        path.write_text(pair + '{"params": {}}\n')
        with pytest.raises(PersistenceError, match="first record"):
            read_test_set_jsonl(path)

    def test_synthetic_flag_survives_roundtrip(self, tmp_path):
        from ragmark.qagen import FALLBACK_QUESTION, QAPair

        ts = testgen.TestSet(
            pairs=[
                QAPair("Why one?", ("cluster", 0), "Cluster zero text."),
                QAPair(FALLBACK_QUESTION, ("cluster", 1), "Cluster one text.", synthetic=True),
            ],
            params={"reducer": "pca"},
        )
        path = tmp_path / "testset.jsonl"
        write_test_set_jsonl(ts, path)
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert "synthetic" not in records[0]
        assert records[1]["synthetic"] is True
        assert [p.synthetic for p in read_test_set_jsonl(path).pairs] == [False, True]
