import base64
import json
import math
import random
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    IndexEntry,
    dataset_of,
    entries_of,
    oracle_hits_at,
    oracle_load_index,
    oracle_load_index_v1,
    oracle_save_index_v1,
    oracle_norms,
    oracle_save_index,
    oracle_search,
    oracle_search_gemv,
    oracle_search_loop,
)
from ragmark.corpus import Sentence
from ragmark import index as index_module
from ragmark.embed import EMBED_BLOCK_TEXTS, LocalHashEmbedder
from ragmark.errors import ChecksumError, DimMismatchError, EmptyIndexError, PersistenceError
from ragmark.index import (
    FORMAT_VERSION,
    ROW_BLOCK_BYTES,
    SAVE_CHUNK_BYTES,
    SCORE_EPS,
    Hits,
    IndexKind,
    build_question_index,
    build_sentence_index,
    hits_at,
    keys_path,
    load_index,
    save_index,
    search,
)
from ragmark.qagen import QADataset, QAPair


# Reference corpus scales this design is sized for: exact scan stays the
# right call up to the largest of these. One sentence-index entry per kept
# sentence, one question-index entry per generated question, and test sets
# in the few-hundred-pair range.
REFERENCE_SCALES = {
    "corpus_a": {"paragraphs": 7058, "questions": 28790, "indexed_sentences": 37874},
    "corpus_b": {"paragraphs": 8553, "questions": 27974, "indexed_sentences": 40002},
    "corpus_c": {"paragraphs": 18004, "questions": 58290, "indexed_sentences": 56861},
}
REFERENCE_TESTSET_PAIRS = 279


def test_reference_scales_fit_the_exact_scan_design():
    assert max(s["indexed_sentences"] for s in REFERENCE_SCALES.values()) < 60_000
    assert max(s["questions"] for s in REFERENCE_SCALES.values()) < 60_000
    # oversampling yields at least one question per paragraph
    assert all(s["questions"] >= s["paragraphs"] for s in REFERENCE_SCALES.values())
    assert REFERENCE_TESTSET_PAIRS < 1000


def sentences(n=5):
    return [
        Sentence("doc", 0, i, f"sentence number {i} talks about thing{i} loudly", 7)
        for i in range(n)
    ]


def unit(angle):
    return np.array([math.cos(angle), math.sin(angle)])


class RawJson(str):
    """A line that ``reseal`` writes as it is, not as a JSON string."""


def reseal(path, edit):
    """Apply ``edit`` to the decoded header and entry records of ``path``, with a valid trailer."""
    records = [json.loads(line) for line in path.read_bytes().split(b"\n")[:-2]]
    edit(records)
    body = "".join((rec if isinstance(rec, RawJson) else json.dumps(rec, sort_keys=True)) + "\n"
                   for rec in records).encode()
    path.write_bytes(body + json.dumps({"crc32": zlib.crc32(body) & 0xFFFFFFFF}).encode() + b"\n")


def _rows_around_a_block(dim):
    """Row counts on both sides of one and two blocks of float64 rows at ``dim``, and any other."""
    block = max(1, ROW_BLOCK_BYTES // (8 * dim))
    edges = [rows for rows in (block - 1, block, block + 1, 2 * block, 2 * block + 1) if rows]
    return st.sampled_from(edges) | st.integers(1, 3 * block + 5)


def _scaled_keys(rows, dim, seed, dtype):
    """Normal draws, each row scaled by its own power of ten."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-6, 7, size=(rows, 1))
    return (rng.standard_normal((rows, dim)) * scale).astype(dtype)


def tiny_index(angles, kind=IndexKind.SENTENCES):
    entries = [IndexEntry(f"key{i}", f"payload{i}", ("doc", i)) for i in range(len(angles))]
    keys = np.array([unit(a) for a in angles])
    return dataset_of(kind, entries, "hand", keys)


# Texts with unicode, newlines and JSON-special characters; float32 keys with
# -0.0, subnormals and magnitudes near the float32 limit.
TEXTS = st.text(max_size=12) | st.sampled_from(
    ["line one\nline two", 'quote " and \\ slash', "\u2028\u00e9\U0001f600", "\r\n\t", ""])
FLOAT32S = st.floats(width=32, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028235e38, -3.4028235e38])


class TestBuild:
    def test_sentence_index_bijection(self, embedder):
        ds = build_sentence_index(sentences(5), embedder)
        assert ds.kind is IndexKind.SENTENCES
        assert len(ds.key_texts) == 5
        assert all(e.payload_text == e.key_text for e in entries_of(ds))
        assert ds.dim == embedder.dim
        assert ds.embedder_name == embedder.name

    def test_empty_input_rejected(self, embedder):
        with pytest.raises(EmptyIndexError):
            build_sentence_index([], embedder)

    def test_question_index_payloads_repeat_per_paragraph(self, embedder):
        pairs = []
        for i in range(3):
            for j in range(2):
                pairs.append(QAPair(f"question {i} {j}?", ("doc", i), f"paragraph text {i}"))
        ds = build_question_index(QADataset(pairs=pairs), embedder)
        assert ds.kind is IndexKind.QUESTIONS
        assert len(ds.key_texts) == 6
        assert ds.payloads == [f"paragraph text {i}" for i in range(3)]  # each held once
        assert ds.payload_ids == [0, 0, 1, 1, 2, 2]

    def test_duplicate_questions_distinct_paragraphs_both_kept(self, embedder):
        pairs = [
            QAPair("same question?", ("doc", 0), "first paragraph"),
            QAPair("same question?", ("doc", 1), "second paragraph"),
        ]
        ds = build_question_index(QADataset(pairs=pairs), embedder)
        query = embedder.embed_batch(["same question?"])[0]
        hits = search(ds, query, 0.5)
        assert len(hits) == 2
        assert hits.scores[0] == hits.scores[1]
        assert hits.refs.tolist() == [0, 1]  # stable tie order

    def test_remote_embedder_interchangeable_with_local(self, http_stub):
        from ragmark.embed import LocalHashEmbedder, RemoteEmbedder

        local = LocalHashEmbedder(dim=32)

        def app(path, payload):
            vectors = local.embed_batch(payload["texts"]).tolist()
            return 200, {"vectors": vectors, "dim": 32, "model": local.name}

        remote = RemoteEmbedder(http_stub(app))
        via_local = build_sentence_index(sentences(4), local)
        via_remote = build_sentence_index(sentences(4), remote)
        assert via_remote.embedder_name == via_local.embedder_name
        assert via_remote.dim == via_local.dim
        query = remote.embed_batch(["sentence number 2 talks"])[0]
        assert (search(via_remote, query, 0.3).refs.tolist()
                == search(via_local, query, 0.3).refs.tolist())

    def test_key_rows_must_match_entries(self):
        entries = [IndexEntry("k", "p", ("d", 0))]
        with pytest.raises(DimMismatchError):
            dataset_of(IndexKind.SENTENCES, entries, "hand", np.ones((2, 3)))

    @given(
        dim=st.integers(1, 24) | st.sampled_from([512, 1000, 4096]),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_norms_match_whole_matrix_norm_bit_for_bit(self, dim, seed, dtype, data):
        keys = _scaled_keys(data.draw(_rows_around_a_block(dim)), dim, seed, dtype)
        ds = dataset_of(IndexKind.SENTENCES, [IndexEntry("k", "p", ("d", 0))] * len(keys),
                        "hand", keys)
        assert np.array_equal(ds.norms.view(np.uint64), oracle_norms(keys).view(np.uint64))

    @given(
        dim=st.sampled_from([512, 1000, 4096]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_loaded_norms_match_whole_matrix_norm_bit_for_bit(self, dim, seed, data):
        keys = _scaled_keys(data.draw(_rows_around_a_block(dim)), dim, seed, np.float32)
        ds = dataset_of(IndexKind.SENTENCES, [IndexEntry("k", "p", ("d", 0))] * len(keys),
                        "hand", keys)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(ds, Path(tmp) / "idx.jsonl")
            loaded = load_index(Path(tmp) / "idx.jsonl")
        assert np.array_equal(loaded.norms.view(np.uint64), oracle_norms(keys).view(np.uint64))

    def test_search_peak_memory_is_one_block_and_the_ranking(self):
        # the scan widens one block of rows at a time into one reused float64 buffer
        rng = np.random.default_rng(3)
        n, dim = 1000, 512
        keys = rng.standard_normal((n, dim)).astype(np.float32)
        ds = dataset_of(IndexKind.SENTENCES, [IndexEntry("k", "p", ("d", 0))] * n, "rand", keys)
        query = rng.standard_normal(dim)
        tracemalloc.start()
        try:
            hits = search(ds, query, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = min(n, ROW_BLOCK_BYTES // (8 * dim)) * dim * 8
        assert len(hits) == n
        assert peak < block + hits.scores.nbytes + hits.refs.nbytes + 2**20

    def test_build_peak_memory_is_the_float32_keys_and_one_embed_block(self):
        # the keys are embedded straight into float32: no float64 (n, dim) matrix
        n, dim = 2000, 512
        sents = [Sentence("d", i // 10, i % 10, f"sentence {i} about thing{i % 97} and more", 6)
                 for i in range(n)]
        embedder = LocalHashEmbedder(dim)
        tracemalloc.start()
        try:
            ds = build_sentence_index(sents, embedder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.keys.dtype == np.float32 and ds.keys.shape == (n, dim)
        assert peak < ds.keys.nbytes + EMBED_BLOCK_TEXTS * dim * 8 + 2**20

    def test_zero_vector_entries_skipped(self):
        class SometimesZero:
            name = "stub"
            dim = 2

            def embed_batch(self, texts, dtype=np.float64):
                return np.array([[0.0, 0.0] if "ghost" in t else [1.0, 0.0] for t in texts],
                                dtype=dtype)

        sents = [
            Sentence("d", 0, 0, "normal text here", 3),
            Sentence("d", 0, 1, "ghost text", 2),
        ]
        ds = build_sentence_index(sents, SometimesZero())
        assert len(ds.key_texts) == 1

    def test_entries_whose_float32_key_is_zero_skipped(self):
        # nonzero in float64, all zeros once stored as float32: load_index would refuse it
        class Underflow:
            name = "stub"
            dim = 2

            def embed_batch(self, texts, dtype=np.float64):
                return np.array([[1e-50, 0.0] if "tiny" in t else [0.0, 1.0] for t in texts],
                                dtype=dtype)

        sents = [Sentence("d", 0, i, text, 2) for i, text in enumerate(["tiny one", "big one"])]
        ds = build_sentence_index(sents, Underflow())
        assert ds.key_texts == ["big one"] and ds.doc_ids == ["d"] and ds.ordinals == [0]
        assert ds.keys.tolist() == [[0.0, 1.0]] and ds.norms.tolist() == [1.0]


def _pairs(hits):
    """A ``Hits`` ranking as (score, ref) pairs, the form the oracles return."""
    return list(zip(hits.scores.tolist(), hits.refs.tolist()))


class TestSearch:
    def test_threshold_zero_returns_everything(self):
        ds = tiny_index([0.0, math.pi / 3, math.pi])  # includes a negative-score entry
        hits = search(ds, unit(0.0), 0.0)
        assert len(hits) == 3
        assert hits.scores[-1] < 0

    def test_threshold_one_keeps_only_perfect_matches(self):
        ds = tiny_index([0.0, 0.1, math.pi / 2])
        hits = search(ds, unit(0.0), 1.0)
        assert hits.refs.tolist() == [0]
        assert hits.scores[0] >= 1.0 - 1e-9

    def test_known_angles_filtered_and_ordered(self):
        # cosines against query at angle 0: 0.9, 0.5, 0.3
        ds = tiny_index([math.acos(0.9), math.acos(0.5), math.acos(0.3)])
        hits = search(ds, unit(0.0), 0.5)
        assert hits.refs.tolist() == [0, 1]
        assert hits.scores[0] == pytest.approx(0.9, abs=1e-12)
        assert hits.scores[1] == pytest.approx(0.5, abs=1e-12)

    def test_descending_order_with_stable_ties(self):
        ds = tiny_index([0.2, 0.1, 0.2, 0.0])
        hits = search(ds, unit(0.0), 0.0)
        scores = hits.scores.tolist()
        assert scores == sorted(scores, reverse=True)
        tied = [ref for score, ref in _pairs(hits) if abs(score - math.cos(0.2)) < 1e-12]
        assert tied == [0, 2]

    def test_cardinality_monotone_nonincreasing_in_threshold(self, embedder):
        ds = build_sentence_index(sentences(30), embedder)
        query = embedder.embed_batch(["sentence number 3 talks"])[0]
        sizes = [len(search(ds, query, t / 10)) for t in range(11)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 30

    def test_dim_mismatch(self):
        ds = tiny_index([0.0])
        with pytest.raises(DimMismatchError):
            search(ds, np.array([1.0, 0.0, 0.0]), 0.5)

    def test_threshold_range_validated(self):
        ds = tiny_index([0.0])
        with pytest.raises(ValueError):
            search(ds, unit(0.0), 1.5)

    def test_hits_at_is_the_search_at_that_threshold(self):
        rng = random.Random(77)
        ds = tiny_index([math.acos(0.9), math.acos(0.5), 0.4, math.acos(0.5), 2.0, math.pi])
        query = unit(0.0)
        lowest = search(ds, query, 0.0)
        edges = [0.5 - 2e-9, 0.5 - 5e-10, 0.5, 0.5 + 5e-10, 0.5 + 2e-9]
        for t in [0.0, 0.9, 1.0] + edges + [rng.random() for _ in range(50)]:
            assert _pairs(hits_at(lowest, t)) == _pairs(search(ds, query, t))
        assert _pairs(hits_at(search(ds, query, 0.5), 0.9)) == _pairs(search(ds, query, 0.9))

    def test_matches_bruteforce_oracle_pair_for_pair(self):
        rng = random.Random(1234)
        dim = 16
        entries, key_values = [], []
        for i in range(200):
            key_values.append(tuple(rng.gauss(0, 1) for _ in range(dim)))
            entries.append(IndexEntry(f"k{i}", f"p{i}", ("d", i)))
        ds = dataset_of(IndexKind.SENTENCES, entries, "rand", np.array(key_values))
        for t in (0.0, 0.12, 0.3, 0.55, 0.9, 1.0):
            query = tuple(rng.gauss(0, 1) for _ in range(dim))
            hits = search(ds, np.array(query), t)
            expected = oracle_search(key_values, query, t)
            assert hits.refs.tolist() == [i for _, i in expected]
            for found, (score, _) in zip(hits.scores.tolist(), expected):
                assert found == pytest.approx(score, abs=1e-9)


# Key components: a small pool makes proportional rows and exact score ties
# common; the float32 draws cover everything else.
KEY_VALUES = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0]) | st.floats(
    -10, 10, width=32, allow_nan=False, allow_infinity=False)


def _thresholds_around(scores):
    """0.0, 1.0, each score, score +- SCORE_EPS, and the float neighbours of all of those."""
    out = {0.0, 1.0}
    for s in scores:
        for edge in (s, s - SCORE_EPS, s + SCORE_EPS):
            out.update((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)))
    return sorted(t for t in out if 0.0 <= t <= 1.0)


def _bits(pairs):
    return [(score.hex(), ref) for score, ref in pairs]


class TestSearchMatchesLoopOracle:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_ranking_bit_for_bit(self, data):
        dim = data.draw(st.integers(2, 5))
        row = st.lists(KEY_VALUES, min_size=dim, max_size=dim).filter(lambda r: any(r))
        rows = data.draw(st.lists(row, min_size=1, max_size=10))
        for _ in range(data.draw(st.integers(0, 3))):  # duplicate rows: exact ties
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(rows)))
        keys = np.array(rows, dtype=np.float32)
        entries = [IndexEntry(f"k{i}", f"p{i}", ("d", i)) for i in range(len(rows))]
        ds = dataset_of(IndexKind.SENTENCES, entries, "rand", keys)
        query = np.array(data.draw(st.sampled_from(rows) | row), dtype=np.float64)

        lowest = search(ds, query, 0.0)
        assert _bits(_pairs(lowest)) == _bits(oracle_search_loop(ds, query, 0.0))
        for t in _thresholds_around(lowest.scores.tolist()):
            expected = oracle_search_loop(ds, query, t)
            found = search(ds, query, t)
            assert _bits(_pairs(found)) == _bits(expected)
            assert _bits(_pairs(hits_at(lowest, t))) == _bits(_pairs(found))
            assert oracle_hits_at(_pairs(lowest), t) == expected


def _dense_keys(rows, dim, seed):
    """Dense float32 rows, as a remote embedder gives: every component nonzero."""
    return np.random.default_rng(seed).standard_normal((rows, dim)).astype(np.float32)


def _scores_by_entry(hits):
    scores = np.empty(len(hits))
    scores[hits.refs] = hits.scores
    return scores


def _index_of(keys):
    """An index with row i of ``keys`` as entry i's key."""
    entries = [IndexEntry(f"k{i}", f"p{i}", ("d", i)) for i in range(len(keys))]
    return dataset_of(IndexKind.SENTENCES, entries, "dense", keys)


DIMS = st.integers(1, 24) | st.sampled_from([512, 1000, 4096])

# The scan of a fixed dense 12,500 x 512 index; writes every entry's score to argv[1].
SCAN_SCRIPT = """
import sys
import numpy as np
from ragmark.index import IndexedDataset, IndexKind, search

rng = np.random.default_rng(2024)
keys = rng.standard_normal((12_500, 512)).astype(np.float32)
n = len(keys)
ds = IndexedDataset.from_columns(IndexKind.SENTENCES, [""] * n, [""] * n, [""] * n, [0] * n,
                                 "dense", keys)
hits = search(ds, rng.standard_normal(512), 0.0)
scores = np.empty(n)
scores[hits.refs] = hits.scores
np.save(sys.argv[1], scores)
"""


class TestRowLocalScan:
    """A key's score depends on its own row alone."""

    @given(dim=DIMS, seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sub_index_scores_equal_the_full_index_scores(self, dim, seed, data):
        keys = _dense_keys(data.draw(_rows_around_a_block(dim)), dim, seed)
        kept = np.flatnonzero(np.random.default_rng(seed).random(len(keys)) < 0.5)
        if not len(kept):
            kept = np.array([len(keys) - 1])
        query = np.random.default_rng(seed + 1).standard_normal(dim)
        full = _scores_by_entry(search(_index_of(keys), query, 0.0))
        sub = _scores_by_entry(search(_index_of(keys[kept]), query, 0.0))
        assert np.array_equal(sub.view(np.uint64), full[kept].view(np.uint64))

    @given(dim=DIMS, seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_identical_dense_rows_keep_insertion_order(self, dim, seed, data):
        rows = data.draw(_rows_around_a_block(dim))
        keys = np.repeat(_dense_keys(1, dim, seed), rows, axis=0)
        query = np.random.default_rng(seed + 1).standard_normal(dim)
        hits = search(_index_of(keys), query, 0.0)
        assert hits.refs.tolist() == list(range(rows))
        assert len(set(hits.scores.tolist())) == 1

    @given(dim=DIMS, seed=st.integers(0, 2**32 - 1), dense=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scores_within_1e_15_of_the_whole_matrix_gemv(self, dim, seed, dense, data):
        rows = data.draw(_rows_around_a_block(dim))
        if dense:
            keys = _dense_keys(rows, dim, seed)
            query = np.random.default_rng(seed + 1).standard_normal(dim)
        else:  # sparse hashed bags of words, the local embedder's keys
            embedder = LocalHashEmbedder(dim=max(dim, 8))
            texts = [f"entry {i} words thing{i % 7} more{i % 3}" for i in range(rows)]
            keys = embedder.embed_batch(texts).astype(np.float32)
            query = embedder.embed_batch(["entry 2 words thing2"])[0]
        ds = _index_of(keys)
        got = _scores_by_entry(search(ds, query, 0.0))
        want = _scores_by_entry(oracle_search_gemv(ds, query, 0.0))
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_same_score_bits_at_one_and_two_blas_threads(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        scores = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"scores{threads}.npy"
            done = subprocess.run([sys.executable, "-c", SCAN_SCRIPT, str(out)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr[-2000:]
            scores.append(np.load(out))
        differ = np.count_nonzero(scores[0].view(np.uint64) != scores[1].view(np.uint64))
        assert differ == 0, f"{differ} of {len(scores[0])} scores changed with the thread count"


class TestHits:
    def test_two_arrays_cut_together(self):
        hits = Hits(np.array([0.9, 0.5, 0.5 - SCORE_EPS, -0.25]), np.array([2, 0, 3, 1]))
        assert len(hits) == 4
        assert not any(hasattr(hits, name) for name in ("__getitem__", "__iter__"))
        assert "__eq__" not in vars(Hits)
        assert _pairs(hits_at(hits, 0.0)) == _pairs(hits)
        assert _pairs(hits_at(hits, 0.5)) == [(0.9, 2), (0.5, 0), (0.5 - SCORE_EPS, 3)]
        assert _pairs(hits_at(hits, 0.9)) == [(0.9, 2)]
        cut = hits_at(hits, 1.0)
        assert not cut and len(cut.refs) == 0


DELETE = object()

# Edits that break one entry record: the whole record replaced by another JSON
# value, a field deleted, or a field given a value of the wrong type.
BAD_EDITS = st.sampled_from(
    [("", value) for value in ([1, 2], "text", 3, None, True, 1.5, [])]
    + [(name, DELETE) for name in ("key_text", "payload_text", "doc_id", "ordinal")]
    + [("key_text", 1), ("key_text", None), ("key_text", ["a"]), ("payload_text", {"a": "b"}),
       ("payload_text", False), ("doc_id", 7), ("doc_id", True), ("ordinal", "3"),
       ("ordinal", 1.5), ("ordinal", 1.0), ("ordinal", True), ("ordinal", None)]
)

# Records with repeated payloads, texts that need JSON escapes and big ordinals.
RECORDS = st.lists(
    st.tuples(TEXTS, st.sampled_from(["shared", "", "line\nbreak"]) | TEXTS,
              st.text(max_size=4), st.integers(-2**70, 2**70)),
    min_size=1, max_size=8,
)


def _saved(rows, path):
    keys = np.arange(1, 3 * len(rows) + 1, dtype=np.float32).reshape(len(rows), 3)
    entries = [IndexEntry(k, p, (d, o)) for k, p, d, o in rows]
    save_index(dataset_of(IndexKind.QUESTIONS, entries, "e", keys), path)
    return entries, keys


class TestLoadMatchesRecordOracle:
    @given(rows=RECORDS)
    @settings(max_examples=100, deadline=None)
    def test_same_columns_as_one_entry_per_record(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "idx.jsonl"
            entries, keys = _saved(rows, path)
            got = load_index(path)
            header, want, want_keys = oracle_load_index(path)
        assert want == entries and entries_of(got) == want
        assert got.payloads == list(dict.fromkeys(e.payload_text for e in want))
        assert (got.kind.value, got.embedder_name) == (header["kind"], header["embedder_name"])
        assert np.array_equal(got.keys.view(np.uint32), want_keys.view(np.uint32))

    @given(rows=RECORDS, edits=st.lists(st.tuples(st.integers(0, 7), BAD_EDITS),
                                        min_size=1, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_same_error_for_a_malformed_record(self, rows, edits):
        bad_lines = set()

        def edit(records):
            for i, (name, value) in edits:
                line = 1 + i % len(rows)  # records[0] is the header
                bad_lines.add(line + 1)
                if not name:
                    records[line] = value
                elif not isinstance(records[line], dict):
                    continue  # an earlier edit replaced the whole record: it stays bad
                elif value is DELETE:
                    records[line].pop(name, None)
                else:
                    records[line][name] = value

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "idx.jsonl"
            _saved(rows, path)
            reseal(path, edit)
            with pytest.raises(PersistenceError) as got:
                load_index(path)
            with pytest.raises(PersistenceError) as want:
                oracle_load_index(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}:{min(bad_lines)}: ")


class TestPersistence:
    def test_roundtrip_identity(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        loaded = load_index(path)
        assert loaded.kind == ds.kind
        assert loaded.embedder_name == ds.embedder_name
        assert loaded.dim == ds.dim
        assert entries_of(loaded) == entries_of(ds)
        assert loaded.keys.dtype == ds.keys.dtype == np.float32
        assert np.array_equal(loaded.keys, ds.keys)

    def test_truncated_file_fails_checksum(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((ChecksumError, PersistenceError)):
            load_index(path)

    def test_missing_final_newline_still_loads(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        loaded = load_index(path)
        assert entries_of(loaded) == entries_of(ds)
        assert np.array_equal(loaded.keys, ds.keys)

    @pytest.mark.parametrize("keep", ["nothing", "newline", "header", "header_and_half_entry",
                                      "all_but_trailer"])
    def test_truncated_anywhere_fails_checksum(self, tmp_path, embedder, keep):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        data = path.read_bytes()
        header_end = data.index(b"\n") + 1
        cut = {
            "nothing": 0,
            "newline": None,
            "header": header_end,
            "header_and_half_entry": header_end + 40,
            "all_but_trailer": data.rstrip(b"\n").rindex(b"\n") + 1,
        }[keep]
        path.write_bytes(b"\n" if cut is None else data[:cut])
        with pytest.raises(ChecksumError):
            load_index(path)

    @pytest.mark.parametrize("trailer", [b"not json\n", b'{"crc": 1}\n', b'{"crc32": "x"}\n',
                                         b'{"crc32": 12345}\n', b"[1]\n", b"\n\n"])
    def test_corrupt_trailer_fails_checksum(self, tmp_path, embedder, trailer):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        data = path.read_bytes()
        body_end = data.rstrip(b"\n").rindex(b"\n") + 1
        path.write_bytes(data[:body_end] + trailer)
        with pytest.raises(ChecksumError):
            load_index(path)

    def test_entry_count_must_match_header(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        lines = path.read_bytes().split(b"\n")[:-2]  # header and entries, trailer dropped
        body = b"".join(line + b"\n" for line in lines[:-1])  # one entry short
        trailer = json.dumps({"crc32": zlib.crc32(body) & 0xFFFFFFFF}).encode() + b"\n"
        path.write_bytes(body + trailer)
        with pytest.raises(PersistenceError, match="promises 3 entries, found 2"):
            load_index(path)

    def test_load_peak_memory_stays_under_twice_the_index(self, tmp_path):
        # 10k x 512 keys: a 20 MiB keys file beside a 1.2 MiB .jsonl, which
        # load into about 63 MiB of index
        n, dim = 10_000, 512
        rng = np.random.default_rng(5)
        entries = [IndexEntry(f"key sentence {i} about things", f"payload sentence {i} text",
                              ("doc", i)) for i in range(n)]
        ds = dataset_of(IndexKind.SENTENCES, entries, "rand",
                        rng.standard_normal((n, dim)).astype(np.float32))
        path = tmp_path / "big.jsonl"
        save_index(ds, path)
        del ds, entries
        tracemalloc.start()
        try:
            loaded = load_index(path)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.key_texts) == n
        assert peak < 2 * size

    def test_corrupted_byte_fails_checksum(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        data = bytearray(path.read_bytes())
        pos = data.index(b"payload"[0], 50)
        data[pos] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load_index(path)

    def test_kind_surfaced_for_caller(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        loaded = load_index(path)
        assert loaded.kind is IndexKind.SENTENCES  # caller decides what to do with it

    def test_version_mismatch_rejected(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(2), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        text = path.read_text().replace(f'"format_version": {FORMAT_VERSION}', '"format_version": 99')
        # recompute a valid checksum so only the version check can fail
        import json
        import zlib

        lines = text.splitlines()
        body = "".join(line + "\n" for line in lines[:-1]).encode()
        trailer = json.dumps({"crc32": zlib.crc32(body) & 0xFFFFFFFF}) + "\n"
        path.write_bytes(body + trailer.encode())
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_keys_roundtrip_exactly_at_float32(self, tmp_path):
        emb = LocalHashEmbedder(dim=16)
        raw = emb.embed_batch(["some words to embed"])[0]
        sents = [Sentence("d", 0, 0, "some words to embed", 4)]
        ds = build_sentence_index(sents, emb)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        loaded = load_index(path)
        # keys live at the on-disk float32 precision, so the trip is exact
        expected = tuple(float(v) for v in np.asarray(raw, dtype=np.float32))
        assert tuple(loaded.keys[0].tolist()) == expected
        assert np.array_equal(loaded.keys[0], ds.keys[0])

    def test_keys_file_travels_beside_the_index(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        assert keys_path(path) == tmp_path / "idx.jsonl.f32"
        assert keys_path(path).read_bytes() == ds.keys.astype("<f4").tobytes()
        assert json.loads(path.read_bytes().split(b"\n")[0])["keys_crc32"] == zlib.crc32(
            keys_path(path).read_bytes())

    def test_missing_keys_file_is_persistence_error_naming_it(self, tmp_path, embedder):
        path = tmp_path / "idx.jsonl"
        save_index(build_sentence_index(sentences(3), embedder), path)
        keys_path(path).unlink()
        with pytest.raises(PersistenceError, match=re.escape(str(keys_path(path)))):
            load_index(path)

    @pytest.mark.parametrize("damage", ["truncated", "extra-byte", "flipped-byte", "swapped"])
    def test_damaged_keys_file_fails_checksum(self, tmp_path, embedder, damage):
        path = tmp_path / "idx.jsonl"
        save_index(build_sentence_index(sentences(3), embedder), path)
        data = keys_path(path).read_bytes()
        if damage == "truncated":
            data = data[: len(data) // 2]
        elif damage == "extra-byte":
            data += b"\x00"
        elif damage == "flipped-byte":
            data = bytearray(data)
            data[len(data) // 2] ^= 0x01
        else:
            other = [Sentence("doc", 0, i, f"other words {i} about unrelated matters", 6)
                     for i in range(3)]
            save_index(build_sentence_index(other, embedder), tmp_path / "other.jsonl")
            swapped = keys_path(tmp_path / "other.jsonl").read_bytes()
            assert len(swapped) == len(data) and swapped != data
            data = swapped
        keys_path(path).write_bytes(bytes(data))
        with pytest.raises(ChecksumError, match=re.escape(str(keys_path(path)))):
            load_index(path)

    def test_format_1_index_must_be_rebuilt(self, tmp_path, embedder):
        path = tmp_path / "idx.jsonl"
        oracle_save_index_v1(build_sentence_index(sentences(3), embedder), path)
        with pytest.raises(PersistenceError, match="rebuild it with `ragmark index`") as info:
            load_index(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("line, field, value", [
        (0, "dim", None), (0, "count", None), (0, "kind", None), (0, "keys_crc32", None),
        (0, "kind", "paragraphs"),
        (1, "", [1, 2]),
        (2, "payload_text", None),
        (1, "ordinal", "3"),
        (3, "ordinal", 1.5),
        (1, "", RawJson('{"a": 1}, {"b": 2}')),
        # Line 2 holds two records and the third runs over lines 3 and 4, so the
        # lines hold as many records as the header promises.
        (2, "split", ['{"doc_id": "d", "key_text": "c', 'd", "ordinal": 2, "payload_text": "cd"}']),
        (2, "split", ['{"doc_id": "d", "key_text": "c}', '{d", "ordinal": 2, "payload_text": "cd"}']),
        (2, "split", ['{"doc_id": "d", "key_text": "c"', '"ordinal": 2, "payload_text": "cd"}']),
        (2, "split", ['{"doc_id": "d", "extra": [{"a": 1}',
                      '{"b": 2}], "key_text": "c", "ordinal": 2, "payload_text": "cd"}']),
        (1, "padded", None),
    ], ids=["no-dim", "no-count", "no-kind", "no-keys-crc", "unknown-kind", "record-not-object",
            "record-without-payload", "string-ordinal", "float-ordinal", "two-values-on-a-line",
            "string-over-a-line-end", "string-over-a-line-end-between-braces",
            "record-split-after-a-value", "array-field-over-two-lines", "padded-line"])
    def test_malformed_but_checksum_valid_is_persistence_error(self, tmp_path, embedder,
                                                                line, field, value):
        path = tmp_path / "idx.jsonl"
        save_index(build_sentence_index(sentences(3), embedder), path)

        def edit(records):
            if field == "split":
                two = [json.dumps(rec, sort_keys=True) for rec in records[1:3]]
                records[1:] = [RawJson(", ".join(two)), *map(RawJson, value)]
            elif field == "padded":
                records[line] = RawJson(f" {json.dumps(records[line], sort_keys=True)}")
            elif not field:
                records[line] = value
            elif value is None:
                del records[line][field]
            else:
                records[line][field] = value

        reseal(path, edit)
        with pytest.raises(PersistenceError, match=re.escape(str(path))) as info:
            load_index(path)
        assert not isinstance(info.value, ChecksumError)
        if field in ("split", "padded"):
            assert str(info.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf, -np.inf],
                             ids=["zero-row", "nan", "infinity", "minus-infinity"])
    def test_key_row_without_a_direction_is_persistence_error(self, tmp_path, embedder, value):
        path = tmp_path / "idx.jsonl"
        save_index(build_sentence_index(sentences(3), embedder), path)
        keys = np.fromfile(keys_path(path), dtype="<f4").reshape(3, -1)
        if value == 0.0:
            keys[2] = 0.0
        else:
            keys[2, 1] = value
        keys_path(path).write_bytes(keys.tobytes())
        reseal(path, lambda records: records[0].update(keys_crc32=zlib.crc32(keys.tobytes())))
        with pytest.raises(PersistenceError) as info:
            load_index(path)
        assert not isinstance(info.value, ChecksumError)
        assert str(info.value).startswith(f"{keys_path(path)}: key row 2 ")
        assert f"{path}:4" in str(info.value)

    @given(
        rows=st.lists(st.tuples(TEXTS, TEXTS, st.text(max_size=6), st.integers(-2**40, 2**40)),
                      max_size=6),
        dim=st.integers(1, 5),
        kind=st.sampled_from(list(IndexKind)),
        dtype=st.sampled_from([np.float32, np.float64]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_equals_the_format_1_oracle(self, rows, dim, kind, dtype, data):
        key_row = st.lists(FLOAT32S, min_size=dim, max_size=dim).filter(
            lambda r: any(v != 0.0 for v in r))
        keys = np.array([data.draw(key_row) for _ in rows], dtype=dtype).reshape(len(rows), dim)
        entries = [IndexEntry(k, p, (d, o)) for k, p, d, o in rows]
        ds = dataset_of(kind, entries, "hypothesis\nembedder", keys)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "v2.jsonl", Path(tmp) / "v1.jsonl"
            save_index(ds, new)
            oracle_save_index_v1(ds, old)
            got, want = load_index(new), oracle_load_index_v1(old)
            v1_rows = [base64.b64decode(json.loads(line)["vec_b64"])
                       for line in old.read_bytes().split(b"\n")[1:-2]]
            assert keys_path(new).read_bytes() == b"".join(v1_rows)
        assert (got.kind, got.embedder_name, entries_of(got)) == (
            want.kind, want.embedder_name, entries_of(want))
        assert got.keys.dtype == want.keys.dtype == np.float32
        assert np.array_equal(got.keys.view(np.uint32), want.keys.view(np.uint32))
        assert np.array_equal(got.norms.view(np.uint64), want.norms.view(np.uint64))
        assert np.array_equal(got.norms.view(np.uint64), oracle_norms(got.keys).view(np.uint64))

    @given(
        rows=st.lists(st.tuples(TEXTS, TEXTS, st.text(max_size=6), st.integers(-2**40, 2**40)),
                      max_size=12),
        kind=st.sampled_from(list(IndexKind)),
        chunk=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_streamed_save_writes_the_one_body_oracle_bytes(self, rows, kind, chunk, seed):
        keys = np.random.default_rng(seed).standard_normal((len(rows), 3)).astype(np.float32)
        entries = [IndexEntry(k, p, (d, o)) for k, p, d, o in rows]
        ds = dataset_of(kind, entries, "hypothesis\nembedder", keys)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.jsonl", Path(tmp) / "old.jsonl"
            with mock.patch.object(index_module, "SAVE_CHUNK_BYTES", chunk):
                save_index(ds, new)
            oracle_save_index(ds, old)
            assert new.read_bytes() == old.read_bytes()
            assert keys_path(new).read_bytes() == keys_path(old).read_bytes()

    def test_save_peak_memory_is_a_few_chunks_not_the_file(self, tmp_path):
        # 20 paragraphs of about 1,000 characters shared by 5,000 question keys: a
        # 5.8 MB file, written a chunk at a time
        n, dim = 5000, 8
        paragraphs = [f"paragraph {j} " + "words of the paragraph " * 45 for j in range(20)]
        entries = [IndexEntry(f"What does paragraph {i % 20} say about thing {i}?",
                              paragraphs[i % 20], ("doc", i % 20)) for i in range(n)]
        ds = dataset_of(IndexKind.QUESTIONS, entries, "rand",
                        np.random.default_rng(7).standard_normal((n, dim)).astype(np.float32))
        path = tmp_path / "big.jsonl"
        tracemalloc.start()
        try:
            save_index(ds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 2 * SAVE_CHUNK_BYTES
        assert path.stat().st_size > 8 * bound
        assert peak < bound

    def test_save_peak_memory_stays_under_one_and_a_half_times_the_bytes_written(self, tmp_path):
        n, dim = 10_000, 512
        rng = np.random.default_rng(6)
        entries = [IndexEntry(f"key sentence {i} about things", f"payload sentence {i} text",
                              ("doc", i)) for i in range(n)]
        ds = dataset_of(IndexKind.SENTENCES, entries, "rand",
                        rng.standard_normal((n, dim)).astype(np.float32))
        path = tmp_path / "big.jsonl"
        tracemalloc.start()
        try:
            save_index(ds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (path.stat().st_size + keys_path(path).stat().st_size)
