import json
import math
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_search, oracle_unit_keys
from ragmark.corpus import Sentence
from ragmark.embed import LocalHashEmbedder
from ragmark.errors import ChecksumError, DimMismatchError, EmptyIndexError, PersistenceError
from ragmark.index import (
    NORM_BLOCK_ROWS,
    IndexedDataset,
    IndexEntry,
    IndexKind,
    build_question_index,
    build_sentence_index,
    hits_at,
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


def tiny_index(angles, kind=IndexKind.SENTENCES):
    entries = [IndexEntry(f"key{i}", f"payload{i}", ("doc", i)) for i in range(len(angles))]
    keys = np.array([unit(a) for a in angles])
    return IndexedDataset(kind=kind, entries=entries, embedder_name="hand", keys=keys)


class TestBuild:
    def test_sentence_index_bijection(self, embedder):
        ds = build_sentence_index(sentences(5), embedder)
        assert ds.kind is IndexKind.SENTENCES
        assert len(ds.entries) == 5
        assert all(e.payload_text == e.key_text for e in ds.entries)
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
        assert len(ds.entries) == 6
        assert ds.entries[0].payload_text == ds.entries[1].payload_text

    def test_duplicate_questions_distinct_paragraphs_both_kept(self, embedder):
        pairs = [
            QAPair("same question?", ("doc", 0), "first paragraph"),
            QAPair("same question?", ("doc", 1), "second paragraph"),
        ]
        ds = build_question_index(QADataset(pairs=pairs), embedder)
        query = embedder.embed_batch(["same question?"])[0]
        hits = search(ds, query, 0.5)
        assert len(hits) == 2
        assert hits[0].score == hits[1].score
        assert (hits[0].entry_ref, hits[1].entry_ref) == (0, 1)  # stable tie order

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
        assert [h.entry_ref for h in search(via_remote, query, 0.3)] == [
            h.entry_ref for h in search(via_local, query, 0.3)
        ]

    def test_key_rows_must_match_entries(self):
        entries = [IndexEntry("k", "p", ("d", 0))]
        with pytest.raises(DimMismatchError):
            IndexedDataset(IndexKind.SENTENCES, entries, "hand", np.ones((2, 3)))

    @given(
        rows=st.integers(1, 3 * NORM_BLOCK_ROWS + 5),
        dim=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_keys_match_whole_matrix_norm_bit_for_bit(self, rows, dim, seed, dtype):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-6, 7, size=(rows, 1))
        keys = (rng.standard_normal((rows, dim)) * scale).astype(dtype)
        entries = [IndexEntry("k", "p", ("d", 0))] * rows
        ds = IndexedDataset(IndexKind.SENTENCES, entries, "hand", keys)
        expected = oracle_unit_keys(keys)
        assert np.array_equal(ds.unit_keys.view(np.uint64), expected.view(np.uint64))

    def test_zero_vector_entries_skipped(self):
        class SometimesZero:
            name = "stub"
            dim = 2

            def embed_batch(self, texts):
                return np.array([[0.0, 0.0] if "ghost" in t else [1.0, 0.0] for t in texts])

        sents = [
            Sentence("d", 0, 0, "normal text here", 3),
            Sentence("d", 0, 1, "ghost text", 2),
        ]
        ds = build_sentence_index(sents, SometimesZero())
        assert len(ds.entries) == 1


class TestSearch:
    def test_threshold_zero_returns_everything(self):
        ds = tiny_index([0.0, math.pi / 3, math.pi])  # includes a negative-score entry
        hits = search(ds, unit(0.0), 0.0)
        assert len(hits) == 3
        assert hits[-1].score < 0

    def test_threshold_one_keeps_only_perfect_matches(self):
        ds = tiny_index([0.0, 0.1, math.pi / 2])
        hits = search(ds, unit(0.0), 1.0)
        assert [h.entry_ref for h in hits] == [0]
        assert hits[0].score >= 1.0 - 1e-9

    def test_known_angles_filtered_and_ordered(self):
        # cosines against query at angle 0: 0.9, 0.5, 0.3
        ds = tiny_index([math.acos(0.9), math.acos(0.5), math.acos(0.3)])
        hits = search(ds, unit(0.0), 0.5)
        assert [h.entry_ref for h in hits] == [0, 1]
        assert hits[0].score == pytest.approx(0.9, abs=1e-12)
        assert hits[1].score == pytest.approx(0.5, abs=1e-12)

    def test_descending_order_with_stable_ties(self):
        ds = tiny_index([0.2, 0.1, 0.2, 0.0])
        hits = search(ds, unit(0.0), 0.0)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        tied = [h.entry_ref for h in hits if abs(h.score - math.cos(0.2)) < 1e-12]
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
            assert hits_at(lowest, t) == search(ds, query, t)
        assert hits_at(search(ds, query, 0.5), 0.9) == search(ds, query, 0.9)

    def test_matches_bruteforce_oracle_pair_for_pair(self):
        rng = random.Random(1234)
        dim = 16
        entries, key_values = [], []
        for i in range(200):
            key_values.append(tuple(rng.gauss(0, 1) for _ in range(dim)))
            entries.append(IndexEntry(f"k{i}", f"p{i}", ("d", i)))
        ds = IndexedDataset(IndexKind.SENTENCES, entries, "rand", np.array(key_values))
        for t in (0.0, 0.12, 0.3, 0.55, 0.9, 1.0):
            query = tuple(rng.gauss(0, 1) for _ in range(dim))
            hits = search(ds, np.array(query), t)
            expected = oracle_search(key_values, query, t)
            assert [h.entry_ref for h in hits] == [i for _, i in expected]
            for hit, (score, _) in zip(hits, expected):
                assert hit.score == pytest.approx(score, abs=1e-9)


class TestPersistence:
    def test_roundtrip_identity(self, tmp_path, embedder):
        ds = build_sentence_index(sentences(3), embedder)
        path = tmp_path / "idx.jsonl"
        save_index(ds, path)
        loaded = load_index(path)
        assert loaded.kind == ds.kind
        assert loaded.embedder_name == ds.embedder_name
        assert loaded.dim == ds.dim
        assert loaded.entries == ds.entries
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
        assert loaded.entries == ds.entries
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
        # 10k x 512 keys: a 28 MiB file that loads into about 63 MiB of index
        n, dim = 10_000, 512
        rng = np.random.default_rng(5)
        entries = [IndexEntry(f"key sentence {i} about things", f"payload sentence {i} text",
                              ("doc", i)) for i in range(n)]
        ds = IndexedDataset(IndexKind.SENTENCES, entries, "rand",
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
        assert len(loaded.entries) == n
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
        text = path.read_text().replace('"format_version": 1', '"format_version": 99')
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
