import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_local_hash_embed
from oracles import oracle_pair_cosine as cosine
from topicfix import word_bucket
from ragmark import embed
from ragmark.embed import (
    _WORD_RE,
    EMBED_BLOCK_TEXTS,
    FNV_COLUMN_MIN_STRINGS,
    CachingEmbedder,
    LocalHashEmbedder,
    RemoteEmbedder,
    _fnv1a64_columns,
    fnv1a64,
    fnv1a64_many,
    make_embedder,
)
from ragmark.errors import (
    BadResponseError,
    DimMismatchError,
    EmbedderChangedError,
    TransportError,
    ZeroVectorError,
)
from ragmark.wire import CHUNK_ROWS


def vec(*values):
    return np.array(values, dtype=np.float64)


class TestCosine:
    """The reference cosine that the embedder tests and cs_score's check measure with."""

    def test_identity(self):
        assert cosine(vec(1, 0, 0), vec(1, 0, 0)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(vec(1, 0), vec(0, 1)) == 0.0

    def test_45_degrees(self):
        assert cosine(vec(1, 0), vec(1, 1)) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine(vec(0, 0), vec(1, 0))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimMismatchError):
            cosine(vec(1, 0), vec(1, 0, 0))

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
    @settings(max_examples=100)
    def test_self_similarity_is_one(self, values):
        assume(math.sqrt(math.fsum(v * v for v in values)) > 1e-6)
        x = vec(*values)
        assert cosine(x, x) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.floats(0.01, 100),
    )
    @settings(max_examples=100)
    def test_scale_invariance_and_symmetry(self, a, b, alpha):
        assume(math.sqrt(math.fsum(v * v for v in a)) > 1e-6)
        assume(math.sqrt(math.fsum(v * v for v in b)) > 1e-6)
        x, y = vec(*a), vec(*b)
        scaled = vec(*(alpha * v for v in a))
        assert cosine(scaled, y) == pytest.approx(cosine(x, y), abs=1e-12)
        assert cosine(x, y) == pytest.approx(cosine(y, x), abs=1e-12)


class TestLocalHashEmbedder:
    def test_deterministic_identical_texts(self):
        a, b = LocalHashEmbedder(64).embed_batch(["The same text", "the same  text"])
        assert cosine(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_unit_norms(self):
        vectors = LocalHashEmbedder(32).embed_batch(["one two three", "four five", "six"])
        for v in vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_vocabulary_orthogonal(self):
        emb = LocalHashEmbedder(dim=4096)
        words_a, words_b = ["apple", "banana", "cherry"], ["delta", "echo", "foxtrot"]
        buckets_a = {word_bucket(w, emb.dim) for w in words_a}
        buckets_b = {word_bucket(w, emb.dim) for w in words_b}
        assert not buckets_a & buckets_b  # verified disjoint before asserting zero
        a, b = emb.embed_batch([" ".join(words_a), " ".join(words_b)])
        assert cosine(a, b) == 0.0

    def test_partial_overlap_strictly_between(self):
        a, b = LocalHashEmbedder(4096).embed_batch(["a b c", "a b d"])
        assert 0.0 < cosine(a, b) < 1.0

    def test_empty_text_rejected(self):
        with pytest.raises(ZeroVectorError):
            LocalHashEmbedder(64).embed_batch(["ok text", "???"])

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            LocalHashEmbedder(dim=4)

    def test_batch_is_one_n_by_dim_array(self):
        out = LocalHashEmbedder(16).embed_batch(["one two", "three", "four five six"])
        assert out.shape == (3, 16)
        assert out.dtype == np.float64

    def test_warm_word_memo_gives_the_hashed_vectors_bit_for_bit(self):
        texts = ["Apple apple APPLE pie", "pie and cream", "Ünïcode wörds, pie too"]
        expected = oracle_local_hash_embed(texts, 64)
        emb = LocalHashEmbedder(64)
        assert np.flatnonzero(emb.embed_batch(["PIE"])[0]).tolist() == [fnv1a64(b"pie") % 64]
        for _ in range(2):  # the second pass reads every bucket from the memo
            got = emb.embed_batch(texts)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_fnv1a64_known_values(self):
        # reference values for the 64-bit FNV-1a parameters
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def assert_hashes_match(data):
    expected = [fnv1a64(d) for d in data]
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    for got in fnv1a64_many(data), _fnv1a64_columns(data, lengths):
        assert got.dtype == np.uint64 and got.shape == (len(data),)
        assert got.tolist() == expected


class TestFnv1a64Many:
    """Both ways of hashing many strings give the byte-at-a-time hash of each, bit for bit."""

    @pytest.mark.parametrize("texts", [
        [],
        [""],
        ["", "", ""],
        ["a"],
        ["abc", "xyz", "abd"],  # equal lengths
        ["", "a", "", "longer text", "ab"],
        ["Straße", "日本語", "\U0001f600 and \U00010348", "naïve"],  # 2-, 3- and 4-byte UTF-8
        [f"text {i} " * (i % 7) for i in range(CHUNK_ROWS + 1)],
    ], ids=["none", "empty", "empties", "one", "equal", "mixed", "multibyte", "chunk-plus-one"])
    def test_cases(self, texts):
        assert_hashes_match([t.encode("utf-8") for t in texts])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.text(max_size=40), max_size=60))
    def test_arbitrary_text(self, texts):
        assert_hashes_match([t.encode("utf-8") for t in texts])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.binary(max_size=300), max_size=20))
    def test_arbitrary_bytes(self, data):
        assert_hashes_match(data)

    @pytest.mark.parametrize("count, uses_columns", [(FNV_COLUMN_MIN_STRINGS - 1, False),
                                                     (FNV_COLUMN_MIN_STRINGS, True)])
    def test_byte_positions_only_for_enough_strings_a_step(self, monkeypatch, count,
                                                           uses_columns):
        calls = []
        monkeypatch.setattr(embed, "_fnv1a64_columns",
                            lambda data, lengths: calls.append(len(data)) or np.zeros(len(data)))
        embed.fnv1a64_many([b"x" * 50] * count)
        assert calls == ([count] if uses_columns else [])


# Repeated words, case variants and Unicode (final sigma, sharp s, dotted
# capital I, CJK, combining marks) between separators \w+ never matches.
WORDS = st.sampled_from(["pie", "Pie", "PIE", "apple", "Straße", "STRASSE", "ΣΊΣΥΦΟΣ",
                         "σίσυφος", "İstanbul", "日本語", "naïve", "nai\u0308ve", "x_1", "42"])
SEPARATORS = st.sampled_from([" ", ", ", "\n", " -- ", "? ", "\u2028"])
TEXTS = st.lists(st.tuples(WORDS, SEPARATORS), min_size=1, max_size=12).map(
    lambda pairs: "".join(w + sep for w, sep in pairs)) | st.text(min_size=1).filter(
    lambda t: _WORD_RE.search(t.lower()) is not None)
BATCH_SIZES = st.sampled_from([1, EMBED_BLOCK_TEXTS - 1, EMBED_BLOCK_TEXTS, EMBED_BLOCK_TEXTS + 1])


class TestLocalHashEmbedderMatchesOracle:
    """The block ``bincount`` against one text and one word at a time, bit for bit."""

    @given(
        dim=st.sampled_from([8, 64, 512, 1000]),
        pool=st.lists(TEXTS, min_size=1, max_size=20),
        size=BATCH_SIZES,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_vectors_bit_for_bit(self, dim, pool, size, seed):
        picks = np.random.default_rng(seed).integers(len(pool), size=size)
        texts = [pool[i] for i in picks]
        emb = LocalHashEmbedder(dim)
        got = emb.embed_batch(texts)
        expected = oracle_local_hash_embed(texts, dim)
        assert got.dtype == np.float64 and got.shape == (size, dim)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        narrow = emb.embed_batch(texts, dtype=np.float32)
        assert narrow.dtype == np.float32
        assert np.array_equal(narrow.view(np.uint32),
                              expected.astype(np.float32).view(np.uint32))

    @pytest.mark.parametrize("first", [0, EMBED_BLOCK_TEXTS - 1, EMBED_BLOCK_TEXTS + 3])
    def test_a_wordless_text_names_the_first_one(self, first):
        texts = [f"text number {i}" for i in range(2 * EMBED_BLOCK_TEXTS)]
        texts[first], texts[first + 5] = "?? --", "!!"
        for dtype in (np.float64, np.float32):
            with pytest.raises(ZeroVectorError, match=re.escape(repr("?? --"))):
                LocalHashEmbedder(64).embed_batch(texts, dtype=dtype)
        with pytest.raises(ZeroVectorError, match=re.escape(repr("?? --"))):
            oracle_local_hash_embed(texts, 64)

    def test_empty_batch_is_zero_rows(self):
        for dtype in (np.float64, np.float32):
            out = LocalHashEmbedder(16).embed_batch([], dtype=dtype)
            assert out.shape == (0, 16) and out.dtype == dtype


class TestMakeEmbedder:
    def test_local_specs(self):
        assert make_embedder("local").dim == 64
        assert make_embedder("local:128").dim == 128
        assert isinstance(make_embedder("http://x/"), RemoteEmbedder)

    @pytest.mark.parametrize("spec", ["localhost:9000", "local:", "local:abc", "locale",
                                      "carrier-pigeon"])
    def test_unknown_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="unrecognized embedder spec"):
            make_embedder(spec)


class TestCachingEmbedder:
    class Counting:
        """A local embedder that records each batch and fails on texts holding "down"."""

        def __init__(self):
            self.inner = LocalHashEmbedder(dim=16)
            self.name, self.dim = self.inner.name, 16
            self.batches = []

        def embed_batch(self, texts):
            self.batches.append(list(texts))
            if any("down" in t for t in texts):
                raise TransportError("down")
            return self.inner.embed_batch(texts)

    def test_each_distinct_batch_embedded_once_and_bit_identical(self):
        inner = self.Counting()
        cached = CachingEmbedder(inner, {})
        first = cached.embed_batch(["Alpha beta.", "Gamma."])
        again = cached.embed_batch(["Alpha beta.", "Gamma."])
        other = cached.embed_batch(["Gamma.", "Alpha beta."])
        assert inner.batches == [["Alpha beta.", "Gamma."], ["Gamma.", "Alpha beta."]]
        assert again is first and not first.flags.writeable
        fresh = LocalHashEmbedder(dim=16).embed_batch(["Alpha beta.", "Gamma."])
        assert np.array_equal(first.view(np.uint64), fresh.view(np.uint64))
        assert np.array_equal(other[::-1], first)
        assert (cached.name, cached.dim) == (inner.name, inner.dim)

    def test_a_narrower_dtype_is_a_cast_of_the_stored_vectors(self):
        inner = self.Counting()
        cached = CachingEmbedder(inner, {})
        wide = cached.embed_batch(["Alpha beta.", "Gamma."])
        narrow = cached.embed_batch(["Alpha beta.", "Gamma."], dtype=np.float32)
        assert len(inner.batches) == 1 and narrow.dtype == np.float32
        fresh = LocalHashEmbedder(dim=16).embed_batch(["Alpha beta.", "Gamma."], dtype=np.float32)
        assert np.array_equal(narrow.view(np.uint32), fresh.view(np.uint32))
        assert np.array_equal(narrow, wide.astype(np.float32))

    def test_failed_batch_is_not_stored(self):
        inner = self.Counting()
        store = {}
        cached = CachingEmbedder(inner, store)
        for _ in range(2):
            with pytest.raises(TransportError):
                cached.embed_batch(["Going down."])
        assert len(inner.batches) == 2 and store == {}


class TestRemoteEmbedder:
    @staticmethod
    def _app_factory(dim=8, calls=None, model="stub-embedder"):
        def app(path, payload):
            assert path == "/embed"
            if calls is not None:
                calls.append(payload["texts"])
            vectors = [[float(len(t))] * dim for t in payload["texts"]]
            return 200, {"vectors": vectors, "dim": dim, "model": model}

        return app

    def test_shapes_and_name(self, http_stub):
        url = http_stub(self._app_factory(dim=8))
        client = RemoteEmbedder(url)
        out = client.embed_batch(["a", "bb", "ccc"])
        assert len(out) == 3
        assert all(len(v) == 8 for v in out)
        assert client.dim == 8
        assert client.name == "stub-embedder"

    def test_batching_130_texts_is_3_requests_in_order(self, http_stub):
        calls = []
        url = http_stub(self._app_factory(dim=8, calls=calls))
        out = RemoteEmbedder(url, batch_size=64).embed_batch([f"t{i}" for i in range(130)])
        assert [len(c) for c in calls] == [64, 64, 2]
        assert len(out) == 130
        # order preserved: vector encodes the text length
        assert [v[0] for v in out] == [float(len(f"t{i}")) for i in range(130)]

    def test_wrong_count_is_contract_violation(self, http_stub):
        def app(path, payload):
            return 200, {"vectors": [[1.0] * 4], "dim": 4, "model": "m"}

        url = http_stub(app)
        with pytest.raises(BadResponseError):
            RemoteEmbedder(url).embed_batch(["a", "b"])

    def test_dimension_drift_rejected(self, http_stub):
        state = {"dim": 8}

        def app(path, payload):
            dim = state["dim"]
            state["dim"] = 6
            return 200, {"vectors": [[1.0] * dim for _ in payload["texts"]], "dim": dim, "model": "m"}

        url = http_stub(app)
        client = RemoteEmbedder(url, batch_size=2)
        with pytest.raises(EmbedderChangedError):
            client.embed_batch(["a", "b", "c"])

    def test_server_error_is_transport_error(self, http_stub):
        url = http_stub(lambda path, payload: (503, {}))
        with pytest.raises(TransportError):
            RemoteEmbedder(url).embed_batch(["a"])

    @staticmethod
    def _scripted(stub_session, statuses, calls):
        def app(path, payload):
            calls.append(path)
            status = statuses[len(calls) - 1]
            body = {"vectors": [[1.0, 0.0] for _ in payload["texts"]], "dim": 2, "model": "m"}
            return status, body if status == 200 else {}

        return RemoteEmbedder("http://stub", session=stub_session(app))

    def test_503_then_200_succeeds_with_one_retry(self, stub_session):
        calls = []
        out = self._scripted(stub_session, [503, 200], calls).embed_batch(["a"])
        assert out.tolist() == [[1.0, 0.0]]
        assert len(calls) == 2

    def test_repeated_503_raises_transport_after_one_retry(self, stub_session):
        calls = []
        with pytest.raises(TransportError):
            self._scripted(stub_session, [503, 503, 503], calls).embed_batch(["a"])
        assert len(calls) == 2

    def test_4xx_is_bad_response_and_not_retried(self, stub_session):
        calls = []
        with pytest.raises(BadResponseError):
            self._scripted(stub_session, [404, 200], calls).embed_batch(["a"])
        assert len(calls) == 1

    def test_empty_text_rejected_before_request(self):
        client = RemoteEmbedder("http://127.0.0.1:1")  # never reached
        with pytest.raises(ZeroVectorError):
            client.embed_batch(["fine", "  "])


class TestRemoteEmbedderDtype:
    """A stored dtype changes what the client writes into, never what it asks for."""

    @staticmethod
    def _client(stub_session, calls, dims=None, counts=None, batch_size=4):
        """Vectors of ``1 / (i + 1)`` for text ``t<i>``; ``dims`` and ``counts`` script replies."""
        def app(path, payload):
            calls.append(list(payload["texts"]))
            n = len(calls) - 1
            dim = dims[n] if dims else 3
            texts = payload["texts"][:counts[n]] if counts else payload["texts"]
            vectors = [[1.0 / (int(t[1:]) + 1)] * dim for t in texts]
            return 200, {"vectors": vectors, "dim": dim, "model": "m"}

        return RemoteEmbedder("http://stub", batch_size=batch_size, session=stub_session(app))

    def test_same_requests_and_cast_rows_at_float32(self, stub_session):
        texts = [f"t{i}" for i in range(10)]
        wide_calls, narrow_calls = [], []
        wide = self._client(stub_session, wide_calls).embed_batch(texts)
        narrow = self._client(stub_session, narrow_calls).embed_batch(texts, dtype=np.float32)
        assert wide_calls == narrow_calls == [texts[0:4], texts[4:8], texts[8:10]]
        assert wide.dtype == np.float64 and narrow.dtype == np.float32
        assert np.array_equal(narrow.view(np.uint32), wide.astype(np.float32).view(np.uint32))

    def test_dimension_drift_mid_batch_still_raised(self, stub_session):
        calls = []
        client = self._client(stub_session, calls, dims=[3, 3, 5])
        with pytest.raises(EmbedderChangedError):
            client.embed_batch([f"t{i}" for i in range(10)], dtype=np.float32)
        assert len(calls) == 3

    def test_wrong_count_mid_batch_still_raised(self, stub_session):
        calls = []
        client = self._client(stub_session, calls, counts=[4, 3])
        with pytest.raises(BadResponseError, match="asked for 4 vectors, got 3"):
            client.embed_batch([f"t{i}" for i in range(10)], dtype=np.float32)
        assert len(calls) == 2

    def test_no_texts_no_request(self, stub_session):
        calls = []
        out = self._client(stub_session, calls).embed_batch([], dtype=np.float32)
        assert calls == [] and out.shape == (0, 0) and out.dtype == np.float32


class TestRemoteEmbedderBadVectors:
    """Vectors enter the program here, so bad ones must fail as BadResponseError."""

    @staticmethod
    def _client(stub_session, bad, dim=4):
        def app(path, payload):
            vectors = [[1.0] * dim for _ in payload["texts"]]
            vectors[-1] = bad
            return 200, {"vectors": vectors, "dim": dim, "model": "m"}

        return RemoteEmbedder("http://stub", session=stub_session(app))

    @pytest.mark.parametrize(
        "bad",
        [
            [1.0, "x", 1.0, 1.0],
            [1.0, None, 1.0, 1.0],
            [1.0, [2.0], 1.0, 1.0],
            [1.0, 1.0, 1.0],
            [1.0] * 5,
        ],
        ids=["string", "null", "nested", "short", "long"],
    )
    def test_malformed_vector_is_bad_response(self, stub_session, bad):
        with pytest.raises(BadResponseError) as info:
            self._client(stub_session, bad).embed_batch(["a", "b"])
        assert info.value.code == "bad_response"

    def test_non_finite_vector_is_bad_response(self, stub_session):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(BadResponseError) as info:
                self._client(stub_session, [1.0, value, 1.0, 1.0]).embed_batch(["a", "b"])
            assert info.value.code == "bad_response"

    def test_good_vectors_come_back_as_float64_rows(self, stub_session):
        out = self._client(stub_session, [0.5, 2, -1, 0.25]).embed_batch(["a", "b"])
        assert out.dtype == np.float64
        assert out.tolist() == [[1.0] * 4, [0.5, 2.0, -1.0, 0.25]]
