import logging
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    IndexEntry,
    dataset_of,
    encode_sorted,
    oracle_flat_record,
    oracle_jsonl,
    oracle_qa_record,
    oracle_save_index,
    oracle_test_record,
)
from ragmark import testgen, wire
from ragmark.corpus import Paragraph, Sentence, write_paragraphs_jsonl, write_sentences_jsonl
from ragmark.errors import BadResponseError, ConfigError, PersistenceError, TransportError
from ragmark.index import IndexKind, keys_path, save_index
from ragmark.metrics import ScoreRow, write_score_rows_jsonl
from ragmark.qagen import QADataset, QAPair, write_qa_jsonl
from ragmark.wire import MIN_TIMEOUT_MS, FlatRecord, JsonEndpoint, LineTemplate, read_jsonl


class _Reply:
    def __init__(self, status, body=None, error=None):
        self.status_code = status
        self._body = body
        self._error = error

    def json(self):
        if self._error is not None:
            raise self._error
        return self._body


class _Script:
    """Session stand-in replaying a list of replies (or exceptions) in order."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.calls = 0

    def post(self, url, json, timeout):
        reply = self.replies[self.calls]
        self.calls += 1
        if isinstance(reply, Exception):
            raise reply
        return reply


def endpoint(session, retries=1, timeout_ms=1000):
    return JsonEndpoint("http://stub/x", what="stub", config="stub",
                        timeout_ms=timeout_ms, retries=retries, session=session)


class TestJsonEndpoint:
    def test_returns_decoded_object(self):
        assert endpoint(_Script(_Reply(200, {"a": 1}))).post({}) == {"a": 1}

    @pytest.mark.parametrize("first", [
        _Reply(500, {}), _Reply(503, {}), requests.ConnectionError("down"), requests.Timeout("slow"),
    ], ids=["500", "503", "connection", "timeout"])
    def test_transport_failures_are_retried(self, first, caplog):
        session = _Script(first, _Reply(200, {"ok": True}))
        with caplog.at_level(logging.WARNING, logger="ragmark.wire"):
            assert endpoint(session, retries=1).post({}) == {"ok": True}
        assert session.calls == 2
        assert len(caplog.records) == 1

    def test_exhausted_retries_raise_transport_and_log_each_attempt(self, caplog):
        session = _Script(*[_Reply(503, {})] * 3)
        with caplog.at_level(logging.WARNING, logger="ragmark.wire"):
            with pytest.raises(TransportError):
                endpoint(session, retries=2).post({})
        assert session.calls == 3
        assert len(caplog.records) == 3

    @pytest.mark.parametrize("reply", [
        _Reply(404, {}),
        _Reply(301, {}),
        _Reply(200, error=ValueError("not json")),
        _Reply(200, error=requests.JSONDecodeError("bad", "x", 0)),
        _Reply(200, ["a", "list"]),
    ], ids=["404", "301", "not-json", "requests-decode-error", "not-an-object"])
    def test_bad_responses_are_not_retried(self, reply):
        session = _Script(reply, _Reply(200, {}))
        with pytest.raises(BadResponseError):
            endpoint(session, retries=3).post({})
        assert session.calls == 1

    @pytest.mark.parametrize("kwargs, key", [
        ({"retries": -1}, "stub.retries"),
        ({"timeout_ms": MIN_TIMEOUT_MS - 1}, "stub.timeout_ms"),
    ])
    def test_settings_checked_once_up_front(self, kwargs, key):
        with pytest.raises(ConfigError, match=key):
            endpoint(_Script(), **kwargs)


@dataclass
class _Flat:
    name: str
    count: int
    score: float


FLAT = FlatRecord(_Flat)


class TestJsonl:
    def test_flat_roundtrip_keeps_every_field(self, tmp_path):
        path = tmp_path / "f.jsonl"
        items = [_Flat("a", 1, 0.5), _Flat("b", 2, 1e-9)]
        FLAT.write(items, path)
        assert path.read_text().splitlines()[0] == '{"count": 1, "name": "a", "score": 0.5}'
        assert read_jsonl(path, FLAT.decode) == [_Flat("a", 1, 0.5), _Flat("b", 2, 1e-9)]

    def test_blank_lines_skipped_and_numbers_coerced(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('\n{"name": "a", "count": "3", "score": 2}\n  \n')
        [item] = read_jsonl(path, FLAT.decode)
        assert item == _Flat("a", 3, 2.0)
        assert type(item.count) is int and type(item.score) is float

    @pytest.mark.parametrize("line, detail", [
        ('{"name": "a", "score": 1.0}', "no field 'count'"),
        ('{"name": "a", "count": "many", "score": 1.0}', "bad record"),
        ('{"name": "a", "count": null, "score": 1.0}', "bad record"),
        ('["name", "a"]', "bad record"),
        ('{"name": "a", ', "bad record"),
        ('{"name": "a", "count": 1, "score": NaN}', "nan is not a finite number"),
        ('{"name": "a", "count": 1, "score": -Infinity}', "-inf is not a finite number"),
        ('{"name": "a", "count": 1, "score": "inf"}', "'inf' is not a finite number"),
        ('{"name": "a", "count": Infinity, "score": 1.0}', "bad record"),
        ('{"name": "a", "count": 2.7, "score": 1.0}', "2.7 is not an integer"),
        ('{"name": "a", "count": -0.5, "score": 1.0}', "-0.5 is not an integer"),
        ('{"name": "a", "count": true, "score": 1.0}', "True is not an integer"),
        ('{"name": "a", "count": false, "score": 1.0}', "False is not an integer"),
        ('{"name": "a", "count": 1, "score": true}', "True is not a number"),
        ('{"name": "a", "count": 1, "score": false}', "False is not a number"),
        ('{"name": 5, "count": 1, "score": 1.0}', "5 is not a string"),
        ('{"name": null, "count": 1, "score": 1.0}', "None is not a string"),
    ], ids=["missing", "non-numeric", "null", "not-an-object", "not-json", "nan-float",
            "infinite-float", "infinite-float-string", "infinite-int", "fractional-int",
            "negative-fractional-int", "true-int", "false-int", "true-float", "false-float",
            "numeric-string", "null-string"])
    def test_bad_record_names_path_and_line(self, tmp_path, line, detail):
        path = tmp_path / "f.jsonl"
        path.write_text('{"name": "a", "count": 1, "score": 1.0}\n\n' + line + "\n")
        with pytest.raises(PersistenceError, match=detail) as info:
            read_jsonl(path, FLAT.decode)
        assert str(info.value).startswith(f"{path}:3: ")


# What JSON escapes or writes specially: control characters, the quote and the
# backslash, the line separators JavaScript treats as newlines, lone
# surrogates, characters outside the Basic Multilingual Plane, and DEL.
SPECIAL_CHARS = ["\x00", "\x1f", "\x7f", '"', "\\", "\u2028", "\u2029", "\ud800", "\udfff",
                 "\U0001f600", "\U0010ffff", "\u00e9", "\n", "\t"]
STRINGS = st.text(st.characters(exclude_categories=[]) | st.sampled_from(SPECIAL_CHARS),
                  max_size=12)
INTS = st.integers() | st.integers(-2**200, 2**200) | st.sampled_from([-1, 0, 2**64, -2**64 - 1])
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308, float("nan"), float("inf"),
     float("-inf")])
# answers repeat, as a paragraph's text does under each of its questions
PAIRS = st.builds(QAPair, STRINGS, st.tuples(STRINGS, INTS),
                  st.sampled_from(["Shared \"text\".\u2028", "\U0001f600"]) | STRINGS, st.booleans())


class TestLineTemplate:
    """Every JSONL writer against one ``JSONEncoder(sort_keys=True)`` call per record dict."""

    @given(paragraphs=st.lists(st.builds(Paragraph, STRINGS, INTS, STRINGS, INTS), max_size=8),
           sentences=st.lists(st.builds(Sentence, STRINGS, INTS, INTS, STRINGS, INTS),
                              max_size=8),
           rows=st.lists(st.builds(ScoreRow, STRINGS, FLOATS, FLOATS, FLOATS, FLOATS),
                         max_size=8),
           chunk_rows=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_flat_records(self, paragraphs, sentences, rows, chunk_rows):
        cases = [(write_paragraphs_jsonl, paragraphs), (write_sentences_jsonl, sentences),
                 (write_score_rows_jsonl, rows)]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(wire, "CHUNK_ROWS", chunk_rows):
            path = Path(tmp) / "out.jsonl"
            for write, objs in cases:
                write(objs, path)
                assert path.read_bytes() == oracle_jsonl(map(oracle_flat_record, objs))

    @given(pairs=st.lists(PAIRS, max_size=8), chunk_rows=st.integers(1, 4),
           params=st.dictionaries(STRINGS, INTS | FLOATS | STRINGS, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_qa_and_test_pairs_with_and_without_synthetic(self, pairs, chunk_rows, params):
        test_pairs = [QAPair(p.question, ("cluster", p.paragraph_ref[1]), p.answer_text,
                             p.synthetic) for p in pairs]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(wire, "CHUNK_ROWS", chunk_rows):
            path = Path(tmp) / "out.jsonl"
            write_qa_jsonl(QADataset(pairs=pairs), path)
            assert path.read_bytes() == oracle_jsonl(map(oracle_qa_record, pairs))
            testgen.write_test_set_jsonl(testgen.TestSet(pairs=test_pairs, params=params), path)
            assert path.read_bytes() == oracle_jsonl(
                [{"params": params}, *map(oracle_test_record, test_pairs)])

    @given(rows=st.lists(st.tuples(STRINGS, st.integers(0, 3), STRINGS, INTS), max_size=12),
           payloads=st.lists(STRINGS, min_size=4, max_size=4),
           kind=st.sampled_from(list(IndexKind)),
           chunk=st.integers(1, 300))
    @settings(max_examples=80, deadline=None)
    def test_index_records_escape_each_repeated_payload_once(self, rows, payloads, kind, chunk):
        # four payloads shared by up to twelve entries, so most payloads repeat
        entries = [IndexEntry(k, payloads[p], (d, o)) for k, p, d, o in rows]
        keys = np.arange(1, 3 * len(rows) + 1, dtype=np.float32).reshape(len(rows), 3)
        ds = dataset_of(kind, entries, "hypothesis\u2028embedder", keys)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.jsonl", Path(tmp) / "old.jsonl"
            with mock.patch("ragmark.index.SAVE_CHUNK_BYTES", chunk):
                save_index(ds, new)
            oracle_save_index(ds, old)
            assert new.read_bytes() == old.read_bytes()
            assert keys_path(new).read_bytes() == keys_path(old).read_bytes()

    @given(values=st.fixed_dictionaries({"name": STRINGS, "count": INTS, "score": FLOATS,
                                         "flag": st.booleans()}),
           shared=st.sampled_from([(), ("name",)]))
    def test_line_equals_sorted_json_encoding(self, values, shared):
        template = LineTemplate({"name": str, "count": int, "score": float, "flag": bool}, shared)
        columns = {name: [value] for name, value in values.items()}
        expected = {name: value for name, value in values.items() if name != "flag" or value}
        assert template.render(columns) == encode_sorted(expected) + "\n"

    @pytest.mark.parametrize("shared", [(), ("name",)], ids=["escaped", "escaped-once"])
    @pytest.mark.parametrize("field, value", [
        ("count", True), ("count", False), ("count", 1.0), ("count", "1"), ("count", None),
        ("score", 1), ("score", True), ("score", "0.5"), ("score", None),
        ("name", 5), ("name", b"bytes"), ("name", None), ("name", ["a"]), ("flag", 1),
        ("flag", None),
    ])
    def test_value_outside_its_type_is_a_type_error_naming_the_field(self, field, value,
                                                                      shared):
        template = LineTemplate({"name": str, "count": int, "score": float, "flag": bool}, shared)
        columns = {"name": ["a", "b"], "count": [1, 2], "score": [0.5, 1.0],
                   "flag": [False, True]}
        columns[field] = [columns[field][0], value]
        with pytest.raises(TypeError, match=f"JSONL field '{field}'"):
            template.render(columns)

    def test_write_leaves_no_partial_line_for_a_bad_value(self, tmp_path):
        rows = [ScoreRow("q1", 0.5, 0.5, 0.5, 0.5), ScoreRow("q2", 0.5, 1, 0.5, 0.5)]
        with pytest.raises(TypeError, match="JSONL field 'meteor'"):
            write_score_rows_jsonl(rows, tmp_path / "s.jsonl")
        assert (tmp_path / "s.jsonl").read_bytes() == b""

    @pytest.mark.parametrize("fields, match", [
        ({"a_flag": bool, "b": str}, "flag field 'a_flag' cannot sort first"),
        ({"ref": tuple}, "no JSONL format"),
    ])
    def test_template_rejects_what_it_cannot_write(self, fields, match):
        with pytest.raises(ValueError, match=match):
            LineTemplate(fields)
