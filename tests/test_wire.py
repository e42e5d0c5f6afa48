import functools
import json
import logging
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import requests
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (
    IndexEntry,
    dataset_of,
    encode_sorted,
    oracle_decode_qa,
    oracle_flat_decode,
    oracle_flat_record,
    oracle_jsonl,
    oracle_qa_record,
    oracle_read_jsonl,
    oracle_read_test_set,
    oracle_save_index,
    oracle_test_record,
)
from ragmark import testgen, wire
from ragmark.corpus import (
    Paragraph,
    Sentence,
    read_paragraphs_jsonl,
    read_sentences_jsonl,
    write_paragraphs_jsonl,
    write_sentences_jsonl,
)
from ragmark.errors import BadResponseError, ConfigError, PersistenceError, TransportError
from ragmark.index import IndexKind, keys_path, save_index
from ragmark.metrics import ScoreRow, read_score_rows_jsonl, write_score_rows_jsonl
from ragmark.qagen import QADataset, QAPair, read_qa_jsonl, write_qa_jsonl
from ragmark.wire import MIN_TIMEOUT_MS, FlatRecord, JsonEndpoint, LineTemplate


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


def _oracle_flat(cls):
    """The record-by-record reader of flat dataclass ``cls``."""
    return functools.partial(oracle_read_jsonl, decode=oracle_flat_decode(cls))


ORACLE_FLAT = _oracle_flat(_Flat)
GOOD = '{"name": "a", "count": 1, "score": 1.0}'


def outcome(read, path):
    """The repr of what ``read(path)`` returns (so 2 and 2.0 differ), or the error it raises."""
    try:
        return repr(read(path))
    except PersistenceError as exc:
        return type(exc), str(exc)


class TestJsonl:
    def test_flat_roundtrip_keeps_every_field(self, tmp_path):
        path = tmp_path / "f.jsonl"
        items = [_Flat("a", 1, 0.5), _Flat("b", 2, 1e-9)]
        FLAT.write(items, path)
        assert path.read_text().splitlines()[0] == '{"count": 1, "name": "a", "score": 0.5}'
        assert FLAT.read(path) == [_Flat("a", 1, 0.5), _Flat("b", 2, 1e-9)]

    def test_blank_lines_skipped_and_numbers_not_coerced(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('\n{"name": "a", "count": 3, "score": 2.0}\n  \n')
        assert FLAT.read(path) == [_Flat("a", 3, 2.0)]
        path.write_text('\n{"name": "a", "count": "3", "score": 2}\n  \n')
        with pytest.raises(PersistenceError,
                           match=f"^{path}:2: bad record: '3' is not an integer$"):
            FLAT.read(path)

    @pytest.mark.parametrize("line, detail", [
        ('{"name": "a", "score": 1.0}', "no field 'count'"),
        ('{"name": "a", "count": "many", "score": 1.0}', "bad record"),
        ('{"name": "a", "count": null, "score": 1.0}', "bad record"),
        ('["name", "a"]', "bad record"),
        ('{"name": "a", ', "bad record"),
        ('{"name": "a", "count": 1, "score": NaN}', "nan is not a finite number"),
        ('{"name": "a", "count": 1, "score": -Infinity}', "-inf is not a finite number"),
        ('{"name": "a", "count": 1, "score": "inf"}', "'inf' is not a float"),
        ('{"name": "a", "count": Infinity, "score": 1.0}', "bad record"),
        ('{"name": "a", "count": 2.7, "score": 1.0}', "2.7 is not an integer"),
        ('{"name": "a", "count": -0.5, "score": 1.0}', "-0.5 is not an integer"),
        ('{"name": "a", "count": true, "score": 1.0}', "True is not an integer"),
        ('{"name": "a", "count": false, "score": 1.0}', "False is not an integer"),
        ('{"name": "a", "count": 1, "score": true}', "True is not a number"),
        ('{"name": "a", "count": 1, "score": false}', "False is not a number"),
        ('{"name": 5, "count": 1, "score": 1.0}', "5 is not a string"),
        ('{"name": null, "count": 1, "score": 1.0}', "None is not a string"),
        (GOOD + " " + GOOD, "Extra data"),
        ('{"name": 5, "count": "many", "score": NaN}', "5 is not a string"),
        ('{"count": "many", "score": 1.0}', "no field 'name'"),
        ('{"name": "a", "count": 1e400, "score": 1.0}', "inf is not an integer"),
        ("\ufeff" + GOOD, "Unexpected UTF-8 BOM"),
    ], ids=["missing", "non-numeric", "null", "not-an-object", "not-json", "nan-float",
            "infinite-float", "infinite-float-string", "infinite-int", "fractional-int",
            "negative-fractional-int", "true-int", "false-int", "true-float", "false-float",
            "numeric-string", "null-string", "two-values", "three-bad-fields",
            "missing-and-bad-field", "overflowing-int", "bom-mid-file"])
    def test_bad_record_names_path_and_line(self, tmp_path, line, detail):
        path = tmp_path / "f.jsonl"
        path.write_text(GOOD + "\n\n" + line + "\n")
        with pytest.raises(PersistenceError, match=detail) as info:
            FLAT.read(path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert outcome(ORACLE_FLAT, path) == (PersistenceError, str(info.value))

    @pytest.mark.parametrize("layout, content, expected", [
        ("flat", b'{"name": "a", "count": 1, "score": 1.0}\r\n\r\n{"name": "b", "count": "2", '
         b'"score": 2}\r\n', ":3: bad record: '2' is not an integer"),
        ("flat", b'{"name": "a", "count": 1, "score": 1.0}\r\n{"name": "b", "count": 2.5, '
         b'"score": 2}\r\n', ":2: bad record: 2.5 is not an integer"),
        ("flat", b' \t\n\x0c\n  {"name": "a", "count": 1, "score": 1.0}\t\n\xc2\xa0\n\n',
         [_Flat("a", 1, 1.0)]),
        ("flat", b'{"name": "a", "count": 1, "score": 1.0}', [_Flat("a", 1, 1.0)]),
        ("flat", b'\xef\xbb\xbf{"name": "a", "count": 1, "score": 1.0}\n',
         ":1: bad record: Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        ("flat", b'{"name": "a", "count": "-4", "score": 0.5}\n'
         b'{"name": "b", "count": 3.0, "score": 0.5}\n'
         b'{"name": "c", "count": 1e2, "score": 0.5}\n'
         b'{"name": "d", "count": " 7 ", "score": 0.5}\n',
         ":1: bad record: '-4' is not an integer"),
        ("flat", b'{"name": "a", "count": 1, "score": 1.0}\n{"name": "b", "count": 3.0, '
         b'"score": 0.5}\n', ":2: bad record: 3.0 is not an integer"),
        ("flat", b'{"name": "a", "count": 1, "score": 2}\n'
         b'{"name": "b", "count": 1, "score": "0.25"}\n', ":1: bad record: 2 is not a float"),
        ("flat", b'{"name": "a", "count": 1, "score": 1.0}\n'
         b'{"name": "b", "count": 1, "score": "0.25"}\n',
         ":2: bad record: '0.25' is not a float"),
        ("flat", b'{"name": "a", "count": 1, "score": 1.0}\n'
         b'{"name": "b", "count": 1, "score": "x"}\n{"name": 7, "count": 1, "score": 1.0}\n',
         ":2: bad record: 'x' is not a float"),
        ("flat", b'{"name": "a", "count": 1, "score": "x"}\n{"name": \n',
         ":1: bad record: 'x' is not a float"),
        ("flat", b'{"name": "a", "count": 1, "score": 1.0}\n{"name": \n{"name": 7}\n',
         ":2: bad record: Expecting value: line 2 column 1 (char 10)"),
        # Line 1 holds two records and the third runs over lines 2 and 3, so the
        # lines hold as many records as there are lines.
        ("flat", b'{"count": 1, "name": "a", "score": 1.0}, '
         b'{"count": 2, "name": "b", "score": 1.0}\n{"count": 3, "name": "c}\n{d", "score": 1.0}\n',
         ":1: bad record: Extra data: line 1 column 40 (char 39)"),
        ("flat", b'{"count": 1, "name": "a", "score": 1.0}, '
         b'{"count": 2, "name": "b", "score": 1.0}\n'
         b'{"count": 3, "extra": [{"a": 1}\n{"b": 2}], "name": "c", "score": 1.0}\n',
         ":1: bad record: Extra data: line 1 column 40 (char 39)"),
        ("flat", b'{"count": 3, "extra": [{"a": 1}\n{"b": 2}], "name": "c", "score": 1.0}\n',
         ":1: bad record: Expecting ',' delimiter: line 2 column 1 (char 32)"),
        ("flat", b'{"count": 1, "name": "a", "score": 1.0, "zzz": [{}]}\n'
         b'{"count": 2, "name": "b", "score": 2.0}\n', [_Flat("a", 1, 1.0), _Flat("b", 2, 2.0)]),
        ("flat", b'{"count": 1, "name": "a", "score": 1e308}\n{"count": 2, "name": "b", '
         b'"score": 1e308}\n', [_Flat("a", 1, 1e308), _Flat("b", 2, 1e308)]),
        ("qa", b'{"answer_text": "a", "doc_id": "d", "paragraph_ordinal": 0, "question": "q", '
         b'"synthetic": false}\n{"answer_text": "a", "doc_id": "d", "paragraph_ordinal": 1, '
         b'"question": "r", "synthetic": true}\n',
         QADataset([QAPair("q", ("d", 0), "a"), QAPair("r", ("d", 1), "a", True)])),
    ], ids=["crlf", "crlf-bad", "whitespace-only-lines", "no-final-newline", "leading-bom",
            "numeric-strings-and-integral-floats-in-int", "integral-float-in-int", "ints-in-float",
            "numeric-string-in-float", "earlier-row-before-earlier-field",
            "bad-field-before-bad-json", "bad-json-before-bad-field",
            "two-record-line-beside-string-over-a-line-end",
            "two-record-line-beside-array-field-over-two-lines", "array-field-over-two-lines",
            "unknown-field-ignored", "two-1e308-in-a-float-column", "explicit-synthetic-false"])
    def test_file_reads_as_the_record_by_record_reader_reads_it(self, tmp_path, layout, content,
                                                                expected):
        read, oracle = {"flat": (FLAT.read, ORACLE_FLAT), "qa": LAYOUTS["qa"][:2]}[layout]
        path = tmp_path / "f.jsonl"
        path.write_bytes(content)
        got = outcome(read, path)
        assert got == outcome(oracle, path)
        assert got == ((PersistenceError, f"{path}{expected}") if isinstance(expected, str)
                       else repr(expected))

    @pytest.mark.parametrize("chunk_rows", [2, 3, wire.CHUNK_ROWS])
    def test_bad_value_in_a_later_chunk_names_its_line(self, tmp_path, chunk_rows):
        path = tmp_path / "f.jsonl"
        lines = [f'{{"name": "r{i}", "count": {i}, "score": 0.5}}' for i in range(chunk_rows + 3)]
        lines[chunk_rows + 1] = '{"name": "r", "count": 1, "score": false}'
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(wire, "CHUNK_ROWS", chunk_rows):
            got = outcome(FLAT.read, path)
        assert got == outcome(ORACLE_FLAT, path)
        assert got == (PersistenceError,
                       f"{path}:{chunk_rows + 2}: bad record: False is not a number")

    @pytest.mark.parametrize("bad_line", [None, 2])
    @pytest.mark.parametrize("tail, error", [(b"\xff", UnicodeDecodeError),
                                             (b"[" * 100_000, RecursionError)],
                             ids=["undecodable", "nested-too-deep"])
    def test_error_json_cannot_report_comes_after_an_earlier_bad_record(self, tmp_path,
                                                                       bad_line, tail, error):
        # the file is decoded 8 KiB at a time, so bytes that do not decode are
        # met only after the lines of the first buffer are read; 220 lines fill
        # more than one buffer but less than one chunk
        path = tmp_path / "f.jsonl"
        lines = [f'{{"name": "r{i}", "count": {i}, "score": 0.5}}' for i in range(220)]
        if bad_line:
            lines[bad_line - 1] = '{"name": "r", "count": 1.5, "score": 0.5}'
        path.write_bytes("\n".join(lines).encode() + b"\n" + tail + b"\n")

        def raised(read):
            try:
                read(path)
            except (PersistenceError, error) as exc:
                return type(exc), str(exc)

        assert raised(FLAT.read) == raised(ORACLE_FLAT)
        assert raised(FLAT.read)[0] is (PersistenceError if bad_line else error)

    def test_each_distinct_shared_value_is_held_once(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        text = "".join(f"{ch}. Shared text." for ch in "ab")
        lines = [json.dumps({"doc_id": "d", "paragraph_ordinal": i % 2, "question": f"Q{i}?",
                             "answer_text": text[:16] if i % 2 else text})
                 for i in range(7)]
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(wire, "CHUNK_ROWS", 3):
            pairs = read_qa_jsonl(path).pairs
        answers = [p.answer_text for p in pairs]
        assert answers == [text, text[:16]] * 3 + [text]
        assert len(set(map(id, answers))) == 2
        assert len({id(p.question) for p in pairs}) == 7


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


# Values a field refuses, numeric strings and numbers of the other kind among
# them, and lines that hold no record of any layout; a test set's header among them.
ODD_VALUES = st.sampled_from([None, True, False, [], {}, ["a"], "", "x", "3", "-2", "2.5", " 7 ",
                              "NaN", "1e400", 2.5, -0.5, 3, 2.0, -0.0, 1e300, 2**70,
                              float("nan"), float("-inf")])
ODD_LINES = st.sampled_from(["", " \t", "\x0c", "\u00a0", "[1, 2]", "5", "null", '"params"',
                             '["params"]', "{", "{} {}", "\ufeff{}", '{"params": [1]}',
                             '{"params": {}}', '{"params": null}', "  {}  "])


def read_accepts(kind):
    """Values a field of ``kind`` takes: those of its exact type (and, for a float, finite)."""
    if kind is str:
        return STRINGS | st.sampled_from(["Shared text.", "\U0001f600"])
    if kind is int:
        return st.integers(-2**70, 2**70)
    return st.floats(allow_nan=False, allow_infinity=False)


# (reader, record-by-record reader, fields in the order a record is checked)
LAYOUTS = {
    "paragraphs": (read_paragraphs_jsonl, _oracle_flat(Paragraph),
                   {"doc_id": str, "ordinal": int, "text": str, "token_count": int}),
    "sentences": (read_sentences_jsonl, _oracle_flat(Sentence),
                  {"doc_id": str, "paragraph_ordinal": int, "ordinal": int, "text": str,
                   "word_count": int}),
    "score-rows": (read_score_rows_jsonl, _oracle_flat(ScoreRow),
                   {"question_id": str, "rouge": float, "meteor": float, "bleu": float,
                    "cs": float}),
    "qa": (read_qa_jsonl, lambda path: QADataset(oracle_read_jsonl(path, oracle_decode_qa)),
           {"doc_id": str, "paragraph_ordinal": int, "question": str, "answer_text": str,
            "synthetic": bool}),
    "test-set": (testgen.read_test_set_jsonl, oracle_read_test_set,
                 {"cluster_id": int, "question": str, "answer_text": str, "synthetic": bool}),
}


class TestColumnReader:
    """Every JSONL reader against one ``json.loads`` and one decoder call per line."""

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @given(data=st.data(), chunk_rows=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_reads_what_the_record_by_record_reader_reads(self, layout, data, chunk_rows):
        read, oracle, fields = LAYOUTS[layout]
        record = st.fixed_dictionaries(
            {name: read_accepts(kind) for name, kind in fields.items() if kind is not bool},
            optional={name: st.booleans() for name, kind in fields.items() if kind is bool})
        lines = data.draw(st.lists(record, max_size=8))
        if layout == "test-set" and data.draw(st.booleans()):
            lines.insert(0, {"params": data.draw(st.dictionaries(STRINGS, INTS, max_size=2))})
        for _ in range(data.draw(st.integers(0, 2)) if lines else 0):
            i = data.draw(st.integers(0, len(lines) - 1))
            if data.draw(st.booleans()) and isinstance(lines[i], dict):
                name = data.draw(st.sampled_from([*fields, "params"]))
                if data.draw(st.booleans()):
                    lines[i].pop(name, None)
                else:
                    lines[i][name] = data.draw(ODD_VALUES)
            else:
                lines.insert(i, data.draw(ODD_LINES))
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        sort_keys = data.draw(st.booleans())
        text = "".join((json.dumps(line, sort_keys=sort_keys) if isinstance(line, dict) else line)
                       + end for line in lines)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(wire, "CHUNK_ROWS", chunk_rows):
            path = Path(tmp) / "in.jsonl"
            path.write_text(text, encoding="utf-8", newline="")
            got = outcome(read, path)
            event("refused" if isinstance(got, tuple) else "read")
            assert got == outcome(oracle, path)

    @pytest.mark.parametrize("lines, expected", [
        (["5", '{"cluster_id": 0, "question": 1, "answer_text": "a"}'],
         ":1: bad record: argument of type 'int' is not iterable"),
        (['{"cluster_id": 0, "question": 1, "answer_text": "a"}', "5"],
         ":1: bad record: 1 is not a string"),
        (['["params"]', '{"cluster_id": "x", "question": "q", "answer_text": "a"}'],
         ":1: bad record: list indices must be integers or slices, not str"),
        (['{"cluster_id": 0, "question": "q", "answer_text": "a"}', '{"params": 5}',
          '{"cluster_id": "x", "question": "q", "answer_text": "a"}'],
         ":2: bad record: 5 is not an object"),
        (['{"cluster_id": 0, "question": "q", "answer_text": "a"}',
          '{"cluster_id": "x", "question": "q", "answer_text": "a"}', '"params"', "null"],
         ":2: bad record: 'x' is not an integer"),
        (['{"cluster_id": 0, "question": "q", "answer_text": "a"}', '{"params": {}}',
          '{"cluster_id": 0, "question": "q"}'],
         ":3: record has no field 'answer_text'"),
        (['{"cluster_id": 0, "question": "q", "answer_text": "a"}', '{"params": {}}'],
         ": the params header must be the first record"),
    ], ids=["scalar-before-bad-pair", "bad-pair-before-scalar", "list-header-before-bad-pair",
            "bad-header-before-bad-pair", "bad-pair-before-string-and-null",
            "misplaced-header-then-bad-pair", "misplaced-header"])
    @pytest.mark.parametrize("chunk_rows", [1, 4])
    def test_test_set_header_rows_are_checked_in_line_order(self, tmp_path, lines, expected,
                                                            chunk_rows):
        path = tmp_path / "ts.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(wire, "CHUNK_ROWS", chunk_rows):
            got = outcome(testgen.read_test_set_jsonl, path)
        assert got == outcome(oracle_read_test_set, path)
        assert got == (PersistenceError, f"{path}{expected}")

    @given(paragraphs=st.lists(st.builds(Paragraph, STRINGS, INTS, STRINGS, INTS), max_size=8),
           sentences=st.lists(st.builds(Sentence, STRINGS, INTS, INTS, STRINGS, INTS),
                              max_size=8),
           rows=st.lists(st.builds(ScoreRow, STRINGS, FLOATS, FLOATS, FLOATS, FLOATS),
                         max_size=8),
           pairs=st.lists(PAIRS, max_size=8),
           params=st.dictionaries(STRINGS, INTS | FLOATS | STRINGS, max_size=3),
           chunk_rows=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_written_files_read_back_as_the_record_by_record_reader_reads_them(
            self, paragraphs, sentences, rows, pairs, params, chunk_rows):
        test_pairs = [QAPair(p.question, ("cluster", p.paragraph_ref[1]), p.answer_text,
                             p.synthetic) for p in pairs]
        cases = [("paragraphs", write_paragraphs_jsonl, paragraphs),
                 ("sentences", write_sentences_jsonl, sentences),
                 ("score-rows", write_score_rows_jsonl, rows),
                 ("qa", write_qa_jsonl, QADataset(pairs=pairs)),
                 ("test-set", testgen.write_test_set_jsonl,
                  testgen.TestSet(pairs=test_pairs, params=params))]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(wire, "CHUNK_ROWS", chunk_rows):
            path = Path(tmp) / "out.jsonl"
            for layout, write, objs in cases:
                write(objs, path)
                read, oracle, _ = LAYOUTS[layout]
                assert outcome(read, path) == outcome(oracle, path)
