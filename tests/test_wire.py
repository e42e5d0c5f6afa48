import logging
from dataclasses import dataclass

import pytest
import requests

from ragmark.errors import BadResponseError, ConfigError, PersistenceError, TransportError
from ragmark.wire import MIN_TIMEOUT_MS, FlatRecord, JsonEndpoint, read_jsonl, write_jsonl


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
        write_jsonl(map(FLAT.encode, items), path)
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
    ], ids=["missing", "non-numeric", "null", "not-an-object", "not-json", "nan-float",
            "infinite-float", "infinite-float-string", "infinite-int", "fractional-int",
            "negative-fractional-int", "true-int", "false-int", "true-float", "false-float"])
    def test_bad_record_names_path_and_line(self, tmp_path, line, detail):
        path = tmp_path / "f.jsonl"
        path.write_text('{"name": "a", "count": 1, "score": 1.0}\n\n' + line + "\n")
        with pytest.raises(PersistenceError, match=detail) as info:
            read_jsonl(path, FLAT.decode)
        assert str(info.value).startswith(f"{path}:3: ")
