"""The two formats ragmark exchanges with the outside: JSON over HTTP and JSONL files.

``JsonEndpoint`` is the one HTTP path, so the status mapping and the retry
rule live here. ``write_jsonl``/``read_jsonl`` are the one JSONL codec. Each
record type compiles one ``LineTemplate`` from its field names and types
(``FlatRecord`` does so for flat dataclasses) and is written through it a
chunk of columns at a time; its lines are byte for byte what
``json.dumps(record, sort_keys=True)`` writes. It is read back through the
same template under one rule: every field has its exact type, as the writer
leaves it, and nothing is converted. One parser, ``parse_lines``, reads a
chunk of lines in one ``json.loads``, for ``read_jsonl`` and for the index
file's entries alike; ``read_jsonl`` reads a chunk it refuses one line at a
time, so the first bad record is the one reported. Each distinct value of a
``shared`` field is held once, as the writer escapes it once.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import logging
import math
import operator
import typing
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    TypeVar,
)

import numpy as np

from .errors import BadResponseError, ConfigError, PersistenceError, TransportError

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

MIN_TIMEOUT_MS = 10  # floor; anything lower is a unit mistake, not a timeout

T = TypeVar("T")


class JsonEndpoint:
    """POST JSON payloads to one URL and return the JSON object it answers.

    A request that fails in transport, or an HTTP 5xx, is a TransportError
    and is retried up to ``retries`` times, with a warning per failed
    attempt. Any other non-200 status, or a body that is not a JSON object,
    is a BadResponseError and is not retried. ``what`` names the service in
    messages; ``config`` is the key prefix of its settings.
    """

    def __init__(self, url: str, *, what: str, config: str, timeout_ms: int, retries: int,
                 session: requests.Session | None = None):
        if timeout_ms < MIN_TIMEOUT_MS:
            raise ConfigError(
                f"{config}.timeout_ms must be >= {MIN_TIMEOUT_MS}, got {timeout_ms}"
            )
        if retries < 0:
            raise ConfigError(f"{config}.retries must be nonnegative, got {retries}")
        import requests  # here, so that offline commands never load the HTTP stack

        self.url = url
        self.what = what
        self.timeout = timeout_ms / 1000.0
        self.retries = retries
        self._session = session or requests.Session()
        self._request_error = requests.RequestException

    def post(self, payload: dict) -> dict[str, Any]:
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._attempt(payload)
            except TransportError as exc:
                log.warning("%s attempt %d of %d failed: %s",
                            self.what, attempt, self.retries + 1, exc)
                if attempt > self.retries:
                    raise

    def _attempt(self, payload: dict) -> dict[str, Any]:
        try:
            resp = self._session.post(self.url, json=payload, timeout=self.timeout)
        except self._request_error as exc:
            raise TransportError(f"{self.what} request failed: {exc}") from exc
        if resp.status_code >= 500:
            raise TransportError(f"{self.what} endpoint returned HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise BadResponseError(f"{self.what} endpoint returned HTTP {resp.status_code}")
        try:
            body = resp.json()
        except ValueError as exc:
            raise BadResponseError(f"{self.what} response is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise BadResponseError(f"{self.what} response is not a JSON object")
        return body


# Rows a JSONL writer formats and writes at once. A paragraph of 256 tokens,
# the longest record ragmark writes at its default budget, is about 2 KB, so
# a chunk stays well under a megabyte.
CHUNK_ROWS = 256

_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _strings(values: Sequence) -> list[str]:
    return list(map(encode_basestring_ascii, values))


def _shared_strings(values: Sequence) -> list[str]:
    """``_strings``, escaping each distinct value once."""
    distinct = dict.fromkeys(values)
    escaped = dict(zip(distinct, map(encode_basestring_ascii, distinct)))
    return list(map(escaped.__getitem__, values))


def _ints(values: Sequence) -> list[str]:
    if bool in set(map(type, values)):  # int.__repr__ would write 1 where JSON writes true
        raise TypeError("a bool is not an int")
    return list(map(int.__repr__, values))


def _floats(values: Sequence) -> list[str]:
    """``float.__repr__``, with JSON's names for NaN and the infinities."""
    text = list(map(float.__repr__, values))
    if not _JSON_FLOATS.keys().isdisjoint(text):
        text = [_JSON_FLOATS.get(t, t) for t in text]
    return text


def _flags(text: str, values: Sequence) -> list[str]:
    """``text`` (the field's name and ``true``) where a value is set, else nothing."""
    if not set(map(type, values)) <= {bool}:
        raise TypeError("a flag must be a bool")
    return [text if value else "" for value in values]


_FORMATS: dict[Any, Callable[[Sequence], list[str]]] = {str: _strings, int: _ints, float: _floats}


class LineTemplate:
    """The JSON line of a record with fixed, typed fields, compiled once.

    ``fields`` maps each field name to str, int, float or bool. A line is
    byte for byte what ``json.dumps(record, sort_keys=True)`` writes: the
    fields in sorted order, strings through json's ASCII escaper, ints
    through ``int.__repr__`` and floats through ``float.__repr__`` (NaN
    and the infinities by their JSON names). A bool field is a flag,
    written ``"name": true`` when set and left out when not; it cannot
    sort first. A value outside its field's type is a TypeError naming the
    field, never a different byte. Each distinct value of a ``shared``
    string field, one whose values repeat across rows by construction (a
    paragraph's text under each of its questions), is escaped once a chunk.
    A surrogate pair held as two code points (``"\\ud800\\udfff"``) is
    written as two escapes, as ``json.dumps`` writes it, and reads back as
    the one code point the pair encodes (U+103FF); text decoded from UTF-8
    cannot hold such a pair.

    Records are formatted a column at a time (``format``) and joined into
    lines a chunk of rows at a time (``join``), so no per-record dict or
    encoder call is made. They are read back a chunk of lines at a time
    (``read_jsonl``), each field checked in the order ``fields`` gives,
    which is the field a record with two bad values is reported for.
    """

    def __init__(self, fields: Mapping[str, type], shared: Iterable[str] = ()):
        self.fields = dict(fields)
        self.shared = tuple(shared)
        self.names = tuple(sorted(fields))
        self._formats = {}
        pieces = []
        for j, name in enumerate(self.names):
            key = encode_basestring_ascii(name)
            if fields[name] is bool:
                if j == 0:
                    raise ValueError(f"flag field {name!r} cannot sort first")
                pieces.append("")
                self._formats[name] = functools.partial(_flags, f", {key}: true")
            elif fields[name] in _FORMATS:
                pieces.append(("{" if j == 0 else ", ") + key + ": ")
                self._formats[name] = _FORMATS[fields[name]]
            else:
                raise ValueError(f"field {name!r}: no JSONL format for {fields[name]!r}")
        for name in shared:
            self._formats[name] = _shared_strings
        self._pieces = tuple(pieces)

    def format(self, name: str, values: Sequence) -> list[str]:
        """The JSON text of every value of field ``name``."""
        try:
            return self._formats[name](values)
        except TypeError as exc:
            raise TypeError(f"JSONL field {name!r}: {exc}") from None

    def join(self, texts: Mapping[str, Sequence[str]]) -> str:
        """One line per row of the formatted columns ``texts``, each newline-terminated."""
        rows = len(texts[self.names[0]])
        width = 2 * len(self.names) + 1  # a piece and a value per field, then the line end
        parts = ["}\n"] * (width * rows)
        for j, (name, piece) in enumerate(zip(self.names, self._pieces)):
            parts[2 * j::width] = [piece] * rows
            parts[2 * j + 1::width] = texts[name]
        return "".join(parts)

    def render(self, columns: Mapping[str, Sequence]) -> str:
        """The lines of the records whose field values are ``columns``."""
        return self.join({name: self.format(name, columns[name]) for name in self.names})


def chunked(items: Iterable[T]) -> Iterator[list[T]]:
    """``items`` in lists of ``CHUNK_ROWS`` (the last one shorter)."""
    it = iter(items)
    return iter(lambda: list(itertools.islice(it, CHUNK_ROWS)), [])


def write_jsonl(template: LineTemplate, chunks: Iterable[Mapping[str, Sequence]],
                path: str | Path, *, header: dict | None = None) -> None:
    """``header`` (``json.dumps`` with sorted keys), then the lines of every chunk of columns."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        for columns in chunks:
            fh.write(template.render(columns))


# What reading a field of a parsed record raises: a missing field (KeyError),
# a record that is not an object (TypeError), or a value ``_exact`` refuses.
_ROW_ERRORS = (KeyError, TypeError, ValueError)

_KIND_NAMES = {str: "a string", int: "an integer", float: "a float", bool: "a boolean",
               dict: "an object"}


def _exact(value: Any, kind: type) -> Any:
    """``value`` when its type is ``kind`` itself and, for a float, it is finite; else a
    ValueError. So nothing is converted, and a bool is never a number."""
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    if kind is float and type(value) is float:
        raise ValueError(f"{value!r} is not a finite number")
    if kind is float and type(value) is bool:
        raise ValueError(f"{value!r} is not a number")
    raise ValueError(f"{value!r} is not {_KIND_NAMES[kind]}")


def _getter(name: str, kind: type) -> Callable[[Any], Any]:
    """Field ``name`` of a record (a TypeError if it is not an object); an absent flag is False."""
    if kind is bool:
        return lambda row: dict.get(row, name, False)
    return operator.itemgetter(name)


def exact_columns(template: LineTemplate, rows: list) -> dict[str, list] | None:
    """Every field of the parsed records ``rows`` as a column, in ``template.fields`` order,
    when each value has its field's exact type; else None.

    A float column also needs a finite sum, so no value is NaN or infinite.
    An empty ``rows`` gives empty columns.
    """
    columns = {}
    for name, kind in template.fields.items():
        try:
            values = list(map(_getter(name, kind), rows))
        except _ROW_ERRORS:
            return None
        if set(map(type, values)) - {kind} or (kind is float and not math.isfinite(sum(values))):
            return None
        columns[name] = values
    return columns


def parse_lines(template: LineTemplate, data: bytes, count: int) -> dict[str, list] | None:
    """The columns of the records on the lines of ``data`` (UTF-8, joined by ``\\n``, the
    last one unended), when there are ``count`` lines and each holds one record of
    ``template`` as the writer leaves it; else None.

    The lines are parsed in one ``json.loads``, as ``[`` + the lines joined
    by ``,\\n`` + ``]``. They pass when every line runs from ``{`` to ``}``,
    there are as many records as lines, each record holds only the
    template's fields (a flag counted where it is set) and every value has
    its field's exact type (``exact_columns``). Strict JSON refuses a line
    break inside a string, and such a record holds no array or object, so a
    line break then falls only between two records. With ``count`` 0,
    ``data`` must be empty.
    """
    if not count:
        return None if data else {name: [] for name in template.fields}
    view = np.frombuffer(data, np.uint8)
    breaks = np.flatnonzero(view == ord("\n"))
    if not (len(breaks) == count - 1 and data[:1] == b"{" and data[-1:] == b"}"
            and (view[breaks - 1] == ord("}")).all() and (view[breaks + 1] == ord("{")).all()):
        return None
    try:
        records = json.loads(b"[" + data.replace(b"\n", b",\n") + b"]")
    except (ValueError, RecursionError):  # not JSON, or nested too deep for json
        return None
    columns = exact_columns(template, records) if len(records) == count else None
    if columns is None:
        return None
    flags = [name for name, kind in template.fields.items() if kind is bool]
    fields = count * (len(template.fields) - len(flags)) + sum(sum(columns[f]) for f in flags)
    return columns if sum(map(len, records)) == fields else None


def _bad_record(path: str | Path, lineno: int, exc: Exception) -> PersistenceError:
    if isinstance(exc, KeyError):
        return PersistenceError(f"{path}:{lineno}: record has no field {exc}")
    return PersistenceError(f"{path}:{lineno}: bad record: {exc}")


def read_jsonl(template: LineTemplate, path: str | Path, *,
               header: str | None = None) -> Iterator[dict[str, list]]:
    """The records of ``path`` as ``template``'s columns, one chunk of lines at a time.

    Every field must have its exact type, as ``write_jsonl`` leaves it: a
    string field a string, an int field an integer, a float field a finite
    float and a flag a boolean, absent for false. Nothing is converted, so
    ``"3"`` or ``3.0`` in an int field and ``2`` in a float field are
    refused, and a bool is never a number. A chunk is parsed whole
    (``parse_lines``), as every file ragmark writes is; any other chunk is
    read one line at a time, one ``json.loads`` a line, blank lines skipped
    and each record's fields checked in ``template.fields`` order. Each
    distinct value of a ``shared`` field is held once for the whole file. A
    line that is not JSON, or a record missing a field or holding a value
    its field refuses, is a PersistenceError naming ``path:line``; of two,
    the earlier line, and of two bad fields in one record, the earlier in
    ``template.fields``.

    With ``header``, a record holding that key is the file's header, as
    ``write_jsonl`` writes it: it must be the first record and hold an
    object, which is yielded first as ``{header: [object]}``.
    """
    held: dict[str, dict] = {name: {} for name in template.shared}
    fields = [(name, kind, _getter(name, kind)) for name, kind in template.fields.items()]
    first, misplaced = True, False  # first: no record read yet
    with open(path, encoding="utf-8") as fh:
        for start in itertools.count(1, CHUNK_ROWS):
            lines: list[str] = []
            try:
                lines.extend(itertools.islice(fh, CHUNK_ROWS))
                stop = None
            except UnicodeDecodeError as exc:  # raised once the lines before it are read
                stop = exc
            data = "".join(lines).encode("utf-8").removesuffix(b"\n")
            columns = parse_lines(template, data, len(lines))
            if columns is not None:
                first = first and not lines
            else:
                columns = {name: [] for name in template.fields}
                for lineno, text in enumerate(lines, start):
                    if text.isspace():
                        continue
                    try:
                        row = json.loads(text)
                        if header is not None and header in row:
                            value = _exact(row[header], dict)
                            if first:
                                yield {header: [value]}
                            misplaced |= not first
                        else:
                            for name, kind, get in fields:
                                columns[name].append(_exact(get(row), kind))
                    except _ROW_ERRORS as exc:
                        raise _bad_record(path, lineno, exc) from exc
                    first = False
            if stop is not None:
                raise stop
            for name, hold in held.items():
                columns[name] = list(map(hold.setdefault, columns[name], columns[name]))
            yield columns
            if len(lines) < CHUNK_ROWS:
                break
    if misplaced:
        raise PersistenceError(f"{path}: the {header} header must be the first record")


class FlatRecord(Generic[T]):
    """JSONL layout of a dataclass whose fields are plain JSON values.

    Each field is stored under its own name, through one ``LineTemplate``
    compiled from the field types, in the order the dataclass declares them,
    and is read back with its exact type (``read_jsonl``).
    """

    def __init__(self, cls: type[T]):
        hints = typing.get_type_hints(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        self.cls = cls
        self.template = LineTemplate({name: hints[name] for name in names})
        self._getters = {name: operator.attrgetter(name) for name in names}

    def _columns(self, objs: Sequence[T]) -> dict[str, list]:
        return {name: list(map(get, objs)) for name, get in self._getters.items()}

    def write(self, objs: Iterable[T], path: str | Path) -> None:
        write_jsonl(self.template, map(self._columns, chunked(objs)), path)

    def read(self, path: str | Path) -> list[T]:
        """The records of ``path``, each built from its row of the columns."""
        return list(itertools.chain.from_iterable(
            map(self.cls, *columns.values()) for columns in read_jsonl(self.template, path)))
