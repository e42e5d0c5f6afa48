"""The two formats ragmark exchanges with the outside: JSON over HTTP and JSONL files.

``JsonEndpoint`` is the one HTTP path, so the status mapping and the retry
rule live here. ``write_jsonl``/``read_jsonl`` are the one JSONL codec; each
record type supplies only its field mapping (``FlatRecord`` for flat dataclasses).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import typing
from pathlib import Path
from typing import Any, Callable, Generic, Iterable, TypeVar

import requests

from .errors import BadResponseError, ConfigError, PersistenceError, TransportError

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
        self.url = url
        self.what = what
        self.timeout = timeout_ms / 1000.0
        self.retries = retries
        self._session = session or requests.Session()

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
        except requests.RequestException as exc:
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


_ENCODER = json.JSONEncoder(sort_keys=True)


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """One sorted-key JSON object per line, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_ENCODER.encode(rec) + "\n" for rec in records)


def read_jsonl(path: str | Path, decode: Callable[[dict], T]) -> list[T]:
    """``decode`` applied to the record on every non-blank line of ``path``.

    A line that is not JSON, or a record ``decode`` rejects (a missing field
    raises KeyError, a value it cannot coerce ValueError or TypeError), is a
    PersistenceError naming ``path:line``.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, 1):
            if text.isspace():
                continue
            try:
                out.append(decode(json.loads(text)))
            except KeyError as exc:
                raise PersistenceError(f"{path}:{lineno}: record has no field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise PersistenceError(f"{path}:{lineno}: bad record: {exc}") from exc
    return out


_COERCE: dict[Any, Callable[[Any], Any]] = {int: int, float: float}


class FlatRecord(Generic[T]):
    """JSONL field mapping of a dataclass whose fields are plain JSON values.

    Each field is stored under its own name; fields in ``omit`` are not
    stored and take their defaults on read. int and float fields are coerced
    on read, which checks values that come from outside.
    """

    def __init__(self, cls: type[T], omit: tuple[str, ...] = ()):
        hints = typing.get_type_hints(cls)
        self.cls = cls
        self.fields = tuple(
            (f.name, _COERCE.get(hints[f.name]))
            for f in dataclasses.fields(cls)
            if f.name not in omit
        )

    def encode(self, obj: T) -> dict[str, Any]:
        return {name: getattr(obj, name) for name, _ in self.fields}

    def decode(self, rec: dict) -> T:
        return self.cls(**{
            name: rec[name] if coerce is None else coerce(rec[name])
            for name, coerce in self.fields
        })
