"""The two formats ragmark exchanges with the outside: JSON over HTTP and JSONL files.

``JsonEndpoint`` is the one HTTP path, so the status mapping and the retry
rule live here. ``write_jsonl``/``read_jsonl`` are the one JSONL codec; each
record type supplies only its field mapping (``FlatRecord`` for flat dataclasses).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import typing
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Generic, Iterable, TypeVar

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


_ENCODER = json.JSONEncoder(sort_keys=True)


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """One sorted-key JSON object per line, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_ENCODER.encode(rec) + "\n" for rec in records)


def read_jsonl(path: str | Path, decode: Callable[[dict], T]) -> list[T]:
    """``decode`` applied to the record on every non-blank line of ``path``.

    A line that is not JSON, or a record ``decode`` rejects (a missing field
    raises KeyError, a value it cannot coerce ValueError, TypeError or
    OverflowError), is a PersistenceError naming ``path:line``.
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
            except (TypeError, ValueError, OverflowError) as exc:
                raise PersistenceError(f"{path}:{lineno}: bad record: {exc}") from exc
    return out


def _finite(value: Any) -> float:
    """``float(value)``, refusing a JSON boolean, NaN and the infinities, which JSON cannot hold."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _integer(value: Any) -> int:
    """``int(value)``, refusing a JSON boolean and a float with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


_COERCE: dict[Any, Callable[[Any], Any]] = {int: _integer, float: _finite}


class FlatRecord(Generic[T]):
    """JSONL field mapping of a dataclass whose fields are plain JSON values.

    Each field is stored under its own name. int and float fields are
    coerced on read, which checks values that come from outside; an int
    field must be integral and not a boolean, a float field must be finite
    and not a boolean.
    """

    def __init__(self, cls: type[T]):
        hints = typing.get_type_hints(cls)
        self.cls = cls
        self.fields = tuple((f.name, _COERCE.get(hints[f.name])) for f in dataclasses.fields(cls))

    def encode(self, obj: T) -> dict[str, Any]:
        return {name: getattr(obj, name) for name, _ in self.fields}

    def decode(self, rec: dict) -> T:
        return self.cls(**{
            name: rec[name] if coerce is None else coerce(rec[name])
            for name, coerce in self.fields
        })
