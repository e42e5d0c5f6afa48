"""Uniform client contract for text-generation endpoints.

Base and fine-tuned models sit behind the same minimal HTTP shape, so
swapping arms in an experiment is a config change. The extractive mock is a
pure function of the request and keeps the whole evaluation loop offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import requests

from .corpus import iter_sentences
from .errors import BadResponseError
from .wire import JsonEndpoint

NO_ANSWER = "I do not know."

# Markers of the default prompt layout, used by the extractive mock.
_CONTEXT_HEADER = "Context:\n"
_QUESTION_HEADER = "\n\nQuestion:"


@dataclass
class GenerationRequest:
    prompt: str
    max_new_tokens: int = 256
    temperature: float = 0.0
    stop_sequences: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be at least 1")
        if self.temperature < 0.0:
            raise ValueError("temperature must be nonnegative")


class GenerationClient(Protocol):
    """At temperature 0, repeated calls on one request must return identical text."""

    name: str

    def generate(self, request: GenerationRequest) -> str: ...


class RemoteGenerationClient:
    """Client for a generation endpoint (POST /generate) with retry on 5xx/transport."""

    def __init__(
        self,
        endpoint: str,
        timeout_ms: int = 30000,
        retries: int = 1,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.name = f"remote:{self.endpoint}"
        self._http = JsonEndpoint(
            self.endpoint + "/generate", what="generation", config="gen",
            timeout_ms=timeout_ms, retries=retries, session=session,
        )

    def generate(self, request: GenerationRequest) -> str:
        body = self._http.post({
            "prompt": request.prompt,
            "max_new_tokens": request.max_new_tokens,
            "temperature": request.temperature,
            "stop": request.stop_sequences,
        })
        text = body.get("text")
        if not isinstance(text, str):
            raise BadResponseError("text field must be a string")
        return text


def _context_block(prompt: str) -> str:
    start = prompt.find(_CONTEXT_HEADER)
    if start < 0:
        return ""
    start += len(_CONTEXT_HEADER)
    end = prompt.find(_QUESTION_HEADER, start)
    if end < 0:
        end = len(prompt)
    return prompt[start:end].strip()


def generate_mock_extractive(request: GenerationRequest) -> str:
    """First sentence of the prompt's Context block, else a fixed refusal."""
    block = _context_block(request.prompt)
    if not block:
        return NO_ANSWER
    return next(iter_sentences(block), NO_ANSWER)


class ExtractiveMockClient:
    """Deterministic offline generator built on generate_mock_extractive."""

    name = "mock:extractive"

    def generate(self, request: GenerationRequest) -> str:
        return generate_mock_extractive(request)


def make_generation_client(
    spec: str,
    *,
    timeout_ms: int = 30000,
    retries: int = 1,
) -> GenerationClient:
    """``mock:extractive`` gives the offline mock, an http(s) URL the HTTP client."""
    if spec == "mock:extractive":
        return ExtractiveMockClient()
    if spec.startswith("http://") or spec.startswith("https://"):
        return RemoteGenerationClient(spec, timeout_ms=timeout_ms, retries=retries)
    raise ValueError(f"unrecognized generation endpoint spec: {spec!r}")
