"""Question-and-answer dataset construction.

Each paragraph is oversampled with up to five deduplicated questions from a
question-generator service (or its offline mock), and the train/validation
split only promotes questions whose paragraph keeps at least one sibling in
train, so validation always probes association rather than memorization.
"""

from __future__ import annotations

import logging
import random
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import requests

from .corpus import Paragraph
from .embed import fnv1a64
from .errors import BadResponseError, NoEligiblePairsError, RagmarkError
from .wire import JsonEndpoint, read_jsonl, write_jsonl

log = logging.getLogger(__name__)

MAX_QUESTIONS_PER_PARAGRAPH = 5
QUESTION_GEN_WORKERS = 4  # paragraphs sent to the question generator at once
FALLBACK_QUESTION = "What does the following passage describe?"

_WS_RE = re.compile(r"\s+")
_CONTENT_WORD_RE = re.compile(r"[a-z0-9]{4,}")


@dataclass
class QAPair:
    question: str
    paragraph_ref: tuple[str, int]  # (doc_id, paragraph ordinal)
    answer_text: str
    synthetic: bool = False  # True when the fallback question was substituted


@dataclass
class QADataset:
    pairs: list[QAPair]

    @property
    def counts(self) -> tuple[int, int]:
        """(distinct paragraphs, questions)."""
        return len({p.paragraph_ref for p in self.pairs}), len(self.pairs)


class QuestionGenClient(Protocol):
    def generate(self, paragraph_text: str, k: int) -> list[str]: ...


def normalize_question(question: str) -> str:
    """Dedup key: lowercase, collapse whitespace, strip the trailing '?'."""
    q = _WS_RE.sub(" ", question).strip().lower()
    return q[:-1].rstrip() if q.endswith("?") else q


def dedupe_questions(questions: Iterable[str]) -> list[str]:
    seen = set()
    out = []
    for q in questions:
        key = normalize_question(q)
        if not key or key in seen:
            continue
        seen.add(key)
        out.append(q.strip())
    return out


def questions_for(text: str, client: QuestionGenClient, k: int) -> tuple[list[str], bool]:
    """Between 1 and ``k`` distinct questions for ``text``, and whether they are synthetic.

    Duplicates are removed case-insensitively after whitespace normalization.
    A text yielding nothing usable gets the fixed fallback question, flagged
    synthetic.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    raw = client.generate(text, k)
    questions = dedupe_questions(q for q in raw if isinstance(q, str))[:k]
    if questions:
        return questions, False
    return [FALLBACK_QUESTION], True


def build_qa_dataset(
    paragraphs: Sequence[Paragraph],
    client: QuestionGenClient,
    k: int = MAX_QUESTIONS_PER_PARAGRAPH,
) -> QADataset:
    """Generate questions for every paragraph; the paragraph text is the answer.

    Client failures skip the affected paragraph with a warning; the build
    fails only when no paragraph survived.
    """
    if not paragraphs:
        raise ValueError("no paragraphs to build from")
    if k < 1:
        raise ValueError("k must be at least 1")

    def task(paragraph: Paragraph):
        return questions_for(paragraph.text, client, k)

    results: dict[int, tuple[list[str], bool]] = {}
    with ThreadPoolExecutor(max_workers=QUESTION_GEN_WORKERS) as pool:
        futures = {i: pool.submit(task, p) for i, p in enumerate(paragraphs)}
        for i, fut in futures.items():
            try:
                results[i] = fut.result()
            except RagmarkError as exc:
                log.warning(
                    "skipping paragraph %s#%d: %s",
                    paragraphs[i].doc_id, paragraphs[i].ordinal, exc,
                )
    if not results:
        raise RagmarkError("question generation failed for every paragraph")

    pairs = []
    for i, paragraph in enumerate(paragraphs):
        if i not in results:
            continue
        questions, synthetic = results[i]
        for q in questions:
            pairs.append(
                QAPair(
                    question=q,
                    paragraph_ref=(paragraph.doc_id, paragraph.ordinal),
                    answer_text=paragraph.text,
                    synthetic=synthetic,
                )
            )
    return QADataset(pairs=pairs)


def split_train_validation(
    ds: QADataset, ratio: float = 0.20, seed: int = 0
) -> tuple[QADataset, QADataset]:
    """Draw validation pairs only from paragraphs holding at least two questions.

    Every such paragraph keeps at least one question in train. The draw is a
    seeded uniform selection over eligible pairs; when the eligible pool is
    smaller than round(ratio * total) the whole pool is taken with a warning.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    group_sizes: dict[tuple[str, int], int] = {}
    for pair in ds.pairs:
        group_sizes[pair.paragraph_ref] = group_sizes.get(pair.paragraph_ref, 0) + 1
    eligible = [i for i, p in enumerate(ds.pairs) if group_sizes[p.paragraph_ref] >= 2]
    if not eligible:
        raise NoEligiblePairsError("no paragraph has more than one question")

    target = round(ratio * len(ds.pairs))
    capacity = sum(size - 1 for size in group_sizes.values() if size >= 2)
    if capacity < target:
        log.warning(
            "eligible pool (%d) smaller than requested validation size (%d); using the pool",
            capacity, target,
        )
        target = capacity

    rng = random.Random(seed)
    order = eligible[:]
    rng.shuffle(order)
    remaining = dict(group_sizes)
    chosen: set[int] = set()
    for i in order:
        if len(chosen) >= target:
            break
        ref = ds.pairs[i].paragraph_ref
        if remaining[ref] >= 2:  # never orphan a paragraph out of train
            chosen.add(i)
            remaining[ref] -= 1

    train = [p for i, p in enumerate(ds.pairs) if i not in chosen]
    validation = [p for i, p in enumerate(ds.pairs) if i in chosen]
    return QADataset(pairs=train), QADataset(pairs=validation)


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------

class HttpQuestionGenClient:
    """Client for a question-generation service (POST /generate_questions)."""

    def __init__(
        self,
        endpoint: str,
        timeout_ms: int = 10000,
        retries: int = 2,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self._http = JsonEndpoint(
            self.endpoint + "/generate_questions", what="question generation", config="qg",
            timeout_ms=timeout_ms, retries=retries, session=session,
        )

    def generate(self, paragraph_text: str, k: int) -> list[str]:
        questions = self._http.post({"text": paragraph_text, "k": k}).get("questions")
        if not isinstance(questions, list) or not all(isinstance(q, str) for q in questions):
            raise BadResponseError("questions field must be a list of strings")
        return questions


class MockQuestionGenClient:
    """Offline stand-in deriving questions from a paragraph's content words.

    Deterministic for a fixed seed: the word sample is keyed on a stable hash
    of the paragraph text, never on process state.
    """

    template = "What does the passage say about {}?"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, paragraph_text: str, k: int) -> list[str]:
        words = sorted(set(_CONTENT_WORD_RE.findall(paragraph_text.lower())))
        if not words:
            return []
        rng = random.Random(fnv1a64(paragraph_text.encode("utf-8")) ^ self.seed)
        picked = words if len(words) <= k else rng.sample(words, k)
        return [self.template.format(w) for w in picked]


def make_question_client(
    spec: str, *, timeout_ms: int = 10000, retries: int = 2
) -> QuestionGenClient:
    """``mock`` or ``mock:<seed>`` gives the offline mock, an http(s) URL the HTTP client."""
    mock = re.fullmatch(r"mock(?::(-?\d+))?", spec)
    if mock:
        return MockQuestionGenClient(seed=int(mock[1]) if mock[1] else 0)
    if spec.startswith("http://") or spec.startswith("https://"):
        return HttpQuestionGenClient(spec, timeout_ms=timeout_ms, retries=retries)
    raise ValueError(f"unrecognized question generator spec: {spec!r}")


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def encode_pair(pair: QAPair, **ref) -> dict:
    """JSONL record of a pair: its texts, the ``ref`` fields, and ``synthetic`` only when set."""
    rec = {"question": pair.question, "answer_text": pair.answer_text, **ref}
    if pair.synthetic:
        rec["synthetic"] = True
    return rec


def decode_pair(rec: dict, paragraph_ref: tuple[str, int]) -> QAPair:
    return QAPair(question=rec["question"], paragraph_ref=paragraph_ref,
                  answer_text=rec["answer_text"], synthetic=rec.get("synthetic", False))


def _encode_qa(pair: QAPair) -> dict:
    doc_id, ordinal = pair.paragraph_ref
    return encode_pair(pair, doc_id=doc_id, paragraph_ordinal=ordinal)


def _decode_qa(rec: dict) -> QAPair:
    return decode_pair(rec, (rec["doc_id"], int(rec["paragraph_ordinal"])))


def write_qa_jsonl(ds: QADataset, path: str | Path) -> None:
    write_jsonl(map(_encode_qa, ds.pairs), path)


def read_qa_jsonl(path: str | Path) -> QADataset:
    return QADataset(pairs=read_jsonl(path, _decode_qa))
