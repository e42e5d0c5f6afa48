"""Question-and-answer dataset construction.

Each paragraph is oversampled with up to five deduplicated questions from a
question-generator service (or its offline mock), and the train/validation
split only promotes questions whose paragraph keeps at least one sibling in
train, so validation always probes association rather than memorization.

A question client takes every text of a build in one call and answers each
in input order: the offline mock hashes them in one numpy pass, and the
HTTP client keeps ``QUESTION_GEN_WORKERS`` requests in flight.
"""

from __future__ import annotations

import logging
import random
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Protocol, Sequence

from .corpus import Paragraph
from .embed import fnv1a64_many
from .errors import BadResponseError, NoEligiblePairsError, RagmarkError
from .wire import JsonEndpoint, LineTemplate, chunked, read_jsonl, write_jsonl

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

MAX_QUESTIONS_PER_PARAGRAPH = 5
QUESTION_GEN_WORKERS = 4  # requests the HTTP question client keeps in flight
FALLBACK_QUESTION = "What does the following passage describe?"

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
    """Raw questions for many texts at once, asking for up to ``k`` each.

    ``generate`` returns one outcome per text, in input order: the text's
    raw question list, or the exception asking for it raised. A client may
    stop asking at an exception that is not a ``RagmarkError``, and at any
    exception when ``stop_at_error`` is set; each text it did not ask about
    is then answered with the exception that stopped it. A
    ``RagmarkError`` is a text's own failure; any other is a fault.
    """

    def generate(
        self, texts: Sequence[str], k: int, *, stop_at_error: bool = False
    ) -> list[list[str] | BaseException]: ...


def normalize_question(question: str) -> str:
    """Dedup key: lowercase, collapse whitespace, strip the trailing '?'."""
    q = " ".join(question.split()).lower()
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


def check_question_count(k: int, name: str = "k") -> None:
    """Reject asking for fewer than one question per text; ``name`` is the setting's name."""
    if k < 1:
        raise ValueError(f"{name} must be at least 1, got {k}")


def check_split_ratio(ratio: float) -> None:
    """Reject a validation share outside (0, 1), NaN included."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")


def questions_for(
    texts: Sequence[str], client: QuestionGenClient, k: int, *, stop_at_error: bool = False
) -> list[tuple[list[str], bool] | BaseException]:
    """Each text's questions and whether they are synthetic, or the exception it raised.

    One client call takes every text; ``stop_at_error`` is passed on to it,
    for a caller that fails at any exception. A text keeps between 1 and ``k``
    distinct questions: duplicates are removed case-insensitively after
    whitespace normalization, and a text yielding nothing usable gets the
    fixed fallback question, flagged synthetic.
    """
    check_question_count(k)
    outcomes = client.generate(texts, k, stop_at_error=stop_at_error)
    if len(outcomes) != len(texts):
        raise ValueError(f"question client answered {len(outcomes)} of {len(texts)} texts")
    return [outcome if isinstance(outcome, BaseException) else _usable(outcome, k)
            for outcome in outcomes]


def _usable(raw: list[str], k: int) -> tuple[list[str], bool]:
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

    One client call takes every paragraph. Client failures skip the
    affected paragraph with a warning, in paragraph order; the build fails
    only when no paragraph survived. The first other exception, in
    paragraph order, is raised after the warnings of the paragraphs before it.
    """
    if not paragraphs:
        raise ValueError("no paragraphs to build from")
    outcomes = questions_for([p.text for p in paragraphs], client, k)
    pairs = []
    for paragraph, outcome in zip(paragraphs, outcomes):
        if isinstance(outcome, RagmarkError):
            log.warning("skipping paragraph %s#%d: %s", paragraph.doc_id, paragraph.ordinal,
                        outcome)
            continue
        if isinstance(outcome, BaseException):
            raise outcome
        questions, synthetic = outcome
        for q in questions:
            pairs.append(
                QAPair(
                    question=q,
                    paragraph_ref=(paragraph.doc_id, paragraph.ordinal),
                    answer_text=paragraph.text,
                    synthetic=synthetic,
                )
            )
    if not pairs:
        raise RagmarkError("question generation failed for every paragraph")
    return QADataset(pairs=pairs)


def split_train_validation(
    ds: QADataset, ratio: float = 0.20, seed: int = 0
) -> tuple[QADataset, QADataset]:
    """Draw validation pairs only from paragraphs holding at least two questions.

    Every such paragraph keeps at least one question in train. The draw is a
    seeded uniform selection over eligible pairs; when the eligible pool is
    smaller than round(ratio * total) the whole pool is taken with a warning.
    """
    check_split_ratio(ratio)
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
    """Client for a question-generation service (POST /generate_questions, one text each)."""

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

    def generate(
        self, texts: Sequence[str], k: int, *, stop_at_error: bool = False
    ) -> list[list[str] | BaseException]:
        """Each text's questions, from ``QUESTION_GEN_WORKERS`` threads sharing one queue.

        Each thread takes the next text, so that many requests are in
        flight at once. Any exception other than a RagmarkError, and any
        exception at all under ``stop_at_error``, stops the queue: the
        requests in flight finish, and the texts nobody took are answered
        with the first stopping exception in text order.
        """
        from concurrent.futures import ThreadPoolExecutor  # only a client that waits on I/O

        outcomes: list = [None] * len(texts)  # each text's questions, or its exception
        stops: list[int] = []  # the texts whose exception stopped the queue
        queue = enumerate(texts)
        lock = threading.Lock()

        def work():
            while True:
                with lock:
                    i, text = next(queue, (None, None))
                if i is None:
                    return
                try:
                    outcomes[i] = self._questions(text, k)
                except BaseException as exc:
                    outcomes[i] = exc
                    if stop_at_error or not isinstance(exc, RagmarkError):
                        with lock:
                            stops.append(i)
                            for _ in queue:  # nobody takes another text
                                pass
                        return

        with ThreadPoolExecutor(max_workers=QUESTION_GEN_WORKERS) as pool:
            workers = [pool.submit(work) for _ in range(QUESTION_GEN_WORKERS)]
        for worker in workers:
            worker.result()
        if stops:  # the texts nobody took, all after every taken one
            stop = outcomes[min(stops)]
            outcomes = [stop if outcome is None else outcome for outcome in outcomes]
        return outcomes

    def _questions(self, text: str, k: int) -> list[str]:
        questions = self._http.post({"text": text, "k": k}).get("questions")
        if not isinstance(questions, list) or not all(isinstance(q, str) for q in questions):
            raise BadResponseError("questions field must be a list of strings")
        return questions


class MockQuestionGenClient:
    """Offline stand-in deriving questions from a paragraph's content words.

    Deterministic for a fixed seed: the word sample is keyed on a stable hash
    of the paragraph text, never on process state. All texts of a call are
    hashed in one ``fnv1a64_many``; the mock never fails, so
    ``stop_at_error`` changes nothing.
    """

    template = "What does the passage say about {}?"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(
        self, texts: Sequence[str], k: int, *, stop_at_error: bool = False
    ) -> list[list[str] | BaseException]:
        hashes = fnv1a64_many([text.encode("utf-8") for text in texts]).tolist()
        return [self._questions(text, h, k) for text, h in zip(texts, hashes)]

    def _questions(self, text: str, text_hash: int, k: int) -> list[str]:
        words = sorted(set(_CONTENT_WORD_RE.findall(text.lower())))
        if not words:
            return []
        rng = random.Random(text_hash ^ self.seed)
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

# The fields every stored pair has; each file adds the fields of its reference.
# ``synthetic`` is a flag, written only when set. The pairs of one paragraph
# (or cluster) share its text as their answer, so ``answer_text`` is escaped
# once per distinct text.
PAIR_FIELDS = {"question": str, "answer_text": str, "synthetic": bool}
PAIR_SHARED = ("answer_text",)


def pair_columns(pairs: Sequence[QAPair]) -> dict[str, list]:
    """The ``PAIR_FIELDS`` columns of ``pairs``."""
    return {"question": [p.question for p in pairs],
            "answer_text": [p.answer_text for p in pairs],
            "synthetic": [p.synthetic for p in pairs]}


def column_pairs(columns: Mapping[str, list],
                 refs: Iterable[tuple[str, int]]) -> Iterator[QAPair]:
    """The pairs whose ``PAIR_FIELDS`` columns are ``columns``, with references ``refs``."""
    return map(QAPair, columns["question"], refs, columns["answer_text"], columns["synthetic"])


# A record's reference is checked before its pair fields.
_QA = LineTemplate({"doc_id": str, "paragraph_ordinal": int, **PAIR_FIELDS}, PAIR_SHARED)


def _qa_columns(pairs: Sequence[QAPair]) -> dict[str, list]:
    return {**pair_columns(pairs), "doc_id": [p.paragraph_ref[0] for p in pairs],
            "paragraph_ordinal": [p.paragraph_ref[1] for p in pairs]}


def write_qa_jsonl(ds: QADataset, path: str | Path) -> None:
    write_jsonl(_QA, map(_qa_columns, chunked(ds.pairs)), path)


def read_qa_jsonl(path: str | Path) -> QADataset:
    pairs: list[QAPair] = []
    for columns in read_jsonl(_QA, path):
        pairs += column_pairs(columns, zip(columns["doc_id"], columns["paragraph_ordinal"]))
    return QADataset(pairs=pairs)
