"""Corpus ingestion and chunking.

Raw documents are split into token-budgeted paragraphs and word-count
filtered sentences. Token accounting is pluggable: a run counts with one
counter, the tokenizer of the model it targets, and every emitted paragraph
fits the budget under that counter.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, runtime_checkable

from .errors import EmptyDocumentError
from .wire import FlatRecord, read_jsonl, write_jsonl

log = logging.getLogger(__name__)

PARAGRAPH_TOKEN_BUDGET = 256
SENTENCE_MIN_WORDS = 10
SENTENCE_MAX_WORDS = 30

# Words whose trailing period does not terminate a sentence.
ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "sr", "jr", "st", "vs", "etc",
    "e.g", "i.e", "cf", "ca", "al", "fig", "eq", "no", "vol", "pp", "approx",
})

# High-precision markers for LaTeX-contaminated bodies.
LATEX_MARKERS = ("\\begin{", "\\end{", "$$", "\\cite{", "\\frac")

# Rejection reason codes emitted by filter_cord19.
REJECT_MALFORMED = "malformed_record"
REJECT_NO_ABSTRACT = "empty_abstract"
REJECT_NOT_PMC = "not_pmc"
REJECT_NO_ARXIV = "missing_arxiv_id"
REJECT_LATEX = "latex_detected"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_BLANK_LINE_RE = re.compile(r"\n\s*\n")
_WS_RE = re.compile(r"\s+")
_TERMINATORS = ".!?"


# ---------------------------------------------------------------------------
# Token counting
# ---------------------------------------------------------------------------

@runtime_checkable
class TokenCounter(Protocol):
    """Deterministic token counter; count("") must be 0.

    Counts must also add over newline joins: count(a + "\n" + b) must equal
    count(a) + count(b). Context packing relies on this to count each
    payload once instead of re-counting the joined context.
    """

    name: str

    def count(self, text: str) -> int: ...


def require_counter(counter: object) -> None:
    """Raise ``TypeError`` unless ``counter`` is one ``TokenCounter``.

    A list or str also has a ``count`` method, which would silently count
    list items or substrings; neither has a ``name``, so both fail here.
    """
    if not isinstance(counter, TokenCounter):
        raise TypeError(
            f"expected one TokenCounter with name and count, got {type(counter).__name__}"
        )


class WhitespacePunctCounter:
    """Baseline counter: whitespace-separated words plus standalone punctuation marks."""

    name = "ws-punct"

    def count(self, text: str) -> int:
        return len(_TOKEN_RE.findall(text))


def tokenize(text: str) -> list[str]:
    """Split into words and individual punctuation marks."""
    return _TOKEN_RE.findall(text)


def token_spans(text: str) -> list[tuple[int, int]]:
    """Character (start, end) span of every token, in order."""
    return [m.span() for m in _TOKEN_RE.finditer(text)]


def normalize_ws(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def truncate_to_token_budget(
    text: str, counter: TokenCounter, budget: int
) -> tuple[str, str]:
    """Longest prefix of ``text`` ending on a token boundary that fits ``budget``.

    Boundaries are the baseline tokenizer's; the fit check runs against
    ``counter``. Returns (prefix, remainder); prefix is "" when not even one
    token fits.
    """
    require_counter(counter)
    spans = token_spans(text)
    if not spans or budget <= 0:
        return "", text
    lo, hi = 0, len(spans)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if counter.count(text[: spans[mid - 1][1]]) <= budget:
            lo = mid
        else:
            hi = mid - 1
    # Binary search assumes counts grow with the prefix; verify and back off
    # in case the counter is not monotone.
    k = lo
    while k > 0 and counter.count(text[: spans[k - 1][1]]) > budget:
        k -= 1
    if k == 0:
        return "", text
    cut = spans[k - 1][1]
    return text[:cut].rstrip(), text[cut:].lstrip()


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass
class Document:
    id: str
    title: str
    body: str
    source_meta: dict[str, str] = field(default_factory=dict)


@dataclass
class Paragraph:
    doc_id: str
    ordinal: int
    text: str
    token_count: int
    source_meta: dict[str, str] = field(default_factory=dict)


@dataclass
class Sentence:
    doc_id: str
    paragraph_ordinal: int
    ordinal: int
    text: str
    word_count: int


# ---------------------------------------------------------------------------
# Filtering CORD-19-shaped records
# ---------------------------------------------------------------------------

def filter_cord19(
    records: Iterable[dict], rejections: list[tuple[int, str]] | None = None
) -> list[Document]:
    """Keep records with an abstract, PubMed Central membership, an arxiv id,
    and a LaTeX-free body.

    Order is preserved and a bad record never fails the batch. Pass a list as
    ``rejections`` to collect (input_index, reason_code) for excluded records.
    """
    docs = []
    for i, rec in enumerate(records):
        reason = _cord19_rejection(rec)
        if reason is None:
            docs.append(
                Document(
                    id=str(rec["paper_id"]),
                    title=str(rec.get("title", "")),
                    body=str(rec["body_text"]),
                    source_meta={
                        "repository": str(rec.get("repository", "")),
                        "arxiv_id": str(rec.get("arxiv_id", "")),
                        "has_abstract": "true",
                    },
                )
            )
        else:
            if rejections is not None:
                rejections.append((i, reason))
            log.debug("record %d rejected: %s", i, reason)
    return docs


def _cord19_rejection(rec) -> str | None:
    if not isinstance(rec, dict):
        return REJECT_MALFORMED
    paper_id = rec.get("paper_id")
    body = rec.get("body_text")
    if not isinstance(paper_id, str) or not paper_id.strip():
        return REJECT_MALFORMED
    if not isinstance(body, str) or not body.strip():
        return REJECT_MALFORMED
    abstract = rec.get("abstract")
    if not isinstance(abstract, str) or not abstract.strip():
        return REJECT_NO_ABSTRACT
    repository = str(rec.get("repository") or "").lower()
    if "pmc" not in repository and "pubmed" not in repository:
        return REJECT_NOT_PMC
    arxiv_id = rec.get("arxiv_id")
    if not isinstance(arxiv_id, str) or not arxiv_id.strip():
        return REJECT_NO_ARXIV
    if any(marker in body for marker in LATEX_MARKERS):
        return REJECT_LATEX
    return None


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

def split_sentences(text: str) -> list[str]:
    """Every sentence of ``text``; see ``iter_sentences`` for the rules."""
    return list(iter_sentences(text))


def iter_sentences(text: str) -> Iterator[str]:
    """Rule-based sentence boundary detection, one sentence at a time.

    A sentence ends at '.', '!' or '?' followed by whitespace and an upper
    case letter or digit. A period directly after a known abbreviation does
    not end a sentence. Joining the sentences with single spaces recovers
    the input up to whitespace. Scanning stops where the caller stops
    taking sentences.
    """
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] not in _TERMINATORS:
            i += 1
            continue
        j = i
        while j + 1 < n and text[j + 1] in _TERMINATORS:
            j += 1
        k = j + 1
        if k < n and text[k].isspace():
            m = k
            while m < n and text[m].isspace():
                m += 1
            if m < n and (text[m].isupper() or text[m].isdigit()):
                if not (text[i] == "." and i == j and _is_abbreviation(text, i)):
                    piece = text[start: j + 1].strip()
                    if piece:
                        yield piece
                    start = m
        i = j + 1
    tail = text[start:].strip()
    if tail:
        yield tail


def _is_abbreviation(text: str, dot_index: int) -> bool:
    s = dot_index
    while s > 0 and not text[s - 1].isspace():
        s -= 1
    word = text[s:dot_index].lstrip("([\"'").lower()
    return word in ABBREVIATIONS


def extract_sentences(paragraphs: Iterable[Paragraph]) -> list[Sentence]:
    """Split every paragraph into Sentence records with whitespace word counts."""
    out = []
    for para in paragraphs:
        for i, text in enumerate(split_sentences(para.text)):
            out.append(
                Sentence(
                    doc_id=para.doc_id,
                    paragraph_ordinal=para.ordinal,
                    ordinal=i,
                    text=text,
                    word_count=len(text.split()),
                )
            )
    return out


def filter_sentences(
    sentences: Iterable[Sentence],
    min_words: int = SENTENCE_MIN_WORDS,
    max_words: int = SENTENCE_MAX_WORDS,
) -> list[Sentence]:
    """Keep sentences whose word count lies in the closed interval [min_words, max_words]."""
    if min_words > max_words:
        raise ValueError("min_words must not exceed max_words")
    return [s for s in sentences if min_words <= s.word_count <= max_words]


# ---------------------------------------------------------------------------
# Paragraph splitting
# ---------------------------------------------------------------------------

def split_paragraphs(
    doc: Document,
    counter: TokenCounter,
    budget: int = PARAGRAPH_TOKEN_BUDGET,
) -> list[Paragraph]:
    """Chunk a document body into paragraphs within ``budget`` tokens of ``counter``.

    Blank lines mark the natural boundaries. A natural paragraph over budget
    is re-packed at sentence boundaries; a single sentence over budget is
    hard-split on a token boundary and flagged ``hard_split`` in the chunk's
    source_meta so lossy-looking joins remain auditable.
    """
    require_counter(counter)
    if budget < 16:
        raise ValueError("budget must be at least 16 tokens")
    body = doc.body.strip()
    if not body:
        raise EmptyDocumentError(f"document {doc.id!r} has an empty body")

    chunks: list[tuple[str, bool]] = []
    for natural in _BLANK_LINE_RE.split(body):
        text = normalize_ws(natural)
        if not text:
            continue
        if counter.count(text) <= budget:
            chunks.append((text, False))
        else:
            chunks.extend(_split_oversize(text, counter, budget))

    return [
        Paragraph(
            doc_id=doc.id,
            ordinal=i,
            text=text,
            token_count=counter.count(text),
            source_meta={"hard_split": "true"} if hard else {},
        )
        for i, (text, hard) in enumerate(chunks)
    ]


def _split_oversize(text: str, counter: TokenCounter, budget: int) -> list[tuple[str, bool]]:
    chunks: list[tuple[str, bool]] = []
    current: list[str] = []

    def flush():
        if current:
            chunks.append((" ".join(current), False))
            current.clear()

    for sentence in split_sentences(text):
        if counter.count(sentence) > budget:
            flush()
            chunks.extend((piece, True) for piece in _hard_split(sentence, counter, budget))
            continue
        if current and counter.count(" ".join(current + [sentence])) > budget:
            flush()
        current.append(sentence)
    flush()
    return chunks


def _hard_split(text: str, counter: TokenCounter, budget: int) -> list[str]:
    pieces = []
    rest = text
    while rest:
        prefix, remainder = truncate_to_token_budget(rest, counter, budget)
        if not prefix:
            # Guarantee progress even if one token alone exceeds the budget.
            spans = token_spans(rest)
            prefix, remainder = rest[: spans[0][1]], rest[spans[0][1]:].lstrip()
        pieces.append(prefix)
        rest = remainder
    return pieces


# ---------------------------------------------------------------------------
# Input loading and JSONL persistence
# ---------------------------------------------------------------------------

def load_text_documents(path: str | Path) -> list[Document]:
    """Read UTF-8 text files (one document each); directories are walked sorted."""
    p = Path(path)
    files = sorted(p.glob("*.txt")) if p.is_dir() else [p]
    docs = []
    for f in files:
        body = f.read_text(encoding="utf-8")
        docs.append(Document(id=f.stem, title=f.stem, body=body, source_meta={"path": str(f)}))
    return docs


def load_cord19_jsonl(path: str | Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                records.append({"_raw": line})  # surfaces as malformed_record downstream
    return records


_PARAGRAPH = FlatRecord(Paragraph, omit=("source_meta",))
_SENTENCE = FlatRecord(Sentence)


def write_paragraphs_jsonl(paragraphs: Iterable[Paragraph], path: str | Path) -> None:
    write_jsonl(map(_PARAGRAPH.encode, paragraphs), path)


def read_paragraphs_jsonl(path: str | Path) -> list[Paragraph]:
    return read_jsonl(path, _PARAGRAPH.decode)


def write_sentences_jsonl(sentences: Iterable[Sentence], path: str | Path) -> None:
    write_jsonl(map(_SENTENCE.encode, sentences), path)


def read_sentences_jsonl(path: str | Path) -> list[Sentence]:
    return read_jsonl(path, _SENTENCE.decode)
