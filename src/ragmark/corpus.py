"""Corpus ingestion and chunking.

Raw documents are split into token-budgeted paragraphs and word-count
filtered sentences. Every token budget in ragmark (paragraphs, test-set
clusters, the model input) is counted by ``count_tokens``: words plus
standalone punctuation marks. No token spans whitespace, so counts add over
newline and space joins: context packing's running total relies on the
first, and paragraph re-packing's on the second.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import EmptyDocumentError
from .wire import FlatRecord

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
# A run of terminators, the whitespace after it and, unconsumed, the next character.
_BOUNDARY_RE = re.compile(r"([.!?]+)\s+(?=\S)")


# ---------------------------------------------------------------------------
# Token counting
# ---------------------------------------------------------------------------

def count_tokens(text: str) -> int:
    """Words plus standalone punctuation marks; adds over newline joins."""
    return len(_TOKEN_RE.findall(text))


def tokenize(text: str) -> list[str]:
    """Split into words and individual punctuation marks."""
    return _TOKEN_RE.findall(text)


def token_spans(text: str) -> list[tuple[int, int]]:
    """Character (start, end) span of every token, in order."""
    return [m.span() for m in _TOKEN_RE.finditer(text)]


def normalize_ws(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def truncate_to_token_budget(text: str, budget: int) -> tuple[str, str]:
    """Longest prefix of ``text`` ending on a token boundary within ``budget`` tokens.

    The prefix that ends at token k holds exactly k tokens, so the cut falls
    at the end of token ``budget``. Returns (prefix, remainder); prefix is ""
    when ``budget`` is not positive or ``text`` has no tokens.
    """
    spans = token_spans(text)
    if not spans or budget <= 0:
        return "", text
    cut = spans[min(budget, len(spans)) - 1][1]
    return text[:cut].rstrip(), text[cut:].lstrip()


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass
class Document:
    id: str
    title: str
    body: str


@dataclass
class Paragraph:
    doc_id: str
    ordinal: int
    text: str
    token_count: int


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

    A sentence ends at a run of '.', '!' or '?' followed by whitespace and an
    upper case letter or digit. A lone period directly after a known
    abbreviation does not end a sentence. Joining the sentences with single
    spaces recovers the input up to whitespace. Scanning stops where the
    caller stops taking sentences.
    """
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        after = text[m.end()]
        if not (after.isupper() or after.isdigit()):
            continue
        if m.group(1) == "." and _is_abbreviation(text, m.start()):
            continue
        yield text[start:m.end(1)].strip()
        start = m.end()
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


def check_word_range(min_words: int, max_words: int) -> None:
    """Reject a sentence word range that no sentence can fall in."""
    if min_words > max_words:
        raise ValueError(f"min_words ({min_words}) must not exceed max_words ({max_words})")


def filter_sentences(
    sentences: Iterable[Sentence],
    min_words: int = SENTENCE_MIN_WORDS,
    max_words: int = SENTENCE_MAX_WORDS,
) -> list[Sentence]:
    """Keep sentences whose word count lies in the closed interval [min_words, max_words]."""
    check_word_range(min_words, max_words)
    return [s for s in sentences if min_words <= s.word_count <= max_words]


# ---------------------------------------------------------------------------
# Paragraph splitting
# ---------------------------------------------------------------------------

def check_paragraph_budget(budget: int) -> None:
    """Reject a paragraph token budget too small to hold a short sentence."""
    if budget < 16:
        raise ValueError(f"budget must be at least 16 tokens, got {budget}")


def split_paragraphs(doc: Document, budget: int = PARAGRAPH_TOKEN_BUDGET) -> list[Paragraph]:
    """Chunk a document body into paragraphs within ``budget`` tokens.

    Blank lines mark the natural boundaries. A natural paragraph over budget
    is re-packed at sentence boundaries; a single sentence over budget is
    hard-split on token boundaries. A hard-split piece is an ordinary
    paragraph; nothing records that it was cut.
    """
    check_paragraph_budget(budget)
    body = doc.body.strip()
    if not body:
        raise EmptyDocumentError(f"document {doc.id!r} has an empty body")

    chunks: list[tuple[str, int]] = []
    for natural in _BLANK_LINE_RE.split(body):
        text = normalize_ws(natural)
        if not text:
            continue
        count = count_tokens(text)
        if count <= budget:
            chunks.append((text, count))
        else:
            chunks.extend(_split_oversize(text, budget))

    return [
        Paragraph(doc_id=doc.id, ordinal=i, text=text, token_count=count)
        for i, (text, count) in enumerate(chunks)
    ]


def _split_oversize(text: str, budget: int) -> list[tuple[str, int]]:
    """Sentences packed into (chunk, token count) pairs by a running total;
    a sentence over ``budget`` is cut after every ``budget``-th token."""
    chunks: list[tuple[str, int]] = []
    current: list[str] = []
    total = 0
    for sentence in iter_sentences(text):
        spans = token_spans(sentence)
        if current and total + len(spans) > budget:
            chunks.append((" ".join(current), total))
            current, total = [], 0
        if len(spans) <= budget:
            current.append(sentence)
            total += len(spans)
            continue
        for lo in range(0, len(spans), budget):
            piece = spans[lo:lo + budget]
            chunks.append((sentence[piece[0][0]:piece[-1][1]], len(piece)))
    if current:
        chunks.append((" ".join(current), total))
    return chunks


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
        docs.append(Document(id=f.stem, title=f.stem, body=body))
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


_PARAGRAPH = FlatRecord(Paragraph)
_SENTENCE = FlatRecord(Sentence)


def write_paragraphs_jsonl(paragraphs: Iterable[Paragraph], path: str | Path) -> None:
    _PARAGRAPH.write(paragraphs, path)


def read_paragraphs_jsonl(path: str | Path) -> list[Paragraph]:
    return _PARAGRAPH.read(path)


def write_sentences_jsonl(sentences: Iterable[Sentence], path: str | Path) -> None:
    _SENTENCE.write(sentences, path)


def read_sentences_jsonl(path: str | Path) -> list[Sentence]:
    return _SENTENCE.read(path)
