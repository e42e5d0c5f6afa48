"""Seeded synthetic topic corpus and topic test set for the benchmark.

Every topic owns a vocabulary of made-up six-letter words that no other
topic uses: a core of words that appear in every sentence of the topic, and
a pool of extras from which each sentence draws the rest of its words. So
same-topic sentences are close under a bag-of-words embedding, cross-topic
sentences are nearly orthogonal, and a question built from core words
retrieves its own topic.

The vocabulary, the word order and the test questions all come from one
``random.Random(seed)``; the same seed always gives the same files. This
module imports nothing from ragmark or from the test suite, so neither can
shift the inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

QUESTION_TEMPLATE = "What does the passage say about {}?"
# ragmark qa-gen's default; the mock reaches it on any paragraph with 5+ content words
QUESTIONS_PER_PARAGRAPH = 5

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Topic:
    core: tuple[str, ...]
    sentences: tuple[str, ...]


@dataclass(frozen=True)
class TopicCorpus:
    topics: tuple[Topic, ...]
    sentences_per_paragraph: int

    @property
    def sentence_count(self) -> int:
        return sum(len(t.sentences) for t in self.topics)

    @property
    def paragraph_count(self) -> int:
        return sum(math.ceil(len(t.sentences) / self.sentences_per_paragraph) for t in self.topics)

    @property
    def question_count(self) -> int:
        return self.paragraph_count * QUESTIONS_PER_PARAGRAPH

    def documents(self) -> dict[str, str]:
        """File stem -> body: one document per topic, blank lines between paragraphs."""
        docs = {}
        spp = self.sentences_per_paragraph
        for t, topic in enumerate(self.topics):
            paras = [" ".join(topic.sentences[i: i + spp])
                     for i in range(0, len(topic.sentences), spp)]
            docs[doc_id(t)] = "\n\n".join(paras) + "\n"
        return docs


def doc_id(t: int) -> str:
    return f"topic{t:04d}"


def _words(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct three-syllable words, in draw order."""
    seen: set[str] = set()
    out = []
    while len(out) < count:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def make_corpus(
    seed: int,
    topics: int,
    sentences_per_topic: int,
    *,
    words_per_sentence: int = 12,
    core_size: int = 8,
    extra_pool: int = 8,
    sentences_per_paragraph: int = 4,
) -> TopicCorpus:
    """Vocabulary-disjoint topics of ``sentences_per_topic`` sentences each.

    A sentence is the topic's core words plus ``words_per_sentence -
    core_size`` extras, shuffled, capitalised and closed with a period:
    12 words and 13 tokens by default, inside ingest's 10..30 word filter.
    """
    if not core_size < words_per_sentence <= core_size + extra_pool:
        raise ValueError("need core_size < words_per_sentence <= core_size + extra_pool")
    rng = random.Random(seed)
    vocab = _words(rng, topics * (core_size + extra_pool))
    out = []
    for t in range(topics):
        words = vocab[t * (core_size + extra_pool): (t + 1) * (core_size + extra_pool)]
        core, extras = words[:core_size], words[core_size:]
        sentences = []
        for _ in range(sentences_per_topic):
            picked = core + rng.sample(extras, words_per_sentence - core_size)
            rng.shuffle(picked)
            text = " ".join(picked)
            sentences.append(text[0].upper() + text[1:] + ".")
        out.append(Topic(tuple(core), tuple(sentences)))
    return TopicCorpus(tuple(out), sentences_per_paragraph)


def write_corpus(corpus: TopicCorpus, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for stem, body in corpus.documents().items():
        (directory / f"{stem}.txt").write_text(body, encoding="utf-8")


def topic_question(rng: random.Random, topic: Topic) -> str:
    """A question naming all of the topic's core words, in random order.

    With the default sizes its cosine to every sentence of its topic is
    about 8 / sqrt(14 * 12) = 0.62, so it retrieves its topic at threshold
    0.5. With fewer core words it would not: five give 0.43.
    """
    return QUESTION_TEMPLATE.format(" ".join(rng.sample(topic.core, len(topic.core))))


def topic_test_pairs(
    seed: int, corpus: TopicCorpus, topics: list[int]
) -> list[tuple[str, str, int]]:
    """One (question, reference, topic) triple per topic; the reference is two of its sentences."""
    rng = random.Random(seed ^ 0x5EED)
    pairs = []
    for t in topics:
        topic = corpus.topics[t]
        i, j = sorted(rng.sample(range(len(topic.sentences)), 2))
        pairs.append((topic_question(rng, topic), topic.sentences[i] + " " + topic.sentences[j], t))
    return pairs


def write_test_set(pairs: list[tuple[str, str, int]], path: Path) -> None:
    """The test-set JSONL layout ``ragmark sweep`` reads: a params line, then one pair a line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"params": {"source": "bench.topics"}}, sort_keys=True) + "\n")
        for question, answer, t in pairs:
            rec = {"question": question, "answer_text": answer, "cluster_id": t}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
