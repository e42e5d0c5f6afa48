"""Synthetic corpus of vocabulary-disjoint topics for end-to-end tests.

Every sentence of topic ``t`` contains all of the topic's core words plus a
few topic-local extras, so same-topic cosine similarity is high, cross-topic
similarity is near zero, and hand-built topic questions retrieve their own
topic at threshold 0.5 while nothing in either index is a perfect match.
"""

import random

from ragmark.corpus import (
    Document,
    extract_sentences,
    filter_sentences,
    split_paragraphs,
)
from ragmark.embed import fnv1a64
from ragmark.qagen import QAPair

EMBED_DIM = 512
DEFAULT_SEED = 11

QUESTION_TEMPLATE = "What does the passage say about {}?"


def word_bucket(word, dim):
    """The component of a ``LocalHashEmbedder(dim)`` vector that ``word`` counts in."""
    return fnv1a64(word.lower().encode()) % dim


def make_topic_corpus(
    seed=DEFAULT_SEED,
    topics=3,
    sentences_per_topic=8,
    words_per_sentence=12,
    core_size=8,
    extra_pool=8,
):
    """Build (documents, vocab) where vocab[t] = (core_words, extra_words)."""
    rng = random.Random(seed)
    docs, vocab = [], []
    for t in range(topics):
        core = [f"topic{t}core{j:02d}" for j in range(core_size)]
        extras = [f"topic{t}extra{j:02d}" for j in range(extra_pool)]
        vocab.append((core, extras))
        sentences = []
        for _ in range(sentences_per_topic):
            words = core + rng.sample(extras, words_per_sentence - core_size)
            rng.shuffle(words)
            text = " ".join(words)
            sentences.append(text[0].upper() + text[1:] + ".")
        paras = [" ".join(sentences[i: i + 4]) for i in range(0, len(sentences), 4)]
        docs.append(Document(id=f"doc{t}", title=f"topic {t}", body="\n\n".join(paras)))
    return docs, vocab


def make_oversize_topic_doc(vocab_words, doc_id="bigdoc", sentences=20, words_per_sentence=14):
    """One topic whose sentences total 300 tokens (20 x 14 words + periods)."""
    rng = random.Random(97)
    out = []
    for _ in range(sentences):
        words = [rng.choice(vocab_words) for _ in range(words_per_sentence)]
        text = " ".join(words)
        out.append(text[0].upper() + text[1:] + ".")
    paras = [" ".join(out[i: i + 4]) for i in range(0, len(out), 4)]
    return Document(id=doc_id, title=doc_id, body="\n\n".join(paras))


def corpus_pipeline(docs):
    """documents -> (paragraphs, filtered sentences) at the default budget."""
    paragraphs = [p for d in docs for p in split_paragraphs(d)]
    sentences = filter_sentences(extract_sentences(paragraphs))
    return paragraphs, sentences


def topic_question(vocab, t, n_core=8):
    core = vocab[t][0][:n_core]
    return QUESTION_TEMPLATE.format(" ".join(core))


def make_test_pairs(vocab, sentences, per_topic=2):
    """Hand-built test pairs: topic questions answered by two topic sentences."""
    by_topic = {}
    for s in sentences:
        by_topic.setdefault(s.doc_id, []).append(s)
    pairs = []
    for t in range(len(vocab)):
        topic_sents = by_topic[f"doc{t}"]
        for k in range(per_topic):
            question = topic_question(vocab, t, n_core=8 - k)
            answer = topic_sents[2 * k].text + " " + topic_sents[2 * k + 1].text
            pairs.append(
                QAPair(question=question, paragraph_ref=("cluster", t), answer_text=answer)
            )
    return pairs
