"""Exact bytes of every JSONL writer, and of ``ragmark ask``'s output.

One sorted-key JSON object per line, ASCII-escaped, newline-terminated.
Optional fields (``synthetic``) appear only when set, and the test set
starts with its ``params`` header. The report files of a fixed table, the
two files of a sentence and a question index of the topic fixture, what
``ask`` prints over those two indexes, what ``ingest`` splits one
hand-made document into, and the Q&A files (with the train/val split) and
test set that ``qa-gen`` and ``testgen`` write for the topic fixture are
compared with the copies under ``golden/``.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from oracles import entries_of
from topicfix import (
    EMBED_DIM,
    corpus_pipeline,
    make_test_pairs,
    make_topic_corpus,
    topic_question,
)
from ragmark import testgen
from ragmark.cli import main
from ragmark.corpus import Paragraph, Sentence, write_paragraphs_jsonl, write_sentences_jsonl
from ragmark.embed import LocalHashEmbedder
from ragmark.experiment import emit_report, summarize
from ragmark.index import (
    build_question_index,
    build_sentence_index,
    keys_path,
    load_index,
    save_index,
)
from ragmark.metrics import ScoreRow, write_score_rows_jsonl
from ragmark.qagen import QADataset, QAPair, write_qa_jsonl


def written(write, obj, tmp_path):
    path = tmp_path / "out.jsonl"
    write(obj, path)
    return path.read_bytes()


def test_paragraphs(tmp_path):
    paras = [
        Paragraph("d1", 0, 'Alpha "beta" café.', 5),
        Paragraph("d1", 1, "Gamma.", 2),
    ]
    assert written(write_paragraphs_jsonl, paras, tmp_path) == (
        b'{"doc_id": "d1", "ordinal": 0, "text": "Alpha \\"beta\\" caf\\u00e9.", "token_count": 5}\n'
        b'{"doc_id": "d1", "ordinal": 1, "text": "Gamma.", "token_count": 2}\n'
    )


def test_sentences(tmp_path):
    sentences = [Sentence("d1", 0, 0, "a b\tc", 3), Sentence("d2", 3, 1, "d e", 2)]
    assert written(write_sentences_jsonl, sentences, tmp_path) == (
        b'{"doc_id": "d1", "ordinal": 0, "paragraph_ordinal": 0, "text": "a b\\tc", "word_count": 3}\n'
        b'{"doc_id": "d2", "ordinal": 1, "paragraph_ordinal": 3, "text": "d e", "word_count": 2}\n'
    )


def test_qa_pairs_with_and_without_synthetic(tmp_path):
    ds = QADataset(pairs=[
        QAPair("What gives?", ("doc", 0), "The answer."),
        QAPair("Fallback?", ("doc", 7), "Another.", synthetic=True),
    ])
    assert written(write_qa_jsonl, ds, tmp_path) == (
        b'{"answer_text": "The answer.", "doc_id": "doc", "paragraph_ordinal": 0, '
        b'"question": "What gives?"}\n'
        b'{"answer_text": "Another.", "doc_id": "doc", "paragraph_ordinal": 7, '
        b'"question": "Fallback?", "synthetic": true}\n'
    )


def test_test_set_with_params_header(tmp_path):
    ts = testgen.TestSet(
        pairs=[
            QAPair("Why one?", ("cluster", 0), "Zero text."),
            QAPair("Why two?", ("cluster", 2), "Two text.", synthetic=True),
        ],
        params={"reducer": "pca", "eps": 0.2, "clusters": 3},
    )
    assert written(testgen.write_test_set_jsonl, ts, tmp_path) == (
        b'{"params": {"clusters": 3, "eps": 0.2, "reducer": "pca"}}\n'
        b'{"answer_text": "Zero text.", "cluster_id": 0, "question": "Why one?"}\n'
        b'{"answer_text": "Two text.", "cluster_id": 2, "question": "Why two?", "synthetic": true}\n'
    )


def test_score_rows(tmp_path):
    rows = [
        ScoreRow("q0001", 0.25, 1 / 3, 0.1234567890123456, -0.5),
        ScoreRow("q0002", 1.0, 0.0, 1e-9, 0.9999999999),
    ]
    assert written(write_score_rows_jsonl, rows, tmp_path) == (
        b'{"bleu": 0.1234567890123456, "cs": -0.5, "meteor": 0.3333333333333333, '
        b'"question_id": "q0001", "rouge": 0.25}\n'
        b'{"bleu": 1e-09, "cs": 0.9999999999, "meteor": 0.0, "question_id": "q0002", "rouge": 1.0}\n'
    )


# The published averages as four single-row arms, plus a swept arm with two
# thresholds whose best one has a zero bleu mean, so every "x vs swept" bleu
# delta has a zero denominator. Rows come in descending question-id order.
GOLDEN_ARMS = {
    "baseline": [ScoreRow("avg", 0.142117, 0.119251, 0.002770, 0.335299)],
    "fine_tuned": [ScoreRow("avg", 0.254003, 0.242348, 0.050048, 0.356439)],
    "rag_fine_tuned": [ScoreRow("avg", 0.229296, 0.195219, 0.029378, 0.305797)],
    "rag": [ScoreRow("avg", 0.294986, 0.222193, 0.057998, 0.544829)],
}
GOLDEN_SWEEPS = {
    "swept": {
        0.25: [ScoreRow("q0002", 0.25, 0.1, 0.0, 0.2), ScoreRow("q0001", 0.5, 1 / 3, 0.0, 0.7),
               ScoreRow("q0000", 0.1, 2 / 7, 0.0, 0.3)],
        0.75: [ScoreRow("q0002", 0.3, 0.2, 0.1, 0.1), ScoreRow("q0001", 0.1, 0.2, 0.3, 0.4),
               ScoreRow("q0000", 0.2, 0.2, 0.2, 0.2)],
    },
}
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["report.csv", "report.json", "radar.json", "radar.svg"])
def test_report_files(tmp_path, name):
    emit_report(summarize(GOLDEN_ARMS, GOLDEN_SWEEPS), tmp_path, svg=True)
    assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


def golden_indexes():
    """The topic fixture's sentence index, and a question index with two questions a paragraph.

    Keys are 16-dimensional, so the keys files stay small.
    """
    docs, vocab = make_topic_corpus()
    paragraphs, sentences = corpus_pipeline(docs)
    embedder = LocalHashEmbedder(dim=16)
    pairs = [QAPair(topic_question(vocab, int(p.doc_id.removeprefix("doc")), n_core),
                    (p.doc_id, p.ordinal), p.text)
             for p in paragraphs for n_core in (8, 7)]
    return {
        "index_sentences.jsonl": build_sentence_index(sentences, embedder),
        "index_questions.jsonl": build_question_index(QADataset(pairs=pairs), embedder),
    }


@pytest.mark.parametrize("name", ["index_sentences.jsonl", "index_questions.jsonl"])
def test_index_files(tmp_path, name):
    ds = golden_indexes()[name]
    save_index(ds, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()
    assert keys_path(tmp_path / name).read_bytes() == keys_path(GOLDEN_DIR / name).read_bytes()
    loaded = load_index(GOLDEN_DIR / name)
    assert (loaded.kind, loaded.embedder_name, entries_of(loaded)) == (
        ds.kind, ds.embedder_name, entries_of(ds))
    assert loaded.payloads == ds.payloads and loaded.payload_ids == ds.payload_ids
    assert np.array_equal(loaded.keys.view(np.uint32), ds.keys.view(np.uint32))


# Each ask case: the golden index, the model input (None keeps the default)
# and whether the topic's reference answer is scored. At threshold 0.0 every
# entry passes, so the question index offers each paragraph twice and a
# 400-token model input cuts the pack short.
ASK_CASES = {
    "ask_sentences_t0.0.txt": ("index_sentences.jsonl", "0.0", 400, False),
    "ask_questions_t0.0.txt": ("index_questions.jsonl", "0.0", 400, False),
    "ask_sentences_t0.5.txt": ("index_sentences.jsonl", "0.5", None, True),
    "ask_questions_t0.5.txt": ("index_questions.jsonl", "0.5", None, True),
}


def ask_output(name, tmp_path):
    """What ``ragmark ask`` prints for the topic fixture's first test pair in case ``name``."""
    index, threshold, model_max_input, scored = ASK_CASES[name]
    docs, vocab = make_topic_corpus()
    _, sentences = corpus_pipeline(docs)
    pair = make_test_pairs(vocab, sentences)[0]
    argv = []
    if model_max_input is not None:
        cfg = tmp_path / "ask.cfg"
        cfg.write_text(f"rag.model_max_input = {model_max_input}\n")
        argv = ["--config", str(cfg)]
    argv += ["ask", "--question", pair.question, "--index", str(GOLDEN_DIR / index),
             "--embedder", "local:16", "--threshold", threshold]
    if scored:
        argv += ["--reference", pair.answer_text]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", list(ASK_CASES))
def test_ask_output(tmp_path, monkeypatch, name):
    monkeypatch.delenv("RAGMARK_CONFIG", raising=False)
    assert ask_output(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()


# Abbreviations before capitals, a "?!" run, a non-breaking space before a
# capital, an upper case letter that is not ASCII, a sentence that starts
# with a digit, a natural paragraph over 16 tokens and a sentence over 16
# tokens with no terminator. At a budget of 16, three short sentences share
# one paragraph.
INGEST_DOC = (
    "Dr. Smith measured the blood samples twice, e.g. Plasma and serum from forty "
    "patients in the clinic. Did the second round of results hold up for every patient?! "
    "They held, and the team wrote a short report for the review board.\u00a0Results "
    "improved after the second round of careful testing in the spring. \u00c9mile checked "
    "each vial by hand. It worked. So did the rest. 42 samples were positive and 17 of "
    "them came from the same ward.\n"
    "  \n"
    "Short note.\n\n"
    "The committee reviewed every measurement from the trial across eleven hospital sites "
    "in three countries without finding one inconsistent value or missing record\n"
)
INGEST_BUDGETS = {"ingest": None, "ingest_b16": 16}


def ingest_output(stem, tmp_path):
    """The paragraph and sentence files ``ragmark ingest`` writes for ``INGEST_DOC``."""
    src = tmp_path / "doc.txt"
    src.write_text(INGEST_DOC, encoding="utf-8")
    paragraphs, sentences = tmp_path / "p.jsonl", tmp_path / "s.jsonl"
    budget = INGEST_BUDGETS[stem]
    argv = ["ingest", "--input", str(src), "--out-paragraphs", str(paragraphs),
            "--out-sentences", str(sentences)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {f"{stem}_paragraphs.jsonl": paragraphs.read_bytes(),
            f"{stem}_sentences.jsonl": sentences.read_bytes()}


@pytest.mark.parametrize("stem", list(INGEST_BUDGETS))
def test_ingest_output(tmp_path, stem):
    for name, data in ingest_output(stem, tmp_path).items():
        assert data == (GOLDEN_DIR / name).read_bytes(), name


def pair_files(tmp_path):
    """What ``qa-gen``, with its train/val split, and ``testgen`` write for the topic fixture."""
    docs, _ = make_topic_corpus()
    raw = tmp_path / "raw"
    raw.mkdir()
    for doc in docs:
        (raw / f"{doc.id}.txt").write_text(doc.body, encoding="utf-8")
    files = {name: tmp_path / name for name in
             ("qagen_qa.jsonl", "qagen_train.jsonl", "qagen_val.jsonl", "testgen_testset.jsonl")}
    commands = [
        ["ingest", "--input", str(raw), "--out-paragraphs", str(tmp_path / "p.jsonl"),
         "--out-sentences", str(tmp_path / "s.jsonl")],
        ["qa-gen", "--paragraphs", str(tmp_path / "p.jsonl"), "--out", str(files["qagen_qa.jsonl"]),
         "--endpoint", "mock:3", "--questions-per-paragraph", "3",
         "--train-out", str(files["qagen_train.jsonl"]),
         "--val-out", str(files["qagen_val.jsonl"]), "--ratio", "0.2", "--seed", "5"],
        ["index", "--kind", "sentences", "--input", str(tmp_path / "s.jsonl"),
         "--out", str(tmp_path / "is.jsonl"), "--embedder", f"local:{EMBED_DIM}"],
        ["testgen", "--index", str(tmp_path / "is.jsonl"),
         "--out", str(files["testgen_testset.jsonl"]), "--eps", "0.2", "--min-pts", "6",
         "--qg-endpoint", "mock:1"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert main(argv) == 0, argv[0]
    return {name: path.read_bytes() for name, path in files.items()}


def test_qa_gen_and_testgen_output(tmp_path, monkeypatch):
    monkeypatch.delenv("RAGMARK_CONFIG", raising=False)
    for name, data in pair_files(tmp_path).items():
        assert data == (GOLDEN_DIR / name).read_bytes(), name
