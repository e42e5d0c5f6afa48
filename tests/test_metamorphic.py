"""Metamorphic relations: how the outputs of two different sweeps must relate.

An oracle shares the design it checks; a relation between two runs does
not. These hold byte for byte by design, at ``topicfix`` scale through the
CLI:

- Permuting the test set leaves ``report.json``, ``report.csv`` and
  ``radar.json`` unchanged. Means are ``math.fsum`` sums, which are exactly
  rounded, so order cannot move one, and the report carries no question id.
- Duplicating every pair leaves them unchanged: the exact sum of a doubled
  multiset is twice the sum, so the mean over 2n rows is the same double.
- ``sweep --thresholds t`` writes the same score rows as column ``t`` of the
  full sweep.
- ``ask --threshold t --reference R`` on a test question prints the scores of
  that question's sweep row at ``t``, to four places, on either index.
"""

import contextlib
import io

import pytest

from topicfix import EMBED_DIM, corpus_pipeline, make_test_pairs, make_topic_corpus, topic_question
from ragmark import testgen
from ragmark.cli import main
from ragmark.config import DEFAULT_THRESHOLDS
from ragmark.embed import LocalHashEmbedder
from ragmark.experiment import SWEEP_ARMS
from ragmark.index import IndexKind, build_question_index, build_sentence_index, save_index
from ragmark.metrics import read_score_rows_jsonl
from ragmark.qagen import QADataset, QAPair

REPORT_FILES = ("report.json", "report.csv", "radar.json")
THRESHOLDS = [float(t) for t in DEFAULT_THRESHOLDS.split(",")]
SOME_THRESHOLDS = [THRESHOLDS[0], THRESHOLDS[len(THRESHOLDS) // 2], THRESHOLDS[-1]]
INDEX_FILES = {IndexKind.SENTENCES: "is.jsonl", IndexKind.QUESTIONS: "iq.jsonl"}


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """Both indexes of the topic fixture, and its six hand-built test pairs."""
    root = tmp_path_factory.mktemp("metamorphic")
    docs, vocab = make_topic_corpus()
    paragraphs, sentences = corpus_pipeline(docs)
    embedder = LocalHashEmbedder(EMBED_DIM)
    questions = QADataset(pairs=[
        QAPair(topic_question(vocab, int(p.doc_id.removeprefix("doc")), n_core),
               (p.doc_id, p.ordinal), p.text)
        for p in paragraphs for n_core in (8, 6)])
    save_index(build_sentence_index(sentences, embedder), root / "is.jsonl")
    save_index(build_question_index(questions, embedder), root / "iq.jsonl")
    return root, make_test_pairs(vocab, sentences)


def sweep(inputs, pairs, name, *flags):
    """The output directory of ``ragmark sweep`` over ``pairs`` on both indexes."""
    root, _ = inputs
    testset = root / f"{name}.testset.jsonl"
    testgen.write_test_set_jsonl(testgen.TestSet(pairs=pairs, params={}), testset)
    out = root / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--testset", str(testset), "--index-sentences",
                     str(root / "is.jsonl"), "--index-questions", str(root / "iq.jsonl"),
                     "--output-dir", str(out), "--embedder", f"local:{EMBED_DIM}",
                     *flags]) == 0
    return out


@pytest.fixture(scope="module")
def full_sweep(sweep_inputs):
    return sweep(sweep_inputs, sweep_inputs[1], "full")


def same_files(a, b, names):
    return {name: (a / name).read_bytes() == (b / name).read_bytes() for name in names}


@pytest.mark.parametrize("order", ["reversed", "rotated", "interleaved"])
def test_permuting_the_test_set_leaves_the_report_unchanged(sweep_inputs, full_sweep, order):
    pairs = sweep_inputs[1]
    permuted = {"reversed": pairs[::-1], "rotated": pairs[2:] + pairs[:2],
                "interleaved": pairs[1::2] + pairs[::2]}[order]
    assert permuted != pairs
    out = sweep(sweep_inputs, permuted, f"permuted_{order}")
    assert same_files(full_sweep, out, REPORT_FILES) == dict.fromkeys(REPORT_FILES, True)


def test_duplicating_every_pair_leaves_the_report_unchanged(sweep_inputs, full_sweep):
    pairs = sweep_inputs[1]
    out = sweep(sweep_inputs, [p for p in pairs for _ in (0, 1)], "duplicated")
    assert same_files(full_sweep, out, REPORT_FILES) == dict.fromkeys(REPORT_FILES, True)


@pytest.mark.parametrize("threshold", SOME_THRESHOLDS)
def test_one_threshold_sweep_writes_that_column_of_the_full_sweep(sweep_inputs, full_sweep,
                                                                   threshold):
    out = sweep(sweep_inputs, sweep_inputs[1], f"t{threshold}", "--thresholds", str(threshold))
    names = ["scores_baseline.jsonl", "scores_baseline.csv"]
    for label in SWEEP_ARMS.values():
        names += [f"scores_{label}_t{threshold}.jsonl", f"scores_{label}_t{threshold}.csv"]
    assert same_files(full_sweep, out, names) == dict.fromkeys(names, True)
    assert sorted(p.name for p in out.glob("scores_*_t*.jsonl")) == sorted(
        name for name in names if name.endswith(".jsonl") and "_t" in name)


@pytest.mark.parametrize("kind", list(SWEEP_ARMS), ids=lambda kind: kind.value)
@pytest.mark.parametrize("threshold", SOME_THRESHOLDS)
def test_ask_prints_the_scores_of_each_questions_sweep_row(sweep_inputs, full_sweep, kind,
                                                          threshold):
    root, pairs = sweep_inputs
    rows = read_score_rows_jsonl(full_sweep / f"scores_{SWEEP_ARMS[kind]}_t{threshold}.jsonl")
    assert [row.question_id for row in rows] == [f"q{i:04d}" for i in range(len(pairs))]
    for pair, row in zip(pairs, rows):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["ask", "--question", pair.question, "--index",
                         str(root / INDEX_FILES[kind]), "--threshold", str(threshold),
                         "--reference", pair.answer_text, "--embedder", f"local:{EMBED_DIM}"]) == 0
        [scores] = [line for line in out.getvalue().splitlines() if line.startswith("scores")]
        assert scores == (f"scores   : rouge={row.rouge:.4f} meteor={row.meteor:.4f} "
                          f"bleu={row.bleu:.4f} cs={row.cs:.4f}")
