import json
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicfix import EMBED_DIM, corpus_pipeline, make_test_pairs, make_topic_corpus
from oracles import oracle_run_sweep, streaming_means
from reportfiles import parse_report_csv
from ragmark import cli, experiment
from ragmark.cli import main
from ragmark.corpus import Sentence
from ragmark.embed import LocalHashEmbedder, RemoteEmbedder
from ragmark.errors import ConfigError, RunAbortedError, TransportError
from ragmark.experiment import (
    BASELINE_ARM,
    ExperimentConfig,
    emit_report,
    run_baseline,
    run_sweep,
    summarize,
)
from ragmark.generate import ExtractiveMockClient, GenerationRequest
from ragmark.index import IndexKind, build_question_index, build_sentence_index, save_index
from ragmark.metrics import ScoreRow, read_score_rows_jsonl
from ragmark.qagen import MockQuestionGenClient, QAPair, build_qa_dataset
from ragmark.retrieve import Budgets, render_prompt, retrieve_at
from ragmark import testgen

# Published averages the relative-delta conventions are anchored on.
TABLE3 = {
    "baseline": ScoreRow("avg", 0.142117, 0.119251, 0.002770, 0.335299),
    "fine_tuned": ScoreRow("avg", 0.254003, 0.242348, 0.050048, 0.356439),
    "rag_fine_tuned": ScoreRow("avg", 0.229296, 0.195219, 0.029378, 0.305797),
    "rag": ScoreRow("avg", 0.294986, 0.222193, 0.057998, 0.544829),
}


class ReferenceEcho:
    """Stub endpoint that answers every question with its reference text."""

    name = "echo"

    def __init__(self, mapping):
        self.mapping = mapping

    def generate(self, request):
        for question, reference in self.mapping.items():
            if question in request.prompt:
                return reference
        return "no match"


class Flaky:
    name = "flaky"

    def __init__(self, fail_every=2):
        self.calls = 0
        self.fail_every = fail_every

    def generate(self, request):
        self.calls += 1
        if self.calls % self.fail_every == 0:
            raise TransportError("down")
        return "I do not know."


class FailOn:
    """The extractive mock, except that any prompt containing a poison word fails."""

    name = "fail-on"

    def __init__(self, poison):
        self.poison = poison
        self.prompts = []

    def generate(self, request):
        self.prompts.append(request.prompt)
        if any(word in request.prompt for word in self.poison):
            raise TransportError("poisoned prompt")
        return ExtractiveMockClient().generate(request)


class FailingEmbedder:
    """A local embedder that fails on batches holding one of the poison texts."""

    def __init__(self, dim, poison):
        self.inner = LocalHashEmbedder(dim=dim)
        self.name, self.dim = self.inner.name, dim
        self.poison = poison

    def embed_batch(self, texts):
        if any(text in self.poison for text in texts):
            raise TransportError("poisoned text")
        return self.inner.embed_batch(texts)


def desk_fixture():
    docs, vocab = make_topic_corpus()
    paragraphs, sentences = corpus_pipeline(docs)
    embedder = LocalHashEmbedder(dim=EMBED_DIM)
    ids = build_sentence_index(sentences, embedder)
    qa = build_qa_dataset(paragraphs, MockQuestionGenClient(seed=3), k=3)
    idq = build_question_index(qa, embedder)
    testset = testgen.TestSet(pairs=make_test_pairs(vocab, sentences), params={"fixture": "topics"})
    cfg = ExperimentConfig()
    return cfg, testset, ids, idq, embedder


class TestSummarize:
    def test_table3_relative_deltas(self):
        deltas = summarize({label: [row] for label, row in TABLE3.items()})["deltas"]
        assert deltas["rag vs fine_tuned"]["rouge"] == pytest.approx(0.161, abs=0.001)
        assert deltas["rag vs fine_tuned"]["bleu"] == pytest.approx(0.159, abs=0.001)
        assert deltas["rag vs fine_tuned"]["cs"] == pytest.approx(0.529, abs=0.001)
        # both denominator conventions for the meteor gap
        assert deltas["fine_tuned vs rag"]["meteor"] == pytest.approx(0.091, abs=0.001)
        assert deltas["rag vs fine_tuned"]["meteor"] == pytest.approx(-0.083, abs=0.001)

    def test_means_match_streaming_oracle(self):
        rows = [ScoreRow(f"q{i}", i / 7, i / 11, i / 13, i / 17) for i in range(100)]
        means = summarize({"arm": rows})["arms"][0]["means"]
        assert means["rouge"] == pytest.approx(streaming_means([r.rouge for r in rows]), abs=1e-12)
        assert means["cs"] == pytest.approx(streaming_means([r.cs for r in rows]), abs=1e-12)

    def test_single_arm_has_no_deltas(self):
        assert summarize({"only": [ScoreRow("q", 0.1, 0.2, 0.3, 0.4)]})["deltas"] == {}

    def test_sweep_arm_best_threshold_ties_take_lower(self):
        rows_same = [ScoreRow("q", 0.1, 0.1, 0.1, 0.5)]
        report = summarize({}, {"arm": {0.2: rows_same, 0.5: rows_same, 0.8: rows_same}})
        assert report["arms"][0]["best_threshold"] == 0.2

    def test_sweep_arm_headline_at_best_threshold(self):
        report = summarize(
            {},
            {
                "arm": {
                    0.0: [ScoreRow("q", 0.1, 0.1, 0.1, 0.2)],
                    0.5: [ScoreRow("q", 0.9, 0.9, 0.9, 0.8)],
                    1.0: [ScoreRow("q", 0.4, 0.4, 0.4, 0.4)],
                }
            },
        )
        arm = report["arms"][0]
        assert arm["best_threshold"] == 0.5
        assert arm["means"]["cs"] == pytest.approx(0.8)
        assert set(arm["per_threshold"]) == {"0.0", "0.5", "1.0"}

    def test_zero_denominator_delta_is_none(self):
        report = summarize(
            {
                "a": [ScoreRow("q", 0.5, 0.5, 0.5, 0.5)],
                "b": [ScoreRow("q", 0.0, 0.5, 0.5, 0.5)],
            }
        )
        assert report["deltas"]["a vs b"]["rouge"] is None


class TestRuns:
    def test_baseline_mock_refusal_scores_near_zero(self):
        cfg, testset, *_ = desk_fixture()
        embedder = LocalHashEmbedder(dim=EMBED_DIM)
        rows = run_baseline(cfg, testset=testset, gen_client=ExtractiveMockClient(),
                            embedder=embedder)
        assert len(rows) == len(testset.pairs)
        assert all(r.cs < 0.2 and r.rouge < 0.2 for r in rows)

    def test_baseline_echo_reference_is_identity(self):
        cfg, testset, _, _, embedder = desk_fixture()
        echo = ReferenceEcho({p.question: p.answer_text for p in testset.pairs})
        rows = run_baseline(cfg, testset=testset, gen_client=echo, embedder=embedder)
        for row in rows:
            assert row.rouge == pytest.approx(1.0, abs=1e-6)
            assert row.bleu == pytest.approx(1.0, abs=1e-6)
            assert row.cs == pytest.approx(1.0, abs=1e-6)

    def test_row_count_matches_questions(self):
        cfg, testset, ids, _, embedder = desk_fixture()
        by_threshold = run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=ids,
                                 gen_client=ExtractiveMockClient(), embedder=embedder)
        assert set(by_threshold) == set(cfg.thresholds)
        assert all(len(rows) == len(testset.pairs) for rows in by_threshold.values())

    def test_failure_budget_aborts(self):
        cfg, testset, *_ = desk_fixture()
        embedder = LocalHashEmbedder(dim=EMBED_DIM)
        with pytest.raises(RunAbortedError):
            run_baseline(cfg, testset=testset, gen_client=Flaky(fail_every=2),
                         embedder=embedder)

    def test_bad_remote_vector_zeroes_one_row_under_budget(self, stub_session):
        cfg, testset, ids, _, embedder = desk_fixture()
        cfg.failure_budget = 0.5
        bad_question = testset.pairs[0].question

        def app(path, payload):
            vectors = embedder.embed_batch(payload["texts"]).tolist()
            for vec, text in zip(vectors, payload["texts"]):
                if text == bad_question:
                    vec[0] = float("nan")
            return 200, {"vectors": vectors, "dim": embedder.dim, "model": embedder.name}

        remote = RemoteEmbedder("http://stub", session=stub_session(app))
        got = run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=ids,
                        gen_client=ExtractiveMockClient(), embedder=remote)
        good = run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=ids,
                         gen_client=ExtractiveMockClient(), embedder=embedder)
        for t, rows in got.items():
            assert rows[0] == ScoreRow("q0000", 0.0, 0.0, 0.0, 0.0)
            assert rows[1:] == good[t][1:]

    def test_one_generation_per_distinct_prompt_of_a_question(self):
        cfg, testset, ids, _, embedder = desk_fixture()
        client = FailOn(set())
        run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=ids,
                  gen_client=client, embedder=embedder)
        questions = [p.question for p in testset.pairs]
        by_question = [[p for p in client.prompts if q in p] for q in questions]
        assert sum(map(len, by_question)) == len(client.prompts)
        assert all(len(prompts) == len(set(prompts)) for prompts in by_question)
        assert len(client.prompts) < len(questions) * len(cfg.thresholds)

    def test_failed_generation_is_retried_at_the_next_threshold(self):
        cfg, testset, ids, _, embedder = desk_fixture()
        cfg.failure_budget = 1.0
        cfg.thresholds = [0.8, 0.9, 1.0]  # above the fixture's best cosine: one prompt each
        client = FailOn({"Question:"})
        got = run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=ids,
                        gen_client=client, embedder=embedder)
        assert len(client.prompts) == len(testset.pairs) * len(cfg.thresholds)
        assert all(r.cs == 0.0 for rows in got.values() for r in rows)

    def test_failed_embedding_counts_against_every_threshold(self):
        cfg, testset, ids, _, _ = desk_fixture()
        testset.pairs = testset.pairs[:2]
        cfg.thresholds = [0.0, 1.0]
        cfg.failure_budget = 0.5

        class NoContextFails:
            name = "no-context-fails"

            def generate(self, request):
                if not request.prompt.startswith("Context:"):
                    raise TransportError("down")
                return "fine"

        # q0 fails to embed, so counts once at each threshold; q1 fails only
        # at 1.0, where nothing is retrieved: 2 of 2 there, over the budget
        embedder = FailingEmbedder(EMBED_DIM, {testset.pairs[0].question})
        with pytest.raises(RunAbortedError, match="2/2 questions failed"):
            run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=ids,
                      gen_client=NoContextFails(), embedder=embedder)
        cfg.thresholds = [0.0]
        rows = run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=ids,
                         gen_client=NoContextFails(), embedder=embedder)
        assert rows[0.0][0] == ScoreRow("q0000", 0.0, 0.0, 0.0, 0.0)

    def test_kind_mismatch_surfaced(self):
        cfg, testset, ids, _, embedder = desk_fixture()
        with pytest.raises(ConfigError):
            run_sweep(cfg, IndexKind.QUESTIONS, testset=testset, index=ids,
                      gen_client=ExtractiveMockClient(), embedder=embedder)

    def test_sweep_cs_at_half_beats_baseline_and_top_threshold_matches_baseline(self):
        cfg, testset, ids, idq, embedder = desk_fixture()
        mock = ExtractiveMockClient()
        baseline = run_baseline(cfg, testset=testset, gen_client=mock, embedder=embedder)
        base_cs = sum(r.cs for r in baseline) / len(baseline)
        for index in (ids, idq):
            sweep = run_sweep(cfg, index.kind, testset=testset, index=index,
                              gen_client=mock, embedder=embedder)
            cs_at_half = sum(r.cs for r in sweep[0.5]) / len(sweep[0.5])
            assert cs_at_half > base_cs
            assert sweep[1.0] == baseline  # row-for-row

    def test_mean_cs_flat_past_max_similarity(self):
        cfg, testset, ids, _, embedder = desk_fixture()
        sweep = run_sweep(cfg, IndexKind.SENTENCES, testset=testset, index=ids,
                          gen_client=ExtractiveMockClient(), embedder=embedder)
        # the fixture's best query-key cosine sits under 0.8
        assert sweep[0.8] == sweep[0.9] == sweep[1.0]


SWEEP_VOCAB = ["amber", "basil", "cedar", "delta", "ember", "fjord", "gamma", "heron"]
SWEEP_THRESHOLDS = [i / 10 for i in range(11)]


def _sentence(words):
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _aborted_or_rows(run):
    try:
        return run()
    except RunAbortedError as exc:
        return ("aborted", str(exc))


class TestSweepMatchesPerThresholdOracle:
    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(SWEEP_VOCAB), min_size=2, max_size=6),
            min_size=1, max_size=10,
        ),
        questions=st.lists(
            st.lists(st.sampled_from(SWEEP_VOCAB), min_size=1, max_size=4),
            min_size=1, max_size=4,
        ),
        thresholds=st.lists(st.sampled_from(SWEEP_THRESHOLDS), min_size=1, max_size=6,
                            unique=True).map(sorted),
        model_max_input=st.integers(14, 90),
        failure_budget=st.sampled_from([0.0, 0.2, 0.3, 0.4, 0.5, 1.0]),
        poison_words=st.sets(st.sampled_from(SWEEP_VOCAB), max_size=2),
        poison_questions=st.sets(st.integers(0, 3), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_rows_and_same_abort(self, sentences, questions, thresholds, model_max_input,
                                      failure_budget, poison_words, poison_questions):
        sents = [Sentence("d", 0, i, _sentence(w), len(w)) for i, w in enumerate(sentences)]
        pairs = [
            QAPair(f"What about {' '.join(q)}?", ("d", 0), sents[i % len(sents)].text)
            for i, q in enumerate(questions)
        ]
        testset = testgen.TestSet(pairs=pairs, params={})
        cfg = ExperimentConfig(
            thresholds=thresholds, failure_budget=failure_budget,
            budgets=Budgets(model_max_input=model_max_input, answer_reserve=4),
        )
        # failing on chosen prompts: those holding a poison word, and every
        # prompt of a question whose embedding fails
        embedder = FailingEmbedder(16, {pairs[i].question for i in poison_questions
                                        if i < len(pairs)})
        index = build_sentence_index(sents, LocalHashEmbedder(dim=16))
        got = _aborted_or_rows(lambda: run_sweep(
            cfg, IndexKind.SENTENCES, testset=testset, index=index,
            gen_client=FailOn(poison_words), embedder=embedder,
        ))
        expected = _aborted_or_rows(lambda: oracle_run_sweep(
            cfg, testset, index, FailOn(poison_words), embedder,
        ))
        assert got == expected


class CountingMock:
    """The extractive mock, recording every prompt; each prompt in ``fail_once`` fails once."""

    name = "counting"

    def __init__(self, fail_once=()):
        self.prompts = []
        self.fail_once = set(fail_once)

    def generate(self, request):
        self.prompts.append(request.prompt)
        if request.prompt in self.fail_once:
            self.fail_once.discard(request.prompt)
            raise TransportError("down once")
        return ExtractiveMockClient().generate(request)


class TestSweepCommandMemo:
    """One ``ragmark sweep`` command generates each prompt and scores each answer once."""

    def _command(self, tmp_path, monkeypatch, client):
        cfg, testset, ids, idq, embedder = desk_fixture()
        # a second question with q0000's reference: the same (generated, reference) pairs
        first = testset.pairs[0]
        testset.pairs.append(QAPair("Tell me about " + first.question, first.paragraph_ref,
                                    first.answer_text))
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("ts", "ids", "idq")}
        testgen.write_test_set_jsonl(testset, paths["ts"])
        save_index(ids, paths["ids"])
        save_index(idq, paths["idq"])
        scored = []
        real_score_row = experiment.score_row

        def counting_score_row(qid, generated, reference, embedder):
            scored.append((generated, reference))
            return real_score_row(qid, generated, reference, embedder)

        monkeypatch.setattr(cli, "_gen_client", lambda cfg: client)
        monkeypatch.setattr(experiment, "score_row", counting_score_row)
        out = tmp_path / "out"
        assert main(["sweep", "--testset", str(paths["ts"]), "--index-sentences",
                     str(paths["ids"]), "--index-questions", str(paths["idq"]),
                     "--output-dir", str(out), "--embedder", f"local:{EMBED_DIM}"]) == 0
        return cfg, testset, (ids, idq), embedder, scored, out

    def _expected_prompts(self, cfg, testset, indexes, embedder):
        """Each question's baseline prompt, then its prompt at every threshold of each arm."""
        by_question = []
        for pair in testset.pairs:
            prompts = [render_prompt(pair.question, "", cfg.template)]
            for index in indexes:
                prompts += [cell.prompt for cell in retrieve_at(
                    pair.question, index, cfg.thresholds, embedder, cfg.budgets,
                    template=cfg.template)]
            by_question.append(prompts)
        return by_question

    def test_each_prompt_generated_and_each_answer_scored_once(self, tmp_path, monkeypatch):
        client = CountingMock()
        cfg, testset, indexes, embedder, scored, out = self._command(
            tmp_path, monkeypatch, client)
        by_question = self._expected_prompts(cfg, testset, indexes, embedder)
        distinct = {p for prompts in by_question for p in prompts}
        assert Counter(client.prompts) == Counter(distinct)
        # the arms reach the baseline prompt at thresholds no key reaches
        assert len(distinct) < sum(len(set(p[1:])) + 1 for p in by_question)
        mock = ExtractiveMockClient()
        pairs = {
            (mock.generate(GenerationRequest(prompt, cfg.budgets.answer_reserve)),
             pair.answer_text)
            for pair, prompts in zip(testset.pairs, by_question) for prompt in prompts
        }
        assert Counter(scored) == Counter(pairs)

    def test_rows_match_library_calls_without_a_memo(self, tmp_path, monkeypatch):
        cfg, testset, (ids, idq), embedder, scored, out = self._command(
            tmp_path, monkeypatch, CountingMock())
        qids = [f"q{i:04d}" for i in range(len(testset.pairs))]
        baseline = read_score_rows_jsonl(out / "scores_baseline.jsonl")
        assert [r.question_id for r in baseline] == qids
        # q0000 and the last question share every pair, and keep their own ids
        assert replace(baseline[-1], question_id="q0000") == baseline[0]
        mock = ExtractiveMockClient()
        assert baseline == run_baseline(cfg, testset=testset, gen_client=mock,
                                        embedder=embedder)
        for index, label in ((ids, "rag_sentences"), (idq, "rag_questions")):
            rows = run_sweep(cfg, index.kind, testset=testset, index=index, gen_client=mock,
                             embedder=embedder)
            for t in cfg.thresholds:
                got = read_score_rows_jsonl(out / f"scores_{label}_t{t}.jsonl")
                assert [r.question_id for r in got] == qids
                assert got == rows[t]

    def test_failed_prompt_is_generated_again_in_a_later_arm(self, tmp_path, monkeypatch):
        cfg, testset, *_ = desk_fixture()
        prompt = render_prompt(testset.pairs[0].question, "", cfg.template)
        client = CountingMock(fail_once={prompt})
        cfg, testset, _, embedder, _, out = self._command(tmp_path, monkeypatch, client)
        assert client.prompts.count(prompt) == 2
        baseline = read_score_rows_jsonl(out / "scores_baseline.jsonl")
        assert baseline[0] == ScoreRow("q0000", 0.0, 0.0, 0.0, 0.0)
        # 1.0 is above the fixture's best cosine: no context, so the baseline prompt
        retried = read_score_rows_jsonl(out / "scores_rag_sentences_t1.0.jsonl")[0]
        fresh = run_baseline(cfg, testset=testset, gen_client=ExtractiveMockClient(),
                             embedder=embedder)[0]
        assert retried == fresh != ScoreRow("q0000", 0.0, 0.0, 0.0, 0.0)


class TestExperimentConfig:
    def test_thresholds_must_increase(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(thresholds=[0.1, 0.1])

    def test_thresholds_must_be_in_range(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(thresholds=[0.5, 1.2])

    @pytest.mark.parametrize("budget", [float("nan"), 20.0, -0.1])
    def test_failure_budget_must_be_a_fraction(self, budget):
        # outside [0, 1] the abort could never fire (or always would)
        with pytest.raises(ConfigError, match="exp.failure_budget"):
            ExperimentConfig(failure_budget=budget)

    def test_from_config_defaults(self):
        from ragmark.config import default_config

        cfg = ExperimentConfig.from_config(default_config())
        assert cfg.thresholds == [i / 10 for i in range(11)]
        assert cfg.budgets.model_max_input == 4096
        assert cfg.budgets.answer_reserve == 256
        # the library defaults are the registry defaults
        assert cfg == ExperimentConfig()


class TestReports:
    def _report(self):
        return summarize(
            {label: [row] for label, row in TABLE3.items()},
            {
                "swept": {
                    0.0: [ScoreRow("q", 0.1, 0.1, 0.1, 0.1)],
                    0.5: [ScoreRow("q", 0.3, 0.3, 0.3, 0.6)],
                }
            },
        )

    def test_emit_and_csv_roundtrip(self, tmp_path):
        report = self._report()
        written = emit_report(report, tmp_path)
        assert {p.name for p in written} == {"report.csv", "report.json", "radar.json"}
        assert parse_report_csv(tmp_path / "report.csv") == [
            {k: arm[k] for k in ("label", "means", "best_threshold")} for arm in report["arms"]
        ]

    def test_report_json_roundtrip(self, tmp_path):
        report = self._report()
        emit_report(report, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text()) == report

    def test_radar_json_axes_and_series(self, tmp_path):
        report = self._report()
        emit_report(report, tmp_path)
        radar = json.loads((tmp_path / "radar.json").read_text())
        assert radar["axes"] == ["rouge", "meteor", "bleu", "cs"]
        assert len(radar["series"]) == len(report["arms"])
        assert all(len(s["values"]) == 4 for s in radar["series"])

    def test_radar_svg_is_wellformed_xml(self, tmp_path):
        emit_report(self._report(), tmp_path, svg=True)
        root = ET.parse(tmp_path / "radar.svg").getroot()
        assert root.tag.endswith("svg")

    def test_emit_unwritable_dir_raises_oserror(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(OSError):
            emit_report(self._report(), target)
