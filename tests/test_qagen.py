import json

import pytest

from ragmark.corpus import Paragraph
from ragmark.errors import ConfigError, NoEligiblePairsError, TransportError
from ragmark.qagen import (
    FALLBACK_QUESTION,
    HttpQuestionGenClient,
    MockQuestionGenClient,
    QADataset,
    QAPair,
    build_qa_dataset,
    dedupe_questions,
    make_question_client,
    normalize_question,
    questions_for,
    read_qa_jsonl,
    split_train_validation,
    write_qa_jsonl,
)


def para(i, text="Some paragraph text about interesting matters."):
    return Paragraph(doc_id="doc", ordinal=i, text=text, token_count=8)


class ListClient:
    """Scripted client: returns a fixed list per call, round-robin by paragraph."""

    def __init__(self, script):
        self.script = dict(script)

    def generate(self, paragraph_text, k):
        return self.script.get(paragraph_text, [])


class TestGenerateQuestions:
    def test_dedup_by_normalization(self):
        client = ListClient({para(0).text: ["Q1", "q1 ", "Q2"]})
        assert questions_for(para(0).text, client, 5) == (["Q1", "Q2"], False)

    def test_five_distinct_all_kept(self):
        qs = [f"Question {i}?" for i in range(5)]
        client = ListClient({para(0).text: qs})
        assert questions_for(para(0).text, client, 5) == (qs, False)

    def test_more_than_k_clipped(self):
        qs = [f"Question {i}?" for i in range(9)]
        client = ListClient({para(0).text: qs})
        assert len(questions_for(para(0).text, client, 5)[0]) == 5

    def test_empty_yield_falls_back(self):
        client = ListClient({})
        assert questions_for(para(0).text, client, 5) == ([FALLBACK_QUESTION], True)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            questions_for(para(0).text, ListClient({}), 0)

    def test_normalization_strips_terminal_question_mark(self):
        assert normalize_question("  What   is it? ") == "what is it"
        assert dedupe_questions(["What is it?", "what is it"]) == ["What is it?"]


class TestBuildDataset:
    def test_counts_sum_over_mock_outputs(self):
        paragraphs = [para(0, "First text."), para(1, "Second text."), para(2, "Third text.")]
        script = {
            "First text.": [f"q{i}?" for i in range(5)],
            "Second text.": ["a?", "b?", "c?"],
            "Third text.": ["only one?"],
        }
        ds = build_qa_dataset(paragraphs, ListClient(script))
        assert ds.counts == (3, 9)

    def test_single_paragraph_counts(self):
        ds = build_qa_dataset([para(0)], MockQuestionGenClient(seed=1))
        n_paragraphs, n_questions = ds.counts
        assert n_paragraphs == 1
        assert 1 <= n_questions <= 5

    def test_fallback_pair_flagged_synthetic(self):
        ds = build_qa_dataset([para(0, "x y z.")], ListClient({}))  # no content words
        assert [p.synthetic for p in ds.pairs] == [True]
        assert ds.pairs[0].question == FALLBACK_QUESTION

    def test_answer_is_paragraph_text_and_refs_ordered(self):
        paragraphs = [para(0, "First text."), para(1, "Second text.")]
        script = {"First text.": ["q1?"], "Second text.": ["q2?"]}
        ds = build_qa_dataset(paragraphs, ListClient(script))
        assert [p.paragraph_ref for p in ds.pairs] == [("doc", 0), ("doc", 1)]
        assert ds.pairs[0].answer_text == "First text."

    def test_failing_paragraphs_skipped_not_fatal(self):
        class Flaky:
            def generate(self, text, k):
                if "bad" in text:
                    raise TransportError("down")
                return ["ok?"]

        paragraphs = [para(0, "good text."), para(1, "bad text."), para(2, "more good.")]
        ds = build_qa_dataset(paragraphs, Flaky())
        assert ds.counts == (2, 2)

    def test_all_failing_is_fatal(self):
        class Down:
            def generate(self, text, k):
                raise TransportError("down")

        with pytest.raises(Exception):
            build_qa_dataset([para(0)], Down())

    def test_no_duplicate_question_per_paragraph(self):
        ds = build_qa_dataset(
            [para(0)], ListClient({para(0).text: ["Same?", "same?", "SAME ?", "Other?"]})
        )
        questions = [p.question for p in ds.pairs]
        assert len(questions) == len(set(q.lower().rstrip("? ") for q in questions))


class TestSplitTrainValidation:
    def _dataset(self, questions_per_paragraph):
        pairs = []
        for i, n in enumerate(questions_per_paragraph):
            for j in range(n):
                pairs.append(QAPair(f"p{i} question {j}?", ("doc", i), f"answer {i}"))
        return QADataset(pairs=pairs)

    def test_seeded_selection_constraints(self):
        ds = self._dataset([2, 2, 2, 2, 2])  # 10 pairs over 5 paragraphs
        train, val = split_train_validation(ds, ratio=0.2, seed=42)
        assert len(val.pairs) == 2
        assert len({p.paragraph_ref for p in val.pairs}) == 2
        train_refs = {p.paragraph_ref for p in train.pairs}
        assert all(p.paragraph_ref in train_refs for p in val.pairs)

    def test_partition_and_determinism(self):
        ds = self._dataset([3, 1, 4, 2, 5])
        train1, val1 = split_train_validation(ds, ratio=0.25, seed=7)
        train2, val2 = split_train_validation(ds, ratio=0.25, seed=7)
        assert val1.pairs == val2.pairs and train1.pairs == train2.pairs
        merged = sorted(
            (p.question for p in train1.pairs + val1.pairs), key=str
        )
        assert merged == sorted(p.question for p in ds.pairs)
        assert not {id(p) for p in train1.pairs} & {id(p) for p in val1.pairs}

    def test_all_singletons_error(self):
        with pytest.raises(NoEligiblePairsError):
            split_train_validation(self._dataset([1, 1, 1]), ratio=0.2, seed=0)

    def test_ratio_on_larger_synthetic_set(self):
        ds = self._dataset([4] * 50)  # 200 pairs
        _, val = split_train_validation(ds, ratio=0.2, seed=3)
        assert abs(len(val.pairs) - 0.2 * len(ds.pairs)) <= 1

    def test_pool_smaller_than_target_uses_pool(self, caplog):
        ds = self._dataset([2, 1, 1, 1, 1, 1, 1, 1, 1, 1])  # 11 pairs, capacity 1
        _, val = split_train_validation(ds, ratio=0.5, seed=0)
        assert len(val.pairs) == 1

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            split_train_validation(self._dataset([2, 2]), ratio=1.5, seed=0)


class TestClients:
    def test_http_client_roundtrip(self, http_stub):
        def app(path, payload):
            assert path == "/generate_questions"
            return 200, {"questions": [f"About {payload['text'][:6]}?" for _ in range(payload["k"])]}

        url = http_stub(app)
        client = HttpQuestionGenClient(url)
        assert len(client.generate("some paragraph", 3)) == 3

    def test_http_client_retries_then_succeeds(self, http_stub):
        state = {"calls": 0}

        def app(path, payload):
            state["calls"] += 1
            if state["calls"] == 1:
                return 503, {}
            return 200, {"questions": ["q?"]}

        url = http_stub(app)
        client = HttpQuestionGenClient(url, retries=1)
        assert client.generate("text", 1) == ["q?"]
        assert state["calls"] == 2

    def test_http_client_exhausted_retries(self, http_stub):
        url = http_stub(lambda path, payload: (503, {}))
        client = HttpQuestionGenClient(url, retries=1)
        with pytest.raises(TransportError):
            client.generate("text", 1)

    @pytest.mark.parametrize("kwargs", [{"retries": -1}, {"timeout_ms": 5}])
    def test_http_client_settings_checked(self, kwargs):
        with pytest.raises(ConfigError):
            HttpQuestionGenClient("http://127.0.0.1:1", **kwargs)

    def test_mock_client_deterministic(self):
        a = MockQuestionGenClient(seed=5).generate("alpha bravo charlie delta words", 3)
        b = MockQuestionGenClient(seed=5).generate("alpha bravo charlie delta words", 3)
        assert a == b and len(a) == 3

    def test_factory(self):
        assert isinstance(make_question_client("mock:3"), MockQuestionGenClient)
        assert isinstance(make_question_client("http://x/"), HttpQuestionGenClient)
        with pytest.raises(ValueError):
            make_question_client("carrier-pigeon")

    def test_factory_mock_specs(self):
        assert make_question_client("mock").seed == 0
        assert make_question_client("mock:-2").seed == -2

    @pytest.mark.parametrize("spec", ["mockingbird", "mock:", "mock:x", "mock:3:4"])
    def test_factory_rejects_near_mock_specs(self, spec):
        with pytest.raises(ValueError, match="unrecognized question generator spec"):
            make_question_client(spec)


class TestPersistence:
    def test_jsonl_roundtrip_and_schema(self, tmp_path):
        ds = QADataset(
            pairs=[
                QAPair("What gives?", ("doc", 0), "The answer text."),
                QAPair("And this?", ("doc", 1), "Another answer."),
            ],
        )
        path = tmp_path / "qa.jsonl"
        write_qa_jsonl(ds, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"question", "doc_id", "paragraph_ordinal", "answer_text"}
        loaded = read_qa_jsonl(path)
        assert [(p.question, p.paragraph_ref, p.answer_text) for p in loaded.pairs] == [
            (p.question, p.paragraph_ref, p.answer_text) for p in ds.pairs
        ]

    def test_synthetic_flag_survives_roundtrip(self, tmp_path):
        ds = QADataset(
            pairs=[
                QAPair("What gives?", ("doc", 0), "The answer text."),
                QAPair(FALLBACK_QUESTION, ("doc", 1), "Another answer.", synthetic=True),
            ]
        )
        path = tmp_path / "qa.jsonl"
        write_qa_jsonl(ds, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert "synthetic" not in records[0]
        assert records[1]["synthetic"] is True
        assert [p.synthetic for p in read_qa_jsonl(path).pairs] == [False, True]
