import json
import logging
import random
import re
import sys
import threading
import time

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OracleMockQuestionGenClient, oracle_build_qa_dataset, oracle_normalize_question
from ragmark.corpus import Paragraph
from ragmark.errors import ConfigError, NoEligiblePairsError, PersistenceError, TransportError
from ragmark.qagen import (
    FALLBACK_QUESTION,
    QUESTION_GEN_WORKERS,
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
    """Scripted client: each text's fixed list of questions, or none."""

    def __init__(self, script):
        self.script = dict(script)

    def generate(self, texts, k, *, stop_at_error=False):
        return [self.script.get(text, []) for text in texts]


class TestGenerateQuestions:
    def test_dedup_by_normalization(self):
        client = ListClient({para(0).text: ["Q1", "q1 ", "Q2"]})
        assert questions_for([para(0).text], client, 5) == [(["Q1", "Q2"], False)]

    def test_five_distinct_all_kept(self):
        qs = [f"Question {i}?" for i in range(5)]
        client = ListClient({para(0).text: qs})
        assert questions_for([para(0).text], client, 5) == [(qs, False)]

    def test_more_than_k_clipped(self):
        qs = [f"Question {i}?" for i in range(9)]
        client = ListClient({para(0).text: qs})
        [(questions, _)] = questions_for([para(0).text], client, 5)
        assert len(questions) == 5

    def test_empty_yield_falls_back(self):
        client = ListClient({})
        assert questions_for([para(0).text], client, 5) == [([FALLBACK_QUESTION], True)]

    def test_each_text_keeps_its_outcome_in_order(self):
        down = TransportError("down")

        class Mixed:
            def generate(self, texts, k, *, stop_at_error=False):
                return [down if t == "b" else [f"{t}?", f"{t.upper()}?"] for t in texts]

        assert questions_for(["a", "b", "c"], Mixed(), 5) == [
            (["a?"], False), down, (["c?"], False)]

    def test_a_missing_outcome_is_an_error(self):
        class Short:
            def generate(self, texts, k, *, stop_at_error=False):
                return [["q?"]] * (len(texts) - 1)

        with pytest.raises(ValueError, match="answered 1 of 2 texts"):
            questions_for(["a", "b"], Short(), 5)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            questions_for([para(0).text], ListClient({}), 0)

    def test_normalization_strips_terminal_question_mark(self):
        assert normalize_question("  What   is it? ") == "what is it"
        assert dedupe_questions(["What is it?", "what is it"]) == ["What is it?"]

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters() | st.sampled_from(
        " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000\u200b?")))
    def test_normalization_matches_the_whitespace_regex(self, question):
        assert normalize_question(question) == oracle_normalize_question(question)

    def test_normalization_matches_the_whitespace_regex_at_every_code_point(self):
        every = "x".join(map(chr, range(0x110000)))
        assert normalize_question(every) == oracle_normalize_question(every)


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
            def generate(self, texts, k, *, stop_at_error=False):
                return [TransportError("down") if "bad" in t else ["ok?"] for t in texts]

        paragraphs = [para(0, "good text."), para(1, "bad text."), para(2, "more good.")]
        ds = build_qa_dataset(paragraphs, Flaky())
        assert ds.counts == (2, 2)

    def test_all_failing_is_fatal(self):
        class Down:
            def generate(self, texts, k, *, stop_at_error=False):
                return [TransportError("down") for _ in texts]

        with pytest.raises(Exception):
            build_qa_dataset([para(0)], Down())

    def test_no_duplicate_question_per_paragraph(self):
        ds = build_qa_dataset(
            [para(0)], ListClient({para(0).text: ["Same?", "same?", "SAME ?", "Other?"]})
        )
        questions = [p.question for p in ds.pairs]
        assert len(questions) == len(set(q.lower().rstrip("? ") for q in questions))


# Paragraph texts with and without content words, and with repeated,
# multi-byte and non-BMP text, so the mock samples, keeps all words or falls back.
PARAGRAPH_TEXTS = st.lists(
    st.sampled_from(["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
                     "Hotel", "straße", "日本語文字", "\U0001f600\U0001f600\U0001f600\U0001f600",
                     "ab", "x.", "?"]),
    max_size=14).map(" ".join) | st.text(max_size=60)


class TestBuildMatchesPerTextOracle:
    """One batch call of the mock gives the pairs of the pooled per-text build."""

    @pytest.mark.parametrize("k", [1, 5, 9])
    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(PARAGRAPH_TEXTS, min_size=1, max_size=30),
           seed=st.integers(-2**70, 2**70))
    def test_mock_pairs_equal_the_oracle(self, k, texts, seed):
        paragraphs = [para(i, text) for i, text in enumerate(texts)]
        ds = build_qa_dataset(paragraphs, MockQuestionGenClient(seed), k=k)
        expected = oracle_build_qa_dataset(paragraphs, OracleMockQuestionGenClient(seed), k)
        assert ds.pairs == expected.pairs

    def test_six_hundred_texts(self):
        paragraphs = [para(i, f"topic {i} words alpha bravo charlie delta echo foxtrot")
                      for i in range(600)]
        ds = build_qa_dataset(paragraphs, MockQuestionGenClient(7), k=3)
        expected = oracle_build_qa_dataset(paragraphs, OracleMockQuestionGenClient(7), 3)
        assert ds.pairs == expected.pairs


class TestBuildWorkers:
    """The HTTP client keeps ``QUESTION_GEN_WORKERS`` requests to one queue of texts in flight."""

    @staticmethod
    def client(stub_session, app, **kwargs):
        return HttpQuestionGenClient("http://qg.invalid", session=stub_session(app), **kwargs)

    def test_that_many_requests_in_flight_at_once(self, stub_session):
        barrier = threading.Barrier(QUESTION_GEN_WORKERS, timeout=10)

        def gathering(path, payload):
            barrier.wait()  # breaks unless every worker holds a request
            return 200, {"questions": [f"{payload['text']}?"]}

        paragraphs = [para(i, f"text {i}") for i in range(3 * QUESTION_GEN_WORKERS)]
        ds = build_qa_dataset(paragraphs, self.client(stub_session, gathering))
        assert [p.question for p in ds.pairs] == [f"text {i}?" for i in range(len(paragraphs))]

    def test_each_paragraph_taken_once_under_rapid_thread_switches(self, stub_session):
        calls = []  # list.append is atomic: a paragraph taken twice shows up twice

        def recording(path, payload):
            calls.append(payload["text"])
            return 200, {"questions": [f"{payload['text']}?"]}

        paragraphs = [para(i, f"text {i}") for i in range(3000)]
        client = self.client(stub_session, recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ds = build_qa_dataset(paragraphs, client)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == sorted(p.text for p in paragraphs)
        assert [p.question for p in ds.pairs] == [f"text {i}?" for i in range(3000)]

    def test_pairs_and_skip_warnings_in_paragraph_order(self, stub_session, caplog):
        def jittery(path, payload):
            time.sleep(random.random() / 500)  # finish out of order
            text = payload["text"]
            if int(text.split()[1]) % 3 == 1:
                raise requests.ConnectionError(f"down for {text}")
            return 200, {"questions": [f"{text}?"]}

        paragraphs = [para(i, f"text {i}") for i in range(40)]
        with caplog.at_level(logging.WARNING, logger="ragmark.qagen"):
            ds = build_qa_dataset(paragraphs, self.client(stub_session, jittery, retries=0))
        kept = [i for i in range(40) if i % 3 != 1]
        assert [p.paragraph_ref for p in ds.pairs] == [("doc", i) for i in kept]
        assert [p.question for p in ds.pairs] == [f"text {i}?" for i in kept]
        skipped = [r.getMessage() for r in caplog.records if r.name == "ragmark.qagen"]
        assert skipped == [f"skipping paragraph doc#{i}: question generation request failed: "
                           f"down for text {i}" for i in range(40) if i % 3 == 1]

    def test_another_exception_stops_the_queue_and_is_raised(self, stub_session, caplog):
        calls = []

        def broken(path, payload):
            text = payload["text"]
            calls.append(text)
            time.sleep(0.001)
            if text == "text 1":
                raise requests.ConnectionError("down")
            if text == "text 5":
                raise KeyError("a bug")
            return 200, {"questions": [f"{text}?"]}

        paragraphs = [para(i, f"text {i}") for i in range(200)]
        with caplog.at_level(logging.WARNING, logger="ragmark.qagen"):
            with pytest.raises(KeyError, match="a bug"):
                build_qa_dataset(paragraphs, self.client(stub_session, broken, retries=0))
        assert len(calls) < 50
        assert [r.getMessage() for r in caplog.records if r.name == "ragmark.qagen"] == [
            "skipping paragraph doc#1: question generation request failed: down"]

    def test_any_exception_stops_the_queue_when_asked(self, stub_session):
        calls = []

        def failing(path, payload):
            text = payload["text"]
            calls.append(text)
            time.sleep(0.001)
            if text in ("text 1", "text 3"):
                raise requests.ConnectionError(f"down for {text}")
            return 200, {"questions": [f"{text}?"]}

        texts = [f"text {i}" for i in range(200)]
        client = self.client(stub_session, failing, retries=0)
        outcomes = client.generate(texts, 1, stop_at_error=True)
        assert len(calls) < 50
        assert outcomes[0] == ["text 0?"]
        assert str(outcomes[1]).endswith("down for text 1")
        untaken = [o for text, o in zip(texts, outcomes) if text not in calls]
        assert untaken and all(o is outcomes[1] for o in untaken)

    def test_texts_nobody_took_answer_the_stopping_fault(self, stub_session):
        def broken(path, payload):
            if payload["text"] == "text 2":
                raise KeyError("a bug")
            return 200, {"questions": ["q?"]}

        texts = [f"text {i}" for i in range(200)]
        outcomes = self.client(stub_session, broken).generate(texts, 1)
        fault = outcomes[2]
        assert isinstance(fault, KeyError)
        assert outcomes[-1] is fault
        assert all(o == ["q?"] or o is fault for o in outcomes)


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
        [questions] = client.generate(["some paragraph"], 3)
        assert len(questions) == 3

    def test_http_client_retries_then_succeeds(self, http_stub):
        state = {"calls": 0}

        def app(path, payload):
            state["calls"] += 1
            if state["calls"] == 1:
                return 503, {}
            return 200, {"questions": ["q?"]}

        url = http_stub(app)
        client = HttpQuestionGenClient(url, retries=1)
        assert client.generate(["text"], 1) == [["q?"]]
        assert state["calls"] == 2

    def test_http_client_exhausted_retries(self, http_stub):
        url = http_stub(lambda path, payload: (503, {}))
        client = HttpQuestionGenClient(url, retries=1)
        [outcome] = client.generate(["text"], 1)
        assert isinstance(outcome, TransportError)

    @pytest.mark.parametrize("kwargs", [{"retries": -1}, {"timeout_ms": 5}])
    def test_http_client_settings_checked(self, kwargs):
        with pytest.raises(ConfigError):
            HttpQuestionGenClient("http://127.0.0.1:1", **kwargs)

    def test_mock_client_deterministic(self):
        [a] = MockQuestionGenClient(seed=5).generate(["alpha bravo charlie delta words"], 3)
        [b] = MockQuestionGenClient(seed=5).generate(["alpha bravo charlie delta words"], 3)
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

    @pytest.mark.parametrize("field, value, detail", [
        ("question", "7", "7 is not a string"),
        ("answer_text", "null", "None is not a string"),
        ("doc_id", "5", "5 is not a string"),
        ("paragraph_ordinal", "2.5", "2.5 is not an integer"),
        ("paragraph_ordinal", "true", "True is not an integer"),
        ("synthetic", "1", "1 is not a boolean"),
    ])
    def test_value_the_writer_cannot_write_is_a_bad_record(self, tmp_path, field, value,
                                                            detail):
        rec = {"question": '"Q?"', "answer_text": '"A."', "doc_id": '"d"',
               "paragraph_ordinal": "0", field: value}
        path = tmp_path / "qa.jsonl"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n")
        with pytest.raises(PersistenceError, match=re.escape(f"{path}:1: bad record: {detail}")):
            read_qa_jsonl(path)
