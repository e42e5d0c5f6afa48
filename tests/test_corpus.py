import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragmark.corpus import (
    REJECT_LATEX,
    REJECT_MALFORMED,
    REJECT_NO_ABSTRACT,
    REJECT_NO_ARXIV,
    REJECT_NOT_PMC,
    Document,
    Sentence,
    WhitespacePunctCounter,
    extract_sentences,
    filter_cord19,
    filter_sentences,
    normalize_ws,
    read_paragraphs_jsonl,
    read_sentences_jsonl,
    split_paragraphs,
    split_sentences,
    token_spans,
    tokenize,
    truncate_to_token_budget,
    write_paragraphs_jsonl,
    write_sentences_jsonl,
)
from ragmark.errors import EmptyDocumentError
from ragmark.retrieve import pack_context
from ragmark.testgen import assemble_test_set


def _record(**overrides):
    rec = {
        "paper_id": "p1",
        "title": "t",
        "abstract": "an abstract",
        "body_text": "plain body text",
        "repository": "PMC",
        "arxiv_id": "2001.0001",
    }
    rec.update(overrides)
    return rec


class TestFilterCord19:
    def test_all_pass_record_included_unchanged(self):
        rec = _record()
        docs = filter_cord19([rec])
        assert len(docs) == 1
        assert docs[0].id == "p1"
        assert docs[0].body == "plain body text"

    def test_empty_abstract_excluded(self):
        rejections = []
        assert filter_cord19([_record(abstract="")], rejections) == []
        assert rejections == [(0, REJECT_NO_ABSTRACT)]

    def test_latex_body_excluded_with_reason(self):
        rejections = []
        assert filter_cord19([_record(body_text=r"intro \begin{equation} x")], rejections) == []
        assert rejections == [(0, REJECT_LATEX)]

    def test_fixture_corpus_reason_codes(self):
        records = [
            _record(paper_id="keep1"),
            _record(paper_id="r1", abstract="   "),
            _record(paper_id="r2", repository="biorxiv"),
            _record(paper_id="r3", arxiv_id=""),
            _record(paper_id="r4", body_text=r"uses \cite{x} heavily"),
            _record(paper_id="keep2", repository="PubMed Central"),
        ]
        rejections = []
        docs = filter_cord19(records, rejections)
        assert [d.id for d in docs] == ["keep1", "keep2"]
        assert rejections == [
            (1, REJECT_NO_ABSTRACT),
            (2, REJECT_NOT_PMC),
            (3, REJECT_NO_ARXIV),
            (4, REJECT_LATEX),
        ]

    def test_malformed_record_rejected_not_fatal(self):
        rejections = []
        docs = filter_cord19(["not a dict", _record()], rejections)
        assert len(docs) == 1
        assert rejections == [(0, REJECT_MALFORMED)]

    def test_pure_filter_idempotent_and_order_preserving(self):
        records = [_record(paper_id=f"p{i}") for i in range(5)]
        records[2]["abstract"] = ""
        once = filter_cord19(records)
        assert [d.id for d in once] == ["p0", "p1", "p3", "p4"]
        # re-filtering the survivors (as records) keeps them all
        survivors = [_record(paper_id=d.id) for d in once]
        assert [d.id for d in filter_cord19(survivors)] == [d.id for d in once]


class TestSplitSentences:
    def test_two_plain_sentences(self):
        assert split_sentences("A b c. D e f.") == ["A b c.", "D e f."]

    def test_abbreviation_guard(self):
        assert split_sentences("Dr. Smith arrived. He left.") == ["Dr. Smith arrived.", "He left."]

    def test_empty_input(self):
        assert split_sentences("") == []

    def test_question_and_exclamation(self):
        assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_decimal_numbers_not_split(self):
        assert split_sentences("It rose 3.5 percent. Good.") == ["It rose 3.5 percent.", "Good."]

    def test_no_split_before_lowercase(self):
        assert split_sentences("see e.g. the appendix. Next one.") == [
            "see e.g. the appendix.",
            "Next one.",
        ]

    @given(
        st.lists(
            st.lists(st.sampled_from(["Alpha", "bravo", "charlie", "delta"]), min_size=2, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=80)
    def test_concat_is_lossless_up_to_whitespace(self, word_groups):
        sentences = []
        for words in word_groups:
            text = " ".join(words)
            sentences.append(text[0].upper() + text[1:] + ".")
        joined = " ".join(sentences)
        assert normalize_ws(" ".join(split_sentences(joined))) == normalize_ws(joined)


class TestFilterSentences:
    def _sentence(self, n_words):
        return Sentence("d", 0, 0, " ".join(["w"] * n_words), n_words)

    @pytest.mark.parametrize("n,kept", [(9, False), (10, True), (30, True), (31, False)])
    def test_boundaries(self, n, kept):
        out = filter_sentences([self._sentence(n)])
        assert bool(out) is kept

    def test_idempotent_and_order_preserving(self):
        sentences = [self._sentence(n) for n in (5, 12, 30, 31, 10)]
        once = filter_sentences(sentences)
        assert filter_sentences(once) == once
        assert [s.word_count for s in once] == [12, 30, 10]

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            filter_sentences([], min_words=10, max_words=9)


class TestTokenCounter:
    def test_empty_is_zero(self, counter):
        assert counter.count("") == 0

    def test_punctuation_counts_as_tokens(self, counter):
        assert counter.count("Hello, world!") == 4

    @given(st.text(alphabet="ab .,!", max_size=40), st.text(alphabet="ab .,!", max_size=40))
    @settings(max_examples=100)
    def test_subadditive_under_space_join(self, a, b):
        counter = WhitespacePunctCounter()
        assert counter.count(a + " " + b) <= counter.count(a) + counter.count(b) + 1

    @given(st.text(), st.text())
    @settings(max_examples=300)
    def test_additive_under_newline_join(self, a, b):
        # the TokenCounter contract that pack_context's running total relies on
        counter = WhitespacePunctCounter()
        assert counter.count(a + "\n" + b) == counter.count(a) + counter.count(b)

    @pytest.mark.parametrize("counter", [[WhitespacePunctCounter()], "ws-punct"],
                             ids=["list", "str"])
    @pytest.mark.parametrize("call", [
        lambda c: split_paragraphs(Document("d", "t", "Some words here."), c),
        lambda c: truncate_to_token_budget("Some words here.", c, 2),
        # the counter is checked first, so the other arguments are never read
        lambda c: assemble_test_set(None, None, c, None),
        lambda c: pack_context([], None, c, 10),
    ], ids=["split_paragraphs", "truncate_to_token_budget", "assemble_test_set",
            "pack_context"])
    def test_list_or_str_counter_is_rejected(self, call, counter):
        # both have a count method, which would count list items or substrings
        with pytest.raises(TypeError, match="TokenCounter"):
            call(counter)

    def test_tokenize_matches_spans(self):
        text = "One, two... three!"
        assert [text[s:e] for s, e in token_spans(text)] == tokenize(text)


class TestTruncate:
    def test_exact_budget_fill(self, counter):
        text = " ".join(f"w{i}" for i in range(20))
        prefix, rest = truncate_to_token_budget(text, counter, 7)
        assert counter.count(prefix) == 7
        assert normalize_ws(prefix + " " + rest) == text

    def test_zero_budget(self, counter):
        prefix, rest = truncate_to_token_budget("a b c", counter, 0)
        assert prefix == "" and rest == "a b c"


class TestSplitParagraphs:
    def test_three_short_naturals_intact(self, counter):
        doc = Document("d", "", "Alpha beta.\n\nGamma delta.\n\nEpsilon zeta.")
        paras = split_paragraphs(doc, counter)
        assert [p.text for p in paras] == ["Alpha beta.", "Gamma delta.", "Epsilon zeta."]
        assert [p.ordinal for p in paras] == [0, 1, 2]

    def test_oversize_natural_paragraph_splits_within_budget(self, counter):
        sentences = []
        for i in range(60):
            words = " ".join(f"word{i}x{j}" for j in range(9))
            sentences.append(words[0].upper() + words[1:] + ".")
        doc = Document("d", "", " ".join(sentences))  # 600 tokens in one natural paragraph
        assert counter.count(doc.body) == 600
        paras = split_paragraphs(doc, counter, budget=256)
        assert len(paras) >= 3
        assert all(p.token_count <= 256 for p in paras)
        assert not any(p.source_meta for p in paras)  # sentence-level split, no hard cuts
        joined = normalize_ws(" ".join(p.text for p in paras))
        assert joined == normalize_ws(doc.body)

    def test_empty_document_errors(self, counter):
        with pytest.raises(EmptyDocumentError):
            split_paragraphs(Document("d", "", "   \n  "), counter)

    def test_giant_sentence_hard_split_and_flagged(self, counter):
        body = " ".join(f"tok{i}" for i in range(70))  # one sentence, no terminator
        paras = split_paragraphs(Document("d", "", body), counter, budget=16)
        assert len(paras) > 1
        assert all(p.token_count <= 16 for p in paras)
        assert all(p.source_meta.get("hard_split") == "true" for p in paras)
        assert normalize_ws(" ".join(p.text for p in paras)) == body

    def test_budget_under_minimum_rejected(self, counter):
        with pytest.raises(ValueError):
            split_paragraphs(Document("d", "", "text"), counter, budget=8)

    def test_custom_counter_enforced(self):
        class Doubling:
            name = "doubling"

            def count(self, text):
                return 2 * len(text.split())

        sentences = []
        for i in range(20):
            words = " ".join(f"w{i}y{j}" for j in range(9))
            sentences.append(words[0].upper() + words[1:] + ".")
        doc = Document("d", "", " ".join(sentences))
        paras = split_paragraphs(doc, Doubling(), budget=100)
        assert all(2 * len(p.text.split()) <= 100 for p in paras)


class TestExtractAndPersist:
    def test_extract_sentences_orders_and_counts(self, counter):
        doc = Document("d", "", "One two three. Four five six seven.\n\nEight nine ten.")
        paras = split_paragraphs(doc, counter)
        sentences = extract_sentences(paras)
        assert [(s.paragraph_ordinal, s.ordinal) for s in sentences] == [(0, 0), (0, 1), (1, 0)]
        assert [s.word_count for s in sentences] == [3, 4, 3]

    def test_paragraph_jsonl_roundtrip_and_schema(self, tmp_path, counter):
        doc = Document("d", "", "Alpha beta gamma.\n\nDelta epsilon.")
        paras = split_paragraphs(doc, counter)
        path = tmp_path / "paras.jsonl"
        write_paragraphs_jsonl(paras, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"doc_id", "ordinal", "text", "token_count"}
        loaded = read_paragraphs_jsonl(path)
        assert [(p.doc_id, p.ordinal, p.text, p.token_count) for p in loaded] == [
            (p.doc_id, p.ordinal, p.text, p.token_count) for p in paras
        ]

    def test_sentence_jsonl_roundtrip_and_schema(self, tmp_path):
        sentences = [Sentence("d", 0, 0, "a b c", 3), Sentence("d", 1, 0, "d e", 2)]
        path = tmp_path / "sents.jsonl"
        write_sentences_jsonl(sentences, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"doc_id", "paragraph_ordinal", "ordinal", "text", "word_count"}
        assert read_sentences_jsonl(path) == sentences
