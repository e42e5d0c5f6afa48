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
    count_tokens,
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
from oracles import oracle_truncate_to_token_budget
from ragmark.errors import EmptyDocumentError


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
    def test_empty_is_zero(self):
        assert count_tokens("") == 0

    def test_punctuation_counts_as_tokens(self):
        assert count_tokens("Hello, world!") == 4

    @given(st.text(alphabet="ab .,!", max_size=40), st.text(alphabet="ab .,!", max_size=40))
    @settings(max_examples=100)
    def test_subadditive_under_space_join(self, a, b):
        assert count_tokens(a + " " + b) <= count_tokens(a) + count_tokens(b) + 1

    @given(st.text(), st.text())
    @settings(max_examples=300)
    def test_additive_under_newline_join(self, a, b):
        # pack_context's running total relies on this
        assert count_tokens(a + "\n" + b) == count_tokens(a) + count_tokens(b)

    def test_tokenize_matches_spans(self):
        text = "One, two... three!"
        assert [text[s:e] for s, e in token_spans(text)] == tokenize(text)


class TestTruncate:
    def test_exact_budget_fill(self):
        text = " ".join(f"w{i}" for i in range(20))
        prefix, rest = truncate_to_token_budget(text, 7)
        assert count_tokens(prefix) == 7
        assert normalize_ws(prefix + " " + rest) == text

    def test_zero_budget(self):
        prefix, rest = truncate_to_token_budget("a b c", 0)
        assert prefix == "" and rest == "a b c"

    # any text, and short texts dense in token boundaries, combining marks and newlines
    @given(st.one_of(st.text(), st.text(alphabet="ab .,!\n\t\u00e9\u0301_", max_size=60)),
           st.integers(-3, 60))
    @settings(max_examples=1000)
    def test_same_cut_as_prefix_search(self, text, budget):
        assert truncate_to_token_budget(text, budget) == oracle_truncate_to_token_budget(text, budget)


class TestSplitParagraphs:
    def test_three_short_naturals_intact(self):
        doc = Document("d", "", "Alpha beta.\n\nGamma delta.\n\nEpsilon zeta.")
        paras = split_paragraphs(doc)
        assert [p.text for p in paras] == ["Alpha beta.", "Gamma delta.", "Epsilon zeta."]
        assert [p.ordinal for p in paras] == [0, 1, 2]

    def test_oversize_natural_paragraph_splits_within_budget(self):
        sentences = []
        for i in range(60):
            words = " ".join(f"word{i}x{j}" for j in range(9))
            sentences.append(words[0].upper() + words[1:] + ".")
        doc = Document("d", "", " ".join(sentences))  # 600 tokens in one natural paragraph
        assert count_tokens(doc.body) == 600
        paras = split_paragraphs(doc, budget=256)
        assert len(paras) >= 3
        assert all(p.token_count <= 256 for p in paras)
        assert not any(p.source_meta for p in paras)  # sentence-level split, no hard cuts
        joined = normalize_ws(" ".join(p.text for p in paras))
        assert joined == normalize_ws(doc.body)

    def test_empty_document_errors(self):
        with pytest.raises(EmptyDocumentError):
            split_paragraphs(Document("d", "", "   \n  "))

    def test_giant_sentence_hard_split_and_flagged(self):
        body = " ".join(f"tok{i}" for i in range(70))  # one sentence, no terminator
        paras = split_paragraphs(Document("d", "", body), budget=16)
        assert len(paras) > 1
        assert all(p.token_count <= 16 for p in paras)
        assert all(p.source_meta.get("hard_split") == "true" for p in paras)
        assert normalize_ws(" ".join(p.text for p in paras)) == body

    def test_budget_under_minimum_rejected(self):
        with pytest.raises(ValueError):
            split_paragraphs(Document("d", "", "text"), budget=8)


class TestExtractAndPersist:
    def test_extract_sentences_orders_and_counts(self):
        doc = Document("d", "", "One two three. Four five six seven.\n\nEight nine ten.")
        paras = split_paragraphs(doc)
        sentences = extract_sentences(paras)
        assert [(s.paragraph_ordinal, s.ordinal) for s in sentences] == [(0, 0), (0, 1), (1, 0)]
        assert [s.word_count for s in sentences] == [3, 4, 3]

    def test_paragraph_jsonl_roundtrip_and_schema(self, tmp_path):
        doc = Document("d", "", "Alpha beta gamma.\n\nDelta epsilon.")
        paras = split_paragraphs(doc)
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
