import csv
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_align,
    oracle_bleu,
    oracle_bleu_tokens,
    oracle_cs_best,
    oracle_pair_cosine,
    oracle_lcs_length,
    oracle_rouge,
    streaming_means,
)
from topicfix import word_bucket
from ragmark.embed import LocalHashEmbedder
from ragmark.errors import EmptyReferenceError
from ragmark.metrics import (
    _align,
    ScoreRow,
    bleu,
    bleu_tokens,
    cs_score,
    lcs_length,
    meteor,
    read_score_rows_jsonl,
    rouge,
    rouge_tokens,
    score_row,
    write_score_rows_csv,
    write_score_rows_jsonl,
)


# words sharing the stem "walk" (and one sharing "talk"), plus words with no suffix
STEM_VOCAB = ["walk", "walks", "walked", "walking", "talks", "talk", "the", "a"]


class TestBleu:
    def test_identity(self):
        assert bleu("the quick brown fox jumps", "the quick brown fox jumps") == 1.0

    def test_zero_overlap_hits_smoothing_floor(self):
        # the exact floor is 1e-9; allow one ulp of float noise from the log/exp trip
        assert bleu("alpha beta gamma delta", "one two three four") <= 1e-9 + 1e-15

    def test_brevity_penalty_hand_case(self):
        # unigram/bigram/trigram precision all 1, penalty exp(1 - 4/3)
        expected = math.exp(1.0 - 4.0 / 3.0)
        assert bleu("the cat sat", "the cat sat down", max_n=3) == pytest.approx(
            expected, abs=1e-5
        )
        assert expected == pytest.approx(0.71653, abs=1e-5)

    def test_empty_candidate(self):
        assert bleu("", "reference text") == 0.0

    def test_case_and_trailing_whitespace_invariance(self):
        assert bleu("The Cat SAT  ", "the cat sat") == bleu("the cat sat", "the cat sat")

    def test_clipping_counts(self):
        # "the the the" vs "the cat": unigram precision clipped to 1/3
        assert bleu("the the the", "the cat", max_n=1) == pytest.approx(1 / 3)

    def test_matches_oracle_spot_checks(self):
        rng = random.Random(5)
        vocab = ["a", "b", "c", "d"]
        for _ in range(300):
            cand = rng.choices(vocab, k=rng.randint(0, 7))
            ref = rng.choices(vocab, k=rng.randint(1, 7))
            assert bleu_tokens(cand, ref) == pytest.approx(oracle_bleu(cand, ref), abs=1e-12)

    # a small vocabulary gives long matches, a larger one levels that match nothing
    @given(st.sampled_from(["ab", "abcdefghijkl"]).flatmap(
               lambda vocab: st.tuples(st.lists(st.sampled_from(vocab), max_size=40),
                                       st.lists(st.sampled_from(vocab), max_size=40))),
           st.integers(1, 6), st.booleans())
    @settings(max_examples=500)
    def test_bit_for_bit_with_the_counting_oracle(self, texts, max_n, as_tuples):
        cand, ref = map(tuple, texts) if as_tuples else texts
        assert bleu_tokens(cand, ref, max_n).hex() == oracle_bleu_tokens(cand, ref, max_n).hex()


class TestRouge:
    def test_identity(self):
        assert rouge("a b c d", "a b c d") == 1.0

    def test_disjoint(self):
        assert rouge("a b c", "x y z") == 0.0

    def test_hand_lcs_case(self):
        # LCS("a b c d", "a c d e") = "a c d", P = R = 3/4
        assert rouge("a b c d", "a c d e") == pytest.approx(0.75)

    def test_empty_inputs(self):
        assert rouge("", "a b") == 0.0
        assert rouge("a b", "") == 0.0

    def test_lcs_length_table(self):
        assert lcs_length(list("abcd"), list("acde")) == 3
        assert lcs_length([], list("ab")) == 0
        assert lcs_length(list("xyx"), list("yxy")) == 2

    def test_matches_oracle_spot_checks(self):
        rng = random.Random(6)
        vocab = ["a", "b", "c"]
        for _ in range(300):
            cand = tuple(rng.choices(vocab, k=rng.randint(0, 6)))
            ref = tuple(rng.choices(vocab, k=rng.randint(0, 6)))
            assert rouge_tokens(cand, ref) == pytest.approx(oracle_rouge(cand, ref), abs=1e-12)

    @given(st.text(alphabet="abc ", max_size=30), st.text(alphabet="abc ", max_size=30))
    @settings(max_examples=100)
    def test_case_invariance(self, a, b):
        assert rouge(a.upper(), b) == rouge(a, b)

    @given(st.lists(st.sampled_from("abcd"), max_size=90),
           st.lists(st.sampled_from("abcd"), max_size=90))
    @settings(max_examples=500)
    def test_bit_parallel_lcs_equals_the_dp(self, a, b):
        # up to 90 tokens: the bit vector spans more than one machine word
        assert lcs_length(a, b) == oracle_lcs_length(a, b)
        assert lcs_length(b, a) == oracle_lcs_length(a, b)


class TestMeteor:
    def test_identity_six_tokens(self):
        # single chunk, penalty 0.5 * (1/6)^3
        expected = 1.0 - 0.5 * (1 / 6) ** 3
        assert meteor("a b c d e f", "a b c d e f") == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.9976852, abs=1e-6)

    def test_zero_matches(self):
        assert meteor("alpha beta", "gamma delta") == 0.0

    def test_reversed_word_order_halves_score(self):
        # 3 matches in 3 chunks: penalty 0.5, F-mean 1
        assert meteor("the cat sat", "sat cat the") == pytest.approx(0.5)

    def test_stem_stage_matches_inflections(self):
        # "jumped" and "jumping" share the stem "jump"
        score = meteor("he jumped high", "he jumping high")
        assert score > 0.9  # all three tokens align

    def test_recall_weighted_f_mean(self):
        # cand "a b" vs ref "a b c d": m=2, P=1, R=0.5, F=10*0.5/(0.5+9)=0.526...
        expected_f = 10 * 1.0 * 0.5 / (0.5 + 9 * 1.0)
        penalty = 0.5 * (1 / 2) ** 3
        assert meteor("a b", "a b c d") == pytest.approx(expected_f * (1 - penalty), abs=1e-9)

    def test_empty_inputs(self):
        assert meteor("", "a") == 0.0
        assert meteor("a", "") == 0.0

    @given(st.lists(st.sampled_from(STEM_VOCAB), max_size=14),
           st.lists(st.sampled_from(STEM_VOCAB), max_size=14))
    @settings(max_examples=500)
    def test_alignment_equals_the_reference_scan(self, cand, ref):
        assert _align(cand, ref) == oracle_align(cand, ref)


class TestCsScore:
    def test_identity(self, embedder):
        text = "First sentence here. Second sentence there."
        assert cs_score(text, text, embedder) == pytest.approx(1.0, abs=1e-6)

    def test_max_picks_the_identical_reference(self, embedder):
        reference = "Alpha words one. Beta words two. Gamma words three."
        assert cs_score("Beta words two.", reference, embedder) == pytest.approx(1.0, abs=1e-6)

    def test_best_matches_one_and_half_average(self):
        emb = LocalHashEmbedder(dim=64)
        pool = ["anchor", "brick", "cedar", "dune", "ember", "flint", "grove", "heath",
                "inlet", "joist", "kiln", "lathe"]
        chosen, used = [], set()
        for word in pool:
            bucket = word_bucket(word, emb.dim)
            if bucket not in used:
                chosen.append(word)
                used.add(bucket)
            if len(chosen) == 5:
                break
        a, b, c, u, w = chosen
        # g1 == r1 gives best match 1.0; g2 shares exactly one of two words
        # with r2 and nothing with r1, giving best match 0.5
        generated = f"{a.capitalize()} {b} {c}. {u.capitalize()} {w}."
        reference = f"{a.capitalize()} {b} {c}. {u.capitalize()} {chosen[1]}."
        # r2 reuses b, which g2 does not contain; overlap is only u
        assert cs_score(generated, reference, emb) == pytest.approx(0.75, abs=1e-9)

    def test_permutation_of_references_bit_identical(self, embedder):
        generated = "Topic one sentence. Topic two sentence."
        ref_a = "Alpha first reference. Beta second reference. Gamma third reference."
        ref_b = "Gamma third reference. Alpha first reference. Beta second reference."
        assert cs_score(generated, ref_a, embedder) == cs_score(generated, ref_b, embedder)

    def test_adding_reference_never_decreases(self, embedder):
        rng = random.Random(11)
        vocab = [f"word{i}" for i in range(30)]
        for _ in range(100):
            gen_sents = [
                " ".join(rng.choices(vocab, k=5)).capitalize() + "."
                for _ in range(rng.randint(1, 3))
            ]
            ref_sents = [
                " ".join(rng.choices(vocab, k=5)).capitalize() + "."
                for _ in range(rng.randint(1, 3))
            ]
            extra = " ".join(rng.choices(vocab, k=5)).capitalize() + "."
            generated = " ".join(gen_sents)
            base = cs_score(generated, " ".join(ref_sents), embedder)
            grown = cs_score(generated, " ".join(ref_sents + [extra]), embedder)
            assert grown >= base - 1e-12

    def test_not_symmetric_witness(self, embedder):
        generated = "Alpha beta gamma."
        reference = "Alpha beta gamma. Completely different words here."
        forward = cs_score(generated, reference, embedder)
        backward = cs_score(reference, generated, embedder)
        assert forward == pytest.approx(1.0, abs=1e-6)
        assert backward < 0.9

    def test_empty_reference_is_error(self, embedder):
        with pytest.raises(EmptyReferenceError):
            cs_score("Some text.", "   ", embedder)

    def test_matrix_shape(self, embedder):
        # a 2 x 3 comparison: one batch of generated sentences, then one of reference sentences
        batches = []

        class Recording:
            def embed_batch(self, texts):
                batches.append(list(texts))
                return embedder.embed_batch(texts)

        generated, reference = "One sentence. Two sentence.", "Ref one. Ref two. Ref three."
        assert cs_score(generated, reference, Recording()) == cs_score(generated, reference, embedder)
        assert batches == [["One sentence.", "Two sentence."], ["Ref one.", "Ref two.", "Ref three."]]


# Vectors with a small pool of components, so that equal and proportional
# vectors (exact best-match ties) are common.
CS_VECTORS = st.integers(1, 6).flatmap(lambda dim: st.tuples(*[
    st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(1e-6, 1e3)
                      | st.floats(-1e3, -1e-6), min_size=dim, max_size=dim).filter(any),
             min_size=1, max_size=5)
    for _ in range(2)]))


class TestCsScoreMatchesPairLoop:
    @given(CS_VECTORS)
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_a_cosine_per_pair(self, vectors):
        g_vecs, r_vecs = (np.array(v) for v in vectors)

        class Scripted:  # the generated sentences' batch, then the reference's
            batches = [g_vecs, r_vecs]

            def embed_batch(self, texts):
                return self.batches.pop(0)

        def text(n):
            return " ".join(f"Sentence {i} here." for i in range(n))

        got = cs_score(text(len(g_vecs)), text(len(r_vecs)), Scripted())
        assert got == oracle_cs_best(g_vecs, r_vecs, oracle_pair_cosine)
        assert got == pytest.approx(oracle_cs_best(g_vecs, r_vecs), abs=1e-12)


class TestScoreRow:
    def test_identity_quadruple(self, embedder):
        text = "The quick brown fox jumps over the lazy dog today."
        row = score_row("q1", text, text, embedder)
        assert row.rouge == 1.0
        assert row.bleu == 1.0
        assert row.cs == pytest.approx(1.0, abs=1e-6)
        assert row.meteor == pytest.approx(1.0 - 0.5 * (1 / 11) ** 3, abs=1e-6)

    def test_empty_generated_zero_row(self, embedder):
        row = score_row("q2", "  ", "reference text.", embedder)
        assert (row.rouge, row.meteor, row.bleu, row.cs) == (0.0, 0.0, 0.0, 0.0)

    def test_mean_against_streaming_oracle(self, embedder):
        rng = random.Random(3)
        values = [rng.random() for _ in range(500)]
        assert math.fsum(values) / len(values) == pytest.approx(
            streaming_means(values), abs=1e-12
        )


class TestPersistence:
    def _rows(self):
        return [
            ScoreRow("q0001", 0.25, 1 / 3, 0.1234567890123456, -0.5),
            ScoreRow("q0002", 1.0, 0.0, 1e-9, 0.9999999999),
        ]

    def test_csv_roundtrip_exact(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_score_rows_csv(self._rows(), path)
        with open(path, encoding="utf-8", newline="") as fh:
            header, *body = csv.reader(fh)
        assert header == ["question_id", "rouge", "meteor", "bleu", "cs"]
        assert [ScoreRow(q, *map(float, values)) for q, *values in body] == self._rows()

    def test_jsonl_roundtrip_exact(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_score_rows_jsonl(self._rows(), path)
        assert read_score_rows_jsonl(path) == self._rows()
