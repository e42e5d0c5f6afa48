import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_pack_context
from ragmark.corpus import count_tokens
from ragmark.embed import LocalHashEmbedder
from ragmark.errors import GenerationError
from ragmark.generate import ExtractiveMockClient
from ragmark.index import IndexedDataset, IndexEntry, IndexKind, search
from ragmark.retrieve import (
    DEFAULT_TEMPLATE,
    Budgets,
    answer,
    pack_context,
    render_prompt,
)


def words(n, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(n))


def make_index(payloads, kind=IndexKind.QUESTIONS):
    # hand-laid unit vectors at distinct angles: entry i scores cos(i * 0.2) vs angle-0 query
    entries, keys = [], []
    for i, payload in enumerate(payloads):
        angle = i * 0.2
        keys.append((math.cos(angle), math.sin(angle)))
        entries.append(IndexEntry(f"key{i}", payload, ("doc", i)))
    return IndexedDataset(kind=kind, entries=entries, embedder_name="hand", keys=np.array(keys))


def hits_for(ds, threshold=0.0):
    return search(ds, np.array([1.0, 0.0]), threshold)


class TestRenderPrompt:
    def test_with_context(self):
        prompt = render_prompt("Why?", "Some context.")
        assert prompt == "Context:\nSome context.\n\nQuestion: Why?\nAnswer:"

    def test_empty_context_drops_block(self):
        assert render_prompt("Why?", "") == "Question: Why?\nAnswer:"

    def test_custom_template_without_standard_prefix(self):
        template = "{context}\nQ: {question}"
        assert render_prompt("x", "", template) == "\nQ: x"


class TestPackContext:
    def test_under_budget_packs_all(self):
        ds = make_index([words(100, "a"), words(100, "b")])
        packed = pack_context(hits_for(ds), ds, 256)
        assert packed.truncated is False
        assert packed.token_count == 200  # newline separator adds no token
        assert len(packed.included) == 2

    def test_overflow_payload_truncated_to_fill_budget_exactly(self):
        ds = make_index([words(150, "a"), words(150, "b"), words(150, "c")])
        packed = pack_context(hits_for(ds), ds, 256)
        assert packed.truncated is True
        assert packed.token_count == 256
        assert len(packed.included) == 2
        lines = packed.text.split("\n")
        assert len(lines) == 2
        assert count_tokens(lines[0]) == 150
        assert count_tokens(lines[1]) == 106  # cut on a token boundary

    def test_empty_hits_empty_context(self):
        ds = make_index([words(10)])
        packed = pack_context([], ds, 100)
        assert packed.text == "" and packed.truncated is False and packed.token_count == 0

    def test_duplicate_payloads_packed_once_first_wins(self):
        ds = make_index(["shared paragraph text", "shared paragraph text", "other text"])
        packed = pack_context(hits_for(ds), ds, 100)
        assert packed.text.count("shared paragraph text") == 1
        assert [h.entry_ref for h in packed.included] == [0, 2]

    def test_order_follows_scores(self):
        ds = make_index([words(5, "a"), words(5, "b"), words(5, "c")])
        packed = pack_context(hits_for(ds), ds, 100)
        assert packed.text.splitlines() == [words(5, "a"), words(5, "b"), words(5, "c")]

    def test_budget_must_be_positive(self):
        ds = make_index(["x y z"])
        with pytest.raises(ValueError):
            pack_context([], ds, 0)

    def test_included_is_prefix_of_deduplicated_hits(self):
        ds = make_index([words(30, f"p{i}") for i in range(6)])
        hits = hits_for(ds)
        packed = pack_context(hits, ds, 70)
        assert packed.included == hits[: len(packed.included)]

    def test_randomized_budget_never_exceeded(self):
        rng = random.Random(99)
        for _ in range(200):
            payloads = [words(rng.randint(1, 60), f"p{i}") for i in range(rng.randint(1, 8))]
            ds = make_index(payloads)
            budget = rng.randint(1, 120)
            packed = pack_context(hits_for(ds), ds, budget)
            assert packed.token_count <= budget
            assert count_tokens(packed.text) == packed.token_count


# Payload pieces: words, punctuation-only and token-free texts; drawing from a
# small pool makes duplicate payloads common.
PAYLOAD_PIECES = ["", " ", "\t\n", "!!", "...", ". , ;", "alpha", "alpha beta",
                  "beta, gamma.", "delta epsilon zeta eta", words(9, "x"), words(25, "y")]


class TestPackContextMatchesOracle:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_same_pack_as_full_recount(self, data):
        payloads = data.draw(st.lists(st.sampled_from(PAYLOAD_PIECES), min_size=1, max_size=12))
        ds = make_index(payloads)
        hits = hits_for(ds)
        # half the budgets land exactly on a payload boundary
        boundaries = [0]
        for p in dict.fromkeys(payloads):
            boundaries.append(boundaries[-1] + count_tokens(p))
        budget = data.draw(st.one_of(
            st.integers(1, 60),
            st.sampled_from([b for b in boundaries if b >= 1] or [1]),
        ))
        assert pack_context(hits, ds, budget) == oracle_pack_context(hits, ds, budget)


class TestAnswer:
    def _embedder(self):
        return LocalHashEmbedder(dim=512)

    def _corpus_index(self):
        emb = self._embedder()
        payloads = [
            "The reactor alpha design uses molten salt cooling throughout the core.",
            "Gardening with native plants reduces water use dramatically in summer.",
            "Deep sea vents host chemosynthetic bacteria and unusual ecosystems.",
        ]
        keys = [
            "What cooling does the reactor alpha design use?",
            "How does native plant gardening reduce water use?",
            "What lives near deep sea vents?",
        ]
        vectors = emb.embed_batch(keys)
        entries = [IndexEntry(k, p, ("doc", i)) for i, (k, p) in enumerate(zip(keys, payloads))]
        return IndexedDataset(IndexKind.QUESTIONS, entries, emb.name, vectors), emb

    def test_near_duplicate_question_tops_context(self):
        ds, emb = self._corpus_index()
        result = answer(
            "What cooling does the reactor alpha design actually use?",
            ds, 0.5, emb, ExtractiveMockClient(),
        )
        first_packed = ds.entries[result.context.included[0].entry_ref].payload_text
        assert first_packed.startswith("The reactor alpha design")
        assert result.generated_text == "The reactor alpha design uses molten salt cooling throughout the core."

    def test_threshold_one_absent_question_empty_context(self):
        ds, emb = self._corpus_index()
        result = answer("Completely unrelated mystery topic?", ds, 1.0, emb, ExtractiveMockClient())
        assert result.context.text == ""
        assert result.prompt == "Question: Completely unrelated mystery topic?\nAnswer:"
        assert result.generated_text == "I do not know."

    def test_mock_passthrough_first_sentence(self):
        ds, emb = self._corpus_index()
        result = answer("What lives near deep sea vents?", ds, 0.3, emb, ExtractiveMockClient())
        assert result.generated_text.endswith("ecosystems.")

    def test_prompt_overhead_accounted(self):
        ds, emb = self._corpus_index()
        budgets = Budgets(model_max_input=120, answer_reserve=20)
        result = answer("What lives near deep sea vents?", ds, 0.0, emb, ExtractiveMockClient(), budgets)
        assert count_tokens(result.prompt) + budgets.answer_reserve <= budgets.model_max_input

    def test_raising_threshold_never_adds_payload(self):
        ds, emb = self._corpus_index()
        question = "What cooling does the reactor design use?"
        packed_sets = []
        for t in (0.2, 0.5, 0.8):
            result = answer(question, ds, t, emb, ExtractiveMockClient())
            packed_sets.append(
                {ds.entries[h.entry_ref].payload_text for h in result.context.included}
            )
        assert packed_sets[2] <= packed_sets[1] <= packed_sets[0]

    def test_generation_failure_retains_context(self):
        class Boom:
            name = "boom"

            def generate(self, request):
                from ragmark.errors import TransportError

                raise TransportError("endpoint gone")

        ds, emb = self._corpus_index()
        with pytest.raises(GenerationError) as err:
            answer("What lives near deep sea vents?", ds, 0.0, emb, Boom())
        assert err.value.context is not None
        assert err.value.context.text != ""

    def test_audit_trail_retained(self):
        ds, emb = self._corpus_index()
        result = answer("What lives near deep sea vents?", ds, 0.0, emb, ExtractiveMockClient())
        assert result.threshold == 0.0
        assert result.dataset_kind is IndexKind.QUESTIONS
        assert len(result.hits) == 3
        assert result.prompt.startswith("Context:\n")


class TestFullPromptBudgetProperty:
    def test_randomized_prompts_fit_model_input(self):
        rng = random.Random(4242)
        emb = LocalHashEmbedder(dim=64)
        budgets = Budgets(model_max_input=4096, answer_reserve=256)
        vocab = [f"word{i}" for i in range(50)]
        for trial in range(50):
            payloads = [
                " ".join(rng.choices(vocab, k=rng.randint(20, 400))) for _ in range(rng.randint(1, 12))
            ]
            ds = make_index(payloads)
            question = " ".join(rng.choices(vocab, k=rng.randint(3, 200)))
            overhead = count_tokens(DEFAULT_TEMPLATE.format(context="", question=question))
            budget = budgets.model_max_input - budgets.answer_reserve - overhead
            packed = pack_context(hits_for(ds), ds, budget)
            prompt = render_prompt(question, packed.text)
            assert count_tokens(prompt) + budgets.answer_reserve <= budgets.model_max_input
