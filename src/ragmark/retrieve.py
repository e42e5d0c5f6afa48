"""The retrieval-augmented answer pipeline.

Embed the question, scan the index at a similarity threshold, pack the
passing payloads into the prompt in descending-similarity order under a hard
token budget, and hand the rendered prompt to a generation client. Every
intermediate artifact is kept on the result for audit. A threshold sweep
embeds and scans once per question, at its lowest threshold, and packs each
distinct prefix of those hits once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from .corpus import (
    TokenCounter,
    WhitespacePunctCounter,
    require_counter,
    truncate_to_token_budget,
)
from .embed import Embedder
from .errors import GenerationError, RagmarkError
from .generate import GenerationClient, GenerationRequest
from .index import IndexedDataset, IndexKind, RetrievalHit, hits_at, search

log = logging.getLogger(__name__)

DEFAULT_TEMPLATE = "Context:\n{context}\n\nQuestion: {question}\nAnswer:"
_CONTEXT_PREFIX = "Context:\n{context}\n\n"


@dataclass
class Budgets:
    model_max_input: int = 4096  # prompt plus generated answer must fit this
    answer_reserve: int = 256


@dataclass
class PackedContext:
    text: str
    included: list[RetrievalHit]
    truncated: bool
    token_count: int


@dataclass
class Retrieval:
    """One threshold's hits, packed context and rendered prompt for one question."""

    threshold: float
    hits: list[RetrievalHit]
    context: PackedContext
    prompt: str


@dataclass
class RagAnswer:
    question: str
    context: PackedContext
    generated_text: str
    threshold: float
    dataset_kind: IndexKind
    prompt: str = ""
    hits: list[RetrievalHit] = field(default_factory=list)


def render_prompt(question: str, context: str, template: str = DEFAULT_TEMPLATE) -> str:
    """Fill the prompt template; an empty context drops the context block entirely."""
    if context:
        return template.format(context=context, question=question)
    if template.startswith(_CONTEXT_PREFIX):
        return template[len(_CONTEXT_PREFIX):].format(question=question)
    return template.format(context="", question=question)


def pack_context(
    hits: list[RetrievalHit],
    ds: IndexedDataset,
    counter: TokenCounter,
    budget: int,
) -> PackedContext:
    """Greedy packing of hit payloads, best first, newline-joined.

    A payload seen before is skipped (several questions can share one parent
    paragraph). The first payload that would overflow is cut on a token
    boundary so the context fills the remaining budget exactly, and packing
    stops there. Each payload is counted once: the counter's counts add over
    newline joins, so the running total is the joined context's count.
    """
    require_counter(counter)
    if budget < 1:
        raise ValueError("budget must be at least 1 token")
    parts: list[str] = []
    used = 0
    included: list[RetrievalHit] = []
    truncated = False
    seen: set[str] = set()
    for hit in hits:
        payload = ds.entries[hit.entry_ref].payload_text
        if payload in seen:
            continue
        count = counter.count(payload)
        if used + count > budget:
            truncated = True
            payload, _ = truncate_to_token_budget(payload, counter, budget - used)
            if not payload:
                break
            count = counter.count(payload)
        if payload or parts:  # empty payloads ahead of all text leave no separator
            parts.append(payload)
        used += count
        seen.add(payload)
        included.append(hit)
        if truncated:
            break
    return PackedContext(text="\n".join(parts), included=included, truncated=truncated,
                         token_count=used)


def retrieve_at(
    question: str,
    ds: IndexedDataset,
    thresholds: list[float],
    embedder: Embedder,
    budgets: Budgets | None = None,
    *,
    counter: TokenCounter | None = None,
    template: str = DEFAULT_TEMPLATE,
) -> list[Retrieval]:
    """embed -> search -> pack -> render at each threshold, in the given order.

    The question is embedded and searched once, at the lowest threshold; the
    hits at every other threshold are a prefix of that list (``hits_at``).
    The context budget is what remains of the model input after the template
    scaffold, the question itself, and the reserve for the generated answer.
    """
    budgets = budgets or Budgets()
    counter = counter or WhitespacePunctCounter()

    query = embedder.embed_batch([question])[0]
    lowest = search(ds, query, min(thresholds))

    overhead = counter.count(template.format(context="", question=question))
    context_budget = budgets.model_max_input - budgets.answer_reserve - overhead
    if lowest and context_budget < 1:
        log.warning("no room for context: budget came out at %d tokens", context_budget)

    out: list[Retrieval] = []
    for threshold in thresholds:
        hits = hits_at(lowest, threshold)
        if out and len(hits) == len(out[-1].hits):  # same hits: same context and prompt
            out.append(replace(out[-1], threshold=threshold))
            continue
        if hits and context_budget >= 1:
            packed = pack_context(hits, ds, counter, context_budget)
        else:
            packed = PackedContext(text="", included=[], truncated=False, token_count=0)
        prompt = render_prompt(question, packed.text, template)
        out.append(Retrieval(threshold=threshold, hits=hits, context=packed, prompt=prompt))
    return out


def generation_request(prompt: str, budgets: Budgets) -> GenerationRequest:
    """The request every arm sends: greedy decoding up to the answer reserve."""
    return GenerationRequest(prompt=prompt, max_new_tokens=budgets.answer_reserve, temperature=0.0)


def answer(
    question: str,
    ds: IndexedDataset,
    threshold: float,
    embedder: Embedder,
    gen_client: GenerationClient,
    budgets: Budgets | None = None,
    *,
    counter: TokenCounter | None = None,
    template: str = DEFAULT_TEMPLATE,
) -> RagAnswer:
    """embed -> search -> pack -> render -> generate at one threshold, with full audit trail."""
    budgets = budgets or Budgets()
    [found] = retrieve_at(question, ds, [threshold], embedder, budgets,
                          counter=counter, template=template)
    try:
        generated = gen_client.generate(generation_request(found.prompt, budgets))
    except RagmarkError as exc:
        raise GenerationError(
            f"generation failed for {question!r}: {exc}", context=found.context
        ) from exc
    return RagAnswer(
        question=question,
        context=found.context,
        generated_text=generated,
        threshold=threshold,
        dataset_kind=ds.kind,
        prompt=found.prompt,
        hits=found.hits,
    )
