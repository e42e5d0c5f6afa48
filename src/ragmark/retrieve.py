"""The retrieval-augmented answer pipeline.

Embed the question, scan the index at a similarity threshold, pack the
passing payloads into the prompt in descending-similarity order under a hard
token budget, and hand the rendered prompt to a generation client. A
``Retrieval`` keeps the hits, packed context and prompt a threshold gave;
``answer`` returns it with the generated text. A threshold sweep embeds and
scans once per question, at its lowest threshold, and packs each distinct
prefix of those hits once. The ranking stays two arrays (``Hits``) from the
scan to the prompt: packing walks its entry refs as ints and records the
refs it packed, and each payload's token count is taken once per loaded
index (``IndexedDataset.payload_tokens``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .corpus import count_tokens, truncate_to_token_budget
from .embed import Embedder
from .errors import ConfigError
from .generate import GenerationClient, GenerationRequest
from .index import Hits, IndexedDataset, hits_at, search

log = logging.getLogger(__name__)

DEFAULT_TEMPLATE = "Context:\n{context}\n\nQuestion: {question}\nAnswer:"
_CONTEXT_PREFIX = "Context:\n{context}\n\n"


@dataclass
class Budgets:
    model_max_input: int = 4096  # prompt plus generated answer must fit this
    answer_reserve: int = 256

    def __post_init__(self):
        if not 1 <= self.answer_reserve < self.model_max_input:
            raise ConfigError(
                f"rag.answer_reserve ({self.answer_reserve}) must be at least 1 and below "
                f"rag.model_max_input ({self.model_max_input})"
            )


@dataclass
class PackedContext:
    text: str
    included: list[int]  # the entry refs whose payloads were packed, in packing order
    truncated: bool
    token_count: int


@dataclass
class Retrieval:
    """One threshold's hits, packed context and rendered prompt for one question."""

    threshold: float
    hits: Hits
    context: PackedContext
    prompt: str


def render_prompt(question: str, context: str, template: str = DEFAULT_TEMPLATE) -> str:
    """Fill the prompt template; an empty context drops the context block entirely."""
    if context:
        return template.format(context=context, question=question)
    if template.startswith(_CONTEXT_PREFIX):
        return template[len(_CONTEXT_PREFIX):].format(question=question)
    return template.format(context="", question=question)


def pack_context(hits: Hits, ds: IndexedDataset, budget: int) -> PackedContext:
    """Greedy packing of hit payloads, best first, newline-joined.

    The hits' entry refs are walked as ints. A payload seen before is
    skipped: several questions can share one parent paragraph, which the
    index holds once under one payload id. The first payload that would
    overflow is cut on a token boundary so the context fills the remaining
    budget exactly, and packing stops there. ``included`` lists the refs
    whose payloads were packed. Each payload is counted once per loaded
    index (``ds.payload_tokens``): token counts add over newline joins, so
    the running total is the joined context's count.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1 token")
    parts: list[str] = []
    used = 0
    included: list[int] = []
    truncated = False
    seen: set[int] = set()
    for ref in hits.refs.tolist():
        payload_id = ds.payload_ids[ref]
        if payload_id in seen:
            continue
        payload = ds.payloads[payload_id]
        count = ds.payload_tokens(payload_id)
        if used + count > budget:
            truncated = True
            payload, _ = truncate_to_token_budget(payload, budget - used)
            if not payload:
                break
            count = budget - used  # the cut holds exactly that many tokens
        if payload or parts:  # empty payloads ahead of all text leave no separator
            parts.append(payload)
        used += count
        seen.add(payload_id)
        included.append(ref)
        if truncated:
            break
    return PackedContext(text="\n".join(parts), included=included, truncated=truncated,
                         token_count=used)


def context_room(question: str, budgets: Budgets, template: str) -> int:
    """Tokens left for context: the model input less the answer reserve and the empty prompt."""
    overhead = count_tokens(template.format(context="", question=question))
    return budgets.model_max_input - budgets.answer_reserve - overhead


def retrieve_at(
    question: str,
    ds: IndexedDataset,
    thresholds: list[float],
    embedder: Embedder,
    budgets: Budgets | None = None,
    *,
    template: str = DEFAULT_TEMPLATE,
) -> list[Retrieval]:
    """embed -> search -> pack -> render at each threshold, in the given order.

    The question is embedded and searched once, at the lowest threshold; the
    hits at every other threshold are a prefix of that list (``hits_at``).
    The context budget is what remains of the model input after the template
    scaffold, the question itself, and the reserve for the generated answer.
    """
    budgets = budgets or Budgets()

    query = embedder.embed_batch([question])[0]
    lowest = search(ds, query, min(thresholds))

    context_budget = context_room(question, budgets, template)
    if lowest and context_budget < 1:
        log.warning("no room for context: budget came out at %d tokens", context_budget)

    out: list[Retrieval] = []
    for threshold in thresholds:
        hits = hits_at(lowest, threshold)
        if out and len(hits) == len(out[-1].hits):  # same hits: same context and prompt
            out.append(replace(out[-1], threshold=threshold))
            continue
        if hits and context_budget >= 1:
            packed = pack_context(hits, ds, context_budget)
        else:
            packed = PackedContext(text="", included=[], truncated=False, token_count=0)
        prompt = render_prompt(question, packed.text, template)
        out.append(Retrieval(threshold=threshold, hits=hits, context=packed, prompt=prompt))
    return out


def generation_request(prompt: str, budgets: Budgets) -> GenerationRequest:
    """The request every arm sends: greedy decoding up to the answer reserve."""
    return GenerationRequest(prompt=prompt, max_new_tokens=budgets.answer_reserve)


def answer(
    question: str,
    ds: IndexedDataset,
    threshold: float,
    embedder: Embedder,
    gen_client: GenerationClient,
    budgets: Budgets | None = None,
    *,
    template: str = DEFAULT_TEMPLATE,
) -> tuple[Retrieval, str]:
    """embed -> search -> pack -> render -> generate at one threshold.

    Returns the threshold's ``Retrieval`` and the text generated from its
    prompt. A failed generate raises the client's own error, code included.
    """
    budgets = budgets or Budgets()
    [found] = retrieve_at(question, ds, [threshold], embedder, budgets, template=template)
    return found, gen_client.generate(generation_request(found.prompt, budgets))
