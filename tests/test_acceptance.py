"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import multiprocessing
import random
import time

import numpy as np
import pytest

from oracles import oracle_bleu, oracle_rouge, oracle_search, streaming_means
from reportfiles import parse_report_csv, read_report_json
from topicfix import EMBED_DIM, corpus_pipeline, make_oversize_topic_doc, make_test_pairs, make_topic_corpus
from ragmark.corpus import count_tokens
from ragmark.embed import LocalHashEmbedder
from ragmark.experiment import (
    ExperimentConfig,
    emit_report,
    run_baseline,
    run_sweep,
    summarize,
)
from ragmark.generate import ExtractiveMockClient
from ragmark.index import (
    IndexedDataset,
    IndexEntry,
    IndexKind,
    build_question_index,
    build_sentence_index,
    load_index,
    save_index,
    search,
)
from ragmark.metrics import ScoreRow, bleu, bleu_tokens, cs_score, meteor, rouge, rouge_tokens
from ragmark.qagen import MockQuestionGenClient, build_qa_dataset
from ragmark.retrieve import DEFAULT_TEMPLATE, pack_context, render_prompt
from ragmark.testgen import (
    ClusterParams,
    assemble_test_set,
    cluster_points,
    reduce_dim,
)
from ragmark import testgen


# Published per-arm averages; the relative claims below are derived from them.
TABLE3_ROWS = {
    "baseline": ScoreRow("avg", 0.142117, 0.119251, 0.002770, 0.335299),
    "fine_tuned": ScoreRow("avg", 0.254003, 0.242348, 0.050048, 0.356439),
    "rag_fine_tuned": ScoreRow("avg", 0.229296, 0.195219, 0.029378, 0.305797),
    "rag": ScoreRow("avg", 0.294986, 0.222193, 0.057998, 0.544829),
}


def _report(line):
    print(f"\nACCEPTANCE PASS: {line}")


# ---------------------------------------------------------------------------
# Criterion 1: report arithmetic reproduces the published relative claims
# ---------------------------------------------------------------------------

def test_criterion_1_report_arithmetic():
    start = time.monotonic()
    table = summarize({label: [row] for label, row in TABLE3_ROWS.items()})
    rag_over_fn = table.deltas[("rag", "fine_tuned")]
    assert abs(rag_over_fn["rouge"] - 0.16) <= 0.01      # computed 16.1%
    assert abs(rag_over_fn["bleu"] - 0.15) <= 0.01       # computed 15.9%
    assert abs(rag_over_fn["cs"] - 0.53) <= 0.01         # computed 52.9%
    # the quoted 8% meteor edge of fine-tuning holds under the
    # fine-tuned-denominator convention: (rag - fn) / fn = -8.3%
    assert abs(abs(rag_over_fn["meteor"]) - 0.08) <= 0.01
    assert rag_over_fn["meteor"] < 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(f"criterion 1: relative-claim arithmetic matches published averages "
            f"({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: metric golden fixtures plus the exhaustive counting oracle
# ---------------------------------------------------------------------------

_VOCAB = ("a", "b", "c")
_SEQS = None
_NGRAM_LISTS = None
_SUB_SETS = None
_SUB_LISTS = None


def _all_sequences(max_len=6):
    seqs = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (w,) for s in frontier for w in _VOCAB]
        seqs.extend(frontier)
    return seqs


def _init_oracle_tables():
    global _SEQS, _NGRAM_LISTS, _SUB_SETS, _SUB_LISTS
    _SEQS = _all_sequences()
    _NGRAM_LISTS = []
    _SUB_SETS = []
    _SUB_LISTS = []
    for s in _SEQS:
        _NGRAM_LISTS.append(
            [[s[i: i + n] for i in range(len(s) - n + 1)] for n in range(1, 5)]
        )
        subs = set()
        for mask in range(1 << len(s)):
            subs.add(tuple(s[i] for i in range(len(s)) if mask >> i & 1))
        _SUB_SETS.append(subs)
        _SUB_LISTS.append(sorted(subs, key=len, reverse=True))


def _fast_oracle_bleu(ci, ri):
    cand = _SEQS[ci]
    if not cand:
        return 0.0
    precisions = []
    for n in range(1, 5):
        cand_grams = _NGRAM_LISTS[ci][n - 1]
        if not cand_grams:
            break
        ref_grams = _NGRAM_LISTS[ri][n - 1]
        clipped = sum(min(cand_grams.count(g), ref_grams.count(g)) for g in set(cand_grams))
        precisions.append(clipped / len(cand_grams) if clipped else 1e-9)
    geo = math.prod(precisions) ** (1.0 / len(precisions))
    ref = _SEQS[ri]
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return geo * brevity


def _fast_oracle_rouge(ci, ri):
    cand, ref = _SEQS[ci], _SEQS[ri]
    if not cand or not ref:
        return 0.0
    ref_subs = _SUB_SETS[ri]
    lcs = 0
    for sub in _SUB_LISTS[ci]:
        if sub in ref_subs:
            lcs = len(sub)
            break
    if lcs == 0:
        return 0.0
    p, r = lcs / len(cand), lcs / len(ref)
    return 2 * p * r / (p + r)


def _check_candidate_range(bounds):
    lo, hi = bounds
    if _SEQS is None:
        _init_oracle_tables()
    worst_bleu = 0.0
    worst_rouge = 0.0
    pairs = 0
    for ci in range(lo, hi):
        cand = _SEQS[ci]
        for ri in range(len(_SEQS)):
            diff = abs(bleu_tokens(cand, _SEQS[ri]) - _fast_oracle_bleu(ci, ri))
            if diff > worst_bleu:
                worst_bleu = diff
            diff = abs(rouge_tokens(cand, _SEQS[ri]) - _fast_oracle_rouge(ci, ri))
            if diff > worst_rouge:
                worst_rouge = diff
            pairs += 1
    return worst_bleu, worst_rouge, pairs


def test_criterion_2_metric_golden_suite_and_exhaustive_oracle():
    start = time.monotonic()
    # hand-computed fixtures
    assert bleu("the cat sat", "the cat sat down", max_n=3) == pytest.approx(0.71653, abs=1e-5)
    assert rouge("a b c d", "a c d e") == pytest.approx(0.75, abs=1e-12)
    assert meteor("the cat sat", "sat cat the") == pytest.approx(0.5, abs=1e-12)
    assert meteor("a b c d e f", "a b c d e f") == pytest.approx(0.9976852, abs=1e-6)
    assert bleu("the quick brown fox", "the quick brown fox") == 1.0
    assert bleu("alpha beta gamma", "delta epsilon zeta") <= 1e-9 + 1e-15

    # string-level spot agreement with the naive oracle
    rng = random.Random(2024)
    for _ in range(500):
        cand = rng.choices(_VOCAB, k=rng.randint(0, 6))
        ref = rng.choices(_VOCAB, k=rng.randint(0, 6))
        assert bleu(" ".join(cand), " ".join(ref)) == pytest.approx(
            oracle_bleu(cand, ref), abs=1e-12
        )
        assert rouge(" ".join(cand), " ".join(ref)) == pytest.approx(
            oracle_rouge(cand, ref), abs=1e-12
        )

    # exhaustive sweep over every token-sequence pair up to length 6
    sequences = _all_sequences()
    n = len(sequences)
    assert n == 1093
    workers = min(2, multiprocessing.cpu_count())
    step = 60
    bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    with multiprocessing.Pool(workers) as pool:
        results = pool.map(_check_candidate_range, bounds)
    worst_bleu = max(r[0] for r in results)
    worst_rouge = max(r[1] for r in results)
    total_pairs = sum(r[2] for r in results)
    assert total_pairs == n * n
    assert worst_bleu <= 1e-12
    assert worst_rouge <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(f"criterion 2: golden fixtures and {total_pairs} oracle pairs agree to 1e-12 "
            f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 3: properties of the best-match cosine score
# ---------------------------------------------------------------------------

def test_criterion_3_cs_metric_properties():
    embedder = LocalHashEmbedder(dim=64)

    text = "First topic sentence here. Second topic sentence there. Third one closes."
    assert cs_score(text, text, embedder) == pytest.approx(1.0, abs=1e-6)

    generated = "Topic one listed. Topic two follows."
    refs = ["Alpha anchor reference.", "Beta anchor reference.", "Gamma anchor reference."]
    baseline = cs_score(generated, " ".join(refs), embedder)
    for permutation in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        shuffled = " ".join(refs[i] for i in permutation)
        assert cs_score(generated, shuffled, embedder) == baseline  # bit-identical

    rng = random.Random(77)
    vocab = [f"word{i}" for i in range(40)]
    for _ in range(1000):
        gen_text = " ".join(
            " ".join(rng.choices(vocab, k=5)).capitalize() + "."
            for _ in range(rng.randint(1, 3))
        )
        ref_sents = [
            " ".join(rng.choices(vocab, k=5)).capitalize() + "."
            for _ in range(rng.randint(1, 3))
        ]
        extra = " ".join(rng.choices(vocab, k=5)).capitalize() + "."
        smaller = cs_score(gen_text, " ".join(ref_sents), embedder)
        larger = cs_score(gen_text, " ".join(ref_sents + [extra]), embedder)
        assert larger >= smaller - 1e-12

    # best matches 1.0 and 0.5 average to 0.75: g1 == r1; g2 shares exactly
    # one of r2's two words and nothing with r1 (buckets verified disjoint)
    pool = ["anchor", "brick", "cedar", "dune", "ember", "flint", "grove", "heath",
            "inlet", "joist", "kiln", "lathe"]
    chosen, used = [], set()
    for word in pool:
        bucket = embedder.bucket(word)
        if bucket not in used:
            chosen.append(word)
            used.add(bucket)
        if len(chosen) == 5:
            break
    a, b, c, u, w = chosen
    generated = f"{a.capitalize()} {b} {c}. {u.capitalize()} {w}."
    reference = f"{a.capitalize()} {b} {c}. {u.capitalize()} {b}."
    assert cs_score(generated, reference, embedder) == pytest.approx(0.75, abs=1e-9)
    _report("criterion 3: cs identity, permutation stability, 1000 monotone trials, "
            "and the 0.75 fixture hold")


# ---------------------------------------------------------------------------
# Criterion 4: retrieval threshold semantics against the brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_4_retrieval_semantics():
    rng = random.Random(4321)
    dim = 12
    entries, key_values = [], []
    for i in range(200):
        key_values.append(tuple(rng.gauss(0, 1) for _ in range(dim)))
        entries.append(IndexEntry(f"k{i}", f"p{i}", ("d", i)))
    query_values = tuple(rng.gauss(0, 1) for _ in range(dim))
    # plant a perfect directional match (scaled copy of the query)
    key_values.append(tuple(2.5 * v for v in query_values))
    entries.append(IndexEntry("dup", "dup", ("d", 200)))
    ds = IndexedDataset(IndexKind.SENTENCES, entries, "rand", np.array(key_values))
    query = np.array(query_values)

    all_hits = search(ds, query, 0.0)
    assert len(all_hits) == len(entries)  # threshold 0 accepts everything

    perfect = search(ds, query, 1.0)
    assert [h.entry_ref for h in perfect] == [200]
    assert all(h.score >= 1.0 - 1e-9 for h in perfect)

    sizes = []
    for t in [i / 10 for i in range(11)]:
        hits = search(ds, query, t)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        sizes.append(len(hits))
        expected = oracle_search(key_values, query_values, t)
        assert [h.entry_ref for h in hits] == [i for _, i in expected]
        for hit, (score, _) in zip(hits, expected):
            assert hit.score == pytest.approx(score, abs=1e-9)
    assert sizes == sorted(sizes, reverse=True)

    # stable tie order for identical keys
    tie = IndexedDataset(
        IndexKind.SENTENCES,
        [IndexEntry(f"k{i}", f"p{i}", ("d", i)) for i in range(3)],
        "tie", np.array([[1.0, 0.0]] * 3),
    )
    assert [h.entry_ref for h in search(tie, np.array([1.0, 0.0]), 0.5)] == [0, 1, 2]
    _report("criterion 4: threshold edge semantics, ordering, monotonicity, and "
            "200-entry oracle parity hold")


# ---------------------------------------------------------------------------
# Criterion 5: packing and prompt budgets are never exceeded
# ---------------------------------------------------------------------------

def test_criterion_5_context_budget():
    rng = random.Random(555)
    vocab = [f"word{i}" for i in range(60)]
    model_max = 4096
    reserve = 256
    for trial in range(1000):
        payloads = [
            " ".join(rng.choices(vocab, k=rng.randint(5, 300)))
            for _ in range(rng.randint(1, 8))
        ]
        entries, keys = [], []
        for i, payload in enumerate(payloads):
            angle = i * 0.17
            keys.append((math.cos(angle), math.sin(angle)))
            entries.append(IndexEntry(f"k{i}", payload, ("d", i)))
        ds = IndexedDataset(IndexKind.QUESTIONS, entries, "hand", np.array(keys))
        hits = search(ds, np.array([1.0, 0.0]), 0.0)

        budget = rng.randint(1, 600)
        packed = pack_context(hits, ds, budget)
        assert packed.token_count <= budget
        assert count_tokens(packed.text) == packed.token_count

        question = " ".join(rng.choices(vocab, k=rng.randint(3, 40)))
        overhead = count_tokens(DEFAULT_TEMPLATE.format(context="", question=question))
        context_budget = model_max - reserve - overhead
        full = pack_context(hits, ds, context_budget)
        prompt = render_prompt(question, full.text)
        assert count_tokens(prompt) + reserve <= model_max
    _report("criterion 5: 1000 randomized packings within budget; prompts never "
            "exceed the 4096-token input")


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end desk-scale sweep over both index kinds
# ---------------------------------------------------------------------------

def _desk_run(tmp_path, tag):
    docs, vocab = make_topic_corpus()
    paragraphs, sentences = corpus_pipeline(docs)
    embedder = LocalHashEmbedder(dim=EMBED_DIM)
    ids = build_sentence_index(sentences, embedder)
    qa = build_qa_dataset(paragraphs, MockQuestionGenClient(seed=3), k=3)
    idq = build_question_index(qa, embedder)
    testset = testgen.TestSet(pairs=make_test_pairs(vocab, sentences), params={"fixture": "topics"})
    cfg = ExperimentConfig()
    mock = ExtractiveMockClient()

    baseline = run_baseline(cfg, testset=testset, gen_client=mock, embedder=embedder)
    sweeps = {}
    for index in (ids, idq):
        label = "rag_sentences" if index.kind is IndexKind.SENTENCES else "rag_questions"
        sweeps[label] = run_sweep(cfg, index.kind, testset=testset, index=index,
                                  gen_client=mock, embedder=embedder)
    table = summarize({"baseline": baseline}, sweeps)
    out = tmp_path / f"run-{tag}"
    emit_report(table, out)
    return baseline, sweeps, out


def test_criterion_6_desk_scale_sweep(tmp_path):
    start = time.monotonic()
    baseline, sweeps, out_a = _desk_run(tmp_path, "a")
    base_cs = streaming_means([r.cs for r in baseline])
    for label, by_threshold in sweeps.items():
        cs_at_half = streaming_means([r.cs for r in by_threshold[0.5]])
        assert cs_at_half > base_cs, f"{label}: cs at 0.5 must beat baseline"
        assert by_threshold[1.0] == baseline, f"{label}: full-rejection arm must equal baseline"

    _, _, out_b = _desk_run(tmp_path, "b")
    for name in ("report.csv", "report.json", "radar.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(f"criterion 6: sweep beats baseline at 0.5, matches it at 1.0, and reruns "
            f"byte-identically ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 7: test-set generation on the synthetic blobs
# ---------------------------------------------------------------------------

def test_criterion_7_test_set_generation():
    docs, vocab = make_topic_corpus()
    _, sentences = corpus_pipeline(docs)
    embedder = LocalHashEmbedder(dim=EMBED_DIM)
    ds = build_sentence_index(sentences, embedder)
    points = reduce_dim(ds.keys, 2)
    clusters, outliers = cluster_points(points, ClusterParams(eps=0.2, min_pts=6))
    assert outliers == []
    assert sorted(sorted(c) for c in clusters) == [
        list(range(0, 8)), list(range(8, 16)), list(range(16, 24))
    ]  # zero mislabeled sentences

    ts = assemble_test_set(
        ds, ClusterParams(eps=0.2, min_pts=6), MockQuestionGenClient(seed=1),
    )
    assert all(count_tokens(p.answer_text) <= 256 for p in ts.pairs)

    # same corpus with one topic rebuilt as a 300-token monolith
    docs_big, vocab_big = make_topic_corpus()
    docs_big[1] = make_oversize_topic_doc(vocab_big[1][0] + vocab_big[1][1], doc_id="doc1")
    _, sentences_big = corpus_pipeline(docs_big)
    ds_big = build_sentence_index(sentences_big, embedder)
    oversize_text = " ".join(
        e.key_text for e in ds_big.entries if e.paragraph_ref[0] == "doc1"
    )
    assert count_tokens(oversize_text) == 300
    ts_big = assemble_test_set(
        ds_big, ClusterParams(eps=0.2, min_pts=6), MockQuestionGenClient(seed=1),
    )
    answers = {p.answer_text for p in ts_big.pairs}
    assert len(answers) == 2
    assert oversize_text not in answers
    big_words = set(vocab_big[1][0])
    for text in answers:
        assert not big_words & {w.lower().rstrip(".") for w in text.split()}
    _report("criterion 7: 3 clusters recovered with zero mislabels; 300-token cluster "
            "excluded; survivors within 256 tokens")


# ---------------------------------------------------------------------------
# Criterion 8: persistence round-trips
# ---------------------------------------------------------------------------

def test_criterion_8_persistence_roundtrips(tmp_path):
    docs, _ = make_topic_corpus()
    _, sentences = corpus_pipeline(docs)
    embedder = LocalHashEmbedder(dim=EMBED_DIM)
    ds = build_sentence_index(sentences, embedder)
    path = tmp_path / "index.jsonl"
    save_index(ds, path)
    loaded = load_index(path)
    assert loaded.kind == ds.kind
    assert loaded.embedder_name == ds.embedder_name
    assert loaded.dim == ds.dim
    assert loaded.entries == ds.entries
    assert np.array_equal(loaded.keys, ds.keys)

    corrupted = bytearray(path.read_bytes())
    corrupted[len(corrupted) // 2] ^= 0x01
    bad = tmp_path / "corrupt.jsonl"
    bad.write_bytes(bytes(corrupted))
    from ragmark.errors import PersistenceError

    with pytest.raises(PersistenceError):
        load_index(bad)

    table = summarize({label: [row] for label, row in TABLE3_ROWS.items()})
    emit_report(table, tmp_path)
    parsed = parse_report_csv(tmp_path / "report.csv")
    assert [(a.label, a.means) for a in parsed] == [(a.label, a.means) for a in table.arms]
    loaded_table = read_report_json(tmp_path / "report.json")
    assert [(a.label, a.means) for a in loaded_table.arms] == [
        (a.label, a.means) for a in table.arms
    ]
    assert loaded_table.deltas == table.deltas
    _report("criterion 8: index save/load identity with checksum; report CSV/JSON "
            "round-trips equal")
