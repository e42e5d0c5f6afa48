"""ragmark: benchmark retrieval-augmented generation pipelines.

The package covers the full loop: chunk a corpus into token-budgeted
paragraphs and filtered sentences, oversample questions per paragraph,
build exact-scan vector indexes keyed by sentences or questions, pack
retrieved context under a hard token budget, drive any generation endpoint,
and score answers with BLEU, ROUGE-L, METEOR, and a sentence-level
best-match cosine score across a full similarity-threshold sweep.
"""

from .corpus import (
    Document,
    Paragraph,
    Sentence,
    filter_cord19,
    filter_sentences,
    split_paragraphs,
    split_sentences,
)
from .embed import LocalHashEmbedder, RemoteEmbedder
from .errors import RagmarkError
from .experiment import ExperimentConfig, emit_report, run_baseline, run_sweep, summarize
from .generate import ExtractiveMockClient, GenerationRequest, RemoteGenerationClient
from .index import (
    Hits,
    IndexedDataset,
    IndexKind,
    build_question_index,
    build_sentence_index,
    load_index,
    save_index,
    search,
)
from .metrics import ScoreRow, bleu, cs_score, meteor, rouge, score_row
from .qagen import QADataset, QAPair, build_qa_dataset, split_train_validation
from .retrieve import Budgets, PackedContext, answer, pack_context
from .testgen import ClusterParams, TestSet, assemble_test_set

__version__ = "0.1.0"

__all__ = [
    "Budgets",
    "ClusterParams",
    "Document",
    "ExperimentConfig",
    "ExtractiveMockClient",
    "GenerationRequest",
    "Hits",
    "IndexKind",
    "IndexedDataset",
    "LocalHashEmbedder",
    "PackedContext",
    "Paragraph",
    "QADataset",
    "QAPair",
    "RagmarkError",
    "RemoteEmbedder",
    "RemoteGenerationClient",
    "ScoreRow",
    "Sentence",
    "TestSet",
    "answer",
    "assemble_test_set",
    "bleu",
    "build_qa_dataset",
    "build_question_index",
    "build_sentence_index",
    "cs_score",
    "emit_report",
    "filter_cord19",
    "filter_sentences",
    "load_index",
    "meteor",
    "pack_context",
    "rouge",
    "run_baseline",
    "run_sweep",
    "save_index",
    "score_row",
    "search",
    "split_paragraphs",
    "split_sentences",
    "split_train_validation",
    "summarize",
    "__version__",
]
