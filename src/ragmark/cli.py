"""Command-line entry point.

Subcommands cover the full pipeline: ingest raw text, generate Q&A data,
build vector indexes, synthesize a held-out test set, answer one question
interactively, run the threshold sweep, and re-render reports. Flags beat
the config file, which beats built-in defaults. Every subcommand accepts
--dry-run to validate and print the plan without touching the filesystem.

Exit codes: 0 success, 1 usage or validation error, 2 aborted run, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

from . import config as cfgmod
from .corpus import (
    extract_sentences,
    filter_cord19,
    filter_sentences,
    load_cord19_jsonl,
    load_text_documents,
    read_paragraphs_jsonl,
    read_sentences_jsonl,
    split_paragraphs,
    write_paragraphs_jsonl,
    write_sentences_jsonl,
)
from .embed import Embedder, make_embedder
from .errors import ConfigError, PersistenceError, RagmarkError, RunAbortedError
from .experiment import (
    BASELINE_ARM,
    SWEEP_ARMS,
    ExperimentConfig,
    SweepMemo,
    emit_report,
    prompt_settings,
    run_baseline,
    run_sweep,
    summarize,
)
from .generate import GenerationClient, make_generation_client
from .index import (
    IndexKind,
    build_question_index,
    build_sentence_index,
    load_index,
    save_index,
)
from .metrics import score_row, write_score_rows_csv, write_score_rows_jsonl
from .qagen import (
    QuestionGenClient,
    build_qa_dataset,
    make_question_client,
    read_qa_jsonl,
    split_train_validation,
    write_qa_jsonl,
)
from .retrieve import answer
from .testgen import (
    ClusterParams,
    assemble_test_set,
    read_test_set_jsonl,
    write_test_set_jsonl,
)

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


@functools.cache  # parsing leaves the parser as it was, so one serves every main() call
def _build_parser() -> _Parser:
    parser = _Parser(prog="ragmark", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=None,
                        help=f"config file path (default: ${cfgmod.ENV_CONFIG_VAR})")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("ingest", help="split documents into paragraphs and sentences")
    p.add_argument("--input", required=True, help="text file, directory of .txt, or CORD-19 JSONL")
    p.add_argument("--format", choices=["text", "cord19"], default="text")
    p.add_argument("--out-paragraphs", required=True)
    p.add_argument("--out-sentences", required=True)
    p.add_argument("--budget", type=int, default=256, help="paragraph token budget")
    p.add_argument("--min-words", type=int, default=10)
    p.add_argument("--max-words", type=int, default=30)
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("qa-gen", help="generate questions for every paragraph")
    p.add_argument("--paragraphs", required=True, help="paragraphs JSONL from ingest")
    p.add_argument("--out", required=True, help="Q&A JSONL output")
    p.add_argument("--endpoint", default=None, help="overrides qg.endpoint")
    p.add_argument("--questions-per-paragraph", type=int, default=5)
    p.add_argument("--train-out", default=None)
    p.add_argument("--val-out", default=None)
    p.add_argument("--ratio", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("index", help="build a vector index")
    p.add_argument("--kind", choices=[k.value for k in IndexKind], required=True)
    p.add_argument("--input", required=True, help="sentences JSONL or Q&A JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--embedder", default=None, help="overrides embed.endpoint")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("testgen", help="cluster a sentence index into a test set")
    p.add_argument("--index", required=True, help="sentence-keyed index file")
    p.add_argument("--out", required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--min-pts", type=int, default=6)
    p.add_argument("--max-clusters", type=int, default=15)
    p.add_argument("--qg-endpoint", default=None, help="overrides qg.endpoint")
    p.add_argument("--questions-per-cluster", type=int, default=5)
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("ask", help="answer one question through the pipeline")
    p.add_argument("--question", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--reference", default=None, help="optional reference answer to score against")
    p.add_argument("--embedder", default=None, help="overrides embed.endpoint")
    p.add_argument("--endpoint", default=None, help="overrides gen.endpoint")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("sweep", help="run baseline and threshold sweeps, emit reports")
    p.add_argument("--testset", default=None)
    p.add_argument("--index-sentences", default=None)
    p.add_argument("--index-questions", default=None)
    p.add_argument("--thresholds", default=None, help="comma-separated, e.g. 0.0,0.5,1.0")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--embedder", default=None, help="overrides embed.endpoint")
    p.add_argument("--endpoint", default=None, help="overrides gen.endpoint")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--svg", action="store_true", help="also render radar.svg")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("report", help="re-render reports from saved score rows")
    p.add_argument("--scores-dir", required=True, help="directory written by sweep")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("config", help="inspect configuration keys")
    p.add_argument("--list", action="store_true", help="print every key with default and owner")

    return parser


def _resolve(args, overrides: dict[str, str]) -> dict[str, str]:
    path = args.config or os.environ.get(cfgmod.ENV_CONFIG_VAR) or None
    return cfgmod.resolve_config(path, {k: v for k, v in overrides.items() if v is not None})


def _require_files(*paths: str) -> None:
    for p in paths:
        if p and not Path(p).exists():
            raise FileNotFoundError(f"input not found: {p}")


def _embedder(cfg: dict[str, str]) -> Embedder:
    return make_embedder(
        cfg["embed.endpoint"],
        batch_size=cfgmod.as_int(cfg, "embed.batch_size"),
        timeout_ms=cfgmod.as_int(cfg, "embed.timeout_ms"),
    )


def _gen_client(cfg: dict[str, str]) -> GenerationClient:
    return make_generation_client(
        cfg["gen.endpoint"],
        timeout_ms=cfgmod.as_int(cfg, "gen.timeout_ms"),
        retries=cfgmod.as_int(cfg, "gen.retries"),
    )


def _question_client(cfg: dict[str, str]) -> QuestionGenClient:
    return make_question_client(
        cfg["qg.endpoint"],
        timeout_ms=cfgmod.as_int(cfg, "qg.timeout_ms"),
        retries=cfgmod.as_int(cfg, "qg.retries"),
    )


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    _require_files(args.input)
    if args.format == "cord19":
        rejections: list[tuple[int, str]] = []
        docs = filter_cord19(load_cord19_jsonl(args.input), rejections)
        if rejections:
            log.info("rejected %d records: %s", len(rejections),
                     ", ".join(f"#{i}:{r}" for i, r in rejections[:10]))
    else:
        docs = load_text_documents(args.input)
    if args.dry_run:
        print(f"dry-run: would split {len(docs)} documents at budget {args.budget} "
              f"into {args.out_paragraphs} and {args.out_sentences}")
        return 0
    paragraphs = []
    for doc in docs:
        paragraphs.extend(split_paragraphs(doc, args.budget))
    sentences = filter_sentences(extract_sentences(paragraphs), args.min_words, args.max_words)
    write_paragraphs_jsonl(paragraphs, args.out_paragraphs)
    write_sentences_jsonl(sentences, args.out_sentences)
    print(f"ingested {len(docs)} documents -> {len(paragraphs)} paragraphs, "
          f"{len(sentences)} sentences")
    return 0


def _cmd_qa_gen(args) -> int:
    if bool(args.train_out) != bool(args.val_out):
        missing = "--val-out" if args.train_out else "--train-out"
        raise UsageError(f"--train-out and --val-out go together; {missing} is missing")
    _require_files(args.paragraphs)
    cfg = _resolve(args, {"qg.endpoint": args.endpoint})
    paragraphs = read_paragraphs_jsonl(args.paragraphs)
    if args.dry_run:
        print(f"dry-run: would generate up to {args.questions_per_paragraph} questions "
              f"for {len(paragraphs)} paragraphs via {cfg['qg.endpoint']} into {args.out}")
        return 0
    ds = build_qa_dataset(paragraphs, _question_client(cfg), k=args.questions_per_paragraph)
    write_qa_jsonl(ds, args.out)
    n_paragraphs, n_questions = ds.counts
    print(f"built {args.out}: {n_paragraphs} paragraphs, {n_questions} questions")
    if args.train_out:
        train, val = split_train_validation(ds, ratio=args.ratio, seed=args.seed)
        write_qa_jsonl(train, args.train_out)
        write_qa_jsonl(val, args.val_out)
        print(f"split: {len(train.pairs)} train / {len(val.pairs)} validation")
    return 0


def _cmd_index(args) -> int:
    _require_files(args.input)
    cfg = _resolve(args, {"embed.endpoint": args.embedder})
    if args.dry_run:
        print(f"dry-run: would embed {args.input} with {cfg['embed.endpoint']} "
              f"into a {args.kind} index at {args.out}")
        return 0
    embedder = _embedder(cfg)
    if IndexKind(args.kind) is IndexKind.SENTENCES:
        ds = build_sentence_index(read_sentences_jsonl(args.input), embedder)
    else:
        ds = build_question_index(read_qa_jsonl(args.input), embedder)
    save_index(ds, args.out)
    print(f"indexed {len(ds.entries)} {ds.kind.value} entries "
          f"(dim {ds.dim}, embedder {ds.embedder_name}) -> {args.out}")
    return 0


def _cmd_testgen(args) -> int:
    _require_files(args.index)
    cfg = _resolve(args, {"qg.endpoint": args.qg_endpoint})
    params = ClusterParams(eps=args.eps, min_pts=args.min_pts, max_clusters=args.max_clusters)
    if args.questions_per_cluster < 1:  # assemble_test_set checks it too, after the dry run
        raise ValueError(
            f"questions_per_cluster must be at least 1, got {args.questions_per_cluster}")
    ds = load_index(args.index)
    if args.dry_run:
        print(f"dry-run: would cluster {len(ds.entries)} entries "
              f"(eps={args.eps}, min_pts={args.min_pts}, max_clusters={args.max_clusters}) "
              f"into {args.out}")
        return 0
    ts = assemble_test_set(
        ds, params, _question_client(cfg),
        questions_per_cluster=args.questions_per_cluster,
    )
    write_test_set_jsonl(ts, args.out)
    print(f"test set: {len(ts.pairs)} pairs over {ts.params['clusters']} clusters -> {args.out}")
    return 0


def _cmd_ask(args) -> int:
    _require_files(args.index)
    cfg = _resolve(args, {"embed.endpoint": args.embedder, "gen.endpoint": args.endpoint})
    if args.dry_run:
        print(f"dry-run: would answer {args.question!r} from {args.index} "
              f"at threshold {args.threshold}")
        return 0
    budgets, template = prompt_settings(cfg)
    ds = load_index(args.index)
    embedder = _embedder(cfg)
    result = answer(args.question, ds, args.threshold, embedder,
                    _gen_client(cfg), budgets, template=template)
    print(f"question : {result.question}")
    print(f"threshold: {result.threshold} ({result.dataset_kind.value} index, "
          f"{len(result.hits)} hits, {len(result.context.included)} packed"
          f"{', truncated' if result.context.truncated else ''})")
    print("context  :")
    print(result.context.text if result.context.text else "  (empty)")
    print(f"answer   : {result.generated_text}")
    if args.reference:
        row = score_row("ask", result.generated_text, args.reference, embedder)
        print(f"scores   : rouge={row.rouge:.4f} meteor={row.meteor:.4f} "
              f"bleu={row.bleu:.4f} cs={row.cs:.4f}")
    return 0


def _sweep_overrides(args) -> dict[str, str]:
    return {
        "exp.testset": args.testset,
        "exp.index_sentences": args.index_sentences,
        "exp.index_questions": args.index_questions,
        "exp.thresholds": args.thresholds,
        "exp.output_dir": args.output_dir,
        "embed.endpoint": args.embedder,
        "gen.endpoint": args.endpoint,
        "exp.seed": None if args.seed is None else str(args.seed),
    }


def _cmd_sweep(args) -> int:
    cfg = _resolve(args, _sweep_overrides(args))
    exp = ExperimentConfig.from_config(cfg)
    cfgmod.as_int(cfg, "exp.seed")  # no result depends on it yet, but it must stay an integer
    if not cfg["exp.testset"]:
        raise ConfigError("exp.testset is required (flag --testset or config)")
    _require_files(cfg["exp.testset"], exp.index_sentences_path, exp.index_questions_path)
    kinds = [kind for kind in SWEEP_ARMS if exp.index_path(kind)]
    if not kinds:
        raise ConfigError("at least one index path is required")
    embedder = _embedder(cfg)
    gen_client = _gen_client(cfg)
    if args.dry_run:
        print(f"dry-run: would sweep {exp.thresholds} over {[k.value for k in kinds]} "
              f"with {cfg['gen.endpoint']} and {cfg['embed.endpoint']}, "
              f"writing reports to {cfg['exp.output_dir']}")
        return 0

    testset = read_test_set_jsonl(cfg["exp.testset"])
    out = Path(cfg["exp.output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"baseline": "scores_baseline.jsonl", "sweeps": {}}

    memo = SweepMemo()
    baseline_rows = run_baseline(exp, testset=testset, gen_client=gen_client, embedder=embedder,
                                 memo=memo)
    write_score_rows_jsonl(baseline_rows, out / "scores_baseline.jsonl")
    write_score_rows_csv(baseline_rows, out / "scores_baseline.csv")

    sweeps = {}
    for kind in kinds:
        label = SWEEP_ARMS[kind]
        by_threshold = run_sweep(exp, kind, testset=testset,
                                 gen_client=gen_client, embedder=embedder, memo=memo)
        sweeps[label] = by_threshold
        manifest["sweeps"][label] = {}
        for threshold, rows in by_threshold.items():
            stem = f"scores_{label}_t{threshold}"
            write_score_rows_jsonl(rows, out / f"{stem}.jsonl")
            write_score_rows_csv(rows, out / f"{stem}.csv")
            manifest["sweeps"][label][str(threshold)] = f"{stem}.jsonl"

    manifest["arm_order"] = list(sweeps)
    (out / "scores_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    table = summarize({BASELINE_ARM: baseline_rows}, sweeps)
    written = emit_report(table, out, svg=args.svg)
    for arm in table.arms:
        best = "" if arm.best_threshold is None else f" (best threshold {arm.best_threshold})"
        print(f"{arm.label}: rouge={arm.means.rouge:.4f} meteor={arm.means.meteor:.4f} "
              f"bleu={arm.means.bleu:.4f} cs={arm.means.cs:.4f}{best}")
    print(f"reports: {', '.join(str(p) for p in written)}")
    return 0


def _cmd_report(args) -> int:
    from .metrics import read_score_rows_jsonl

    scores_dir = Path(args.scores_dir)
    manifest_path = scores_dir / "scores_manifest.json"
    _require_files(str(manifest_path))
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        baseline = manifest["baseline"]
        # rebuild sweep arms in their original run order so reports match byte for byte
        order = manifest.get("arm_order") or sorted(manifest.get("sweeps", {}))
        sweep_files = {label: {float(t): fname for t, fname in manifest["sweeps"][label].items()}
                       for label in order}
    except KeyError as exc:
        raise PersistenceError(f"{manifest_path}: manifest has no entry {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise PersistenceError(f"{manifest_path}: bad manifest: {exc}") from exc
    if args.dry_run:
        print(f"dry-run: would rebuild reports from {manifest_path} into {args.output_dir}")
        return 0
    arms = {BASELINE_ARM: read_score_rows_jsonl(scores_dir / baseline)}
    sweeps = {
        label: {t: read_score_rows_jsonl(scores_dir / fname) for t, fname in files.items()}
        for label, files in sweep_files.items()
    }
    table = summarize(arms, sweeps)
    written = emit_report(table, args.output_dir, svg=args.svg)
    print(f"reports: {', '.join(str(p) for p in written)}")
    return 0


def _cmd_config(args) -> int:
    if args.list:
        for line in cfgmod.config_lines():
            print(line)
    else:
        print("use --list to print all configuration keys")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "qa-gen": _cmd_qa_gen,
    "index": _cmd_index,
    "testgen": _cmd_testgen,
    "ask": _cmd_ask,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "config": _cmd_config,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            parser.print_usage(sys.stderr)
            return 1
        # basicConfig does nothing once the root logger has a handler, so the
        # level is set on every call, not only the first one in a process
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger().setLevel(logging.DEBUG if args.verbose else logging.WARNING)
        return _COMMANDS[args.cmd](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except RunAbortedError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except (OSError, PersistenceError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (RagmarkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
