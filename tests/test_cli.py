import json
import logging
import zlib

import pytest

from topicfix import EMBED_DIM, corpus_pipeline, make_topic_corpus
from ragmark.cli import main
from ragmark.config import REGISTRY, config_lines, parse_config_text, resolve_config
from ragmark.corpus import Sentence
from ragmark.embed import LocalHashEmbedder
from ragmark.errors import ConfigError
from ragmark.index import build_sentence_index, keys_path, load_index, save_index


@pytest.fixture
def corpus_dir(tmp_path):
    docs, vocab = make_topic_corpus()
    src = tmp_path / "raw"
    src.mkdir()
    for doc in docs:
        (src / f"{doc.id}.txt").write_text(doc.body, encoding="utf-8")
    return src, vocab


GOOD_PARAGRAPH = '{"doc_id": "d", "ordinal": 0, "text": "Alpha beta gamma words.", "token_count": 5}'


def run(*argv):
    return main(list(argv))


def snapshot(tmp_path):
    return sorted(str(p) for p in tmp_path.rglob("*"))


class TestConfigModule:
    def test_registry_keys_unique_and_owned(self):
        assert len(REGISTRY) == len({k.name for k in REGISTRY.values()})
        owners = {k.module for k in REGISTRY.values()}
        assert owners <= {"qagen", "embed", "retrieve", "generate", "experiment"}
        # prefix maps onto exactly one owning module
        for key in REGISTRY.values():
            prefix = key.name.split(".")[0]
            same_prefix = {k.module for k in REGISTRY.values() if k.name.startswith(prefix + ".")}
            assert same_prefix == {key.module}

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            parse_config_text("no.such.key = 1")

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words")

    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        cfg_file = tmp_path / "x.cfg"
        cfg_file.write_text("exp.seed = 7\n# comment\nembed.endpoint = local:16\n")
        cfg = resolve_config(cfg_file, {"exp.seed": "9"})
        assert cfg["exp.seed"] == "9"
        assert cfg["embed.endpoint"] == "local:16"
        assert cfg["gen.endpoint"] == "mock:extractive"


class TestCliBasics:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run() == 1

    def test_unknown_subcommand_exit_1_with_usage(self, capsys):
        assert run("frobnicate") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_rejected(self, capsys):
        assert run("config", "--bogus") == 1

    def test_config_list_prints_registry(self, capsys):
        assert run("config", "--list") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == len(config_lines())
        for key in REGISTRY:
            assert key in out

    def test_missing_input_is_io_error(self, tmp_path):
        assert run(
            "ingest", "--input", str(tmp_path / "nope.txt"),
            "--out-paragraphs", str(tmp_path / "p.jsonl"),
            "--out-sentences", str(tmp_path / "s.jsonl"),
        ) == 3

    def test_env_var_supplies_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("qg.endpoint = mock:42\n")
        monkeypatch.setenv("RAGMARK_CONFIG", str(cfg))
        paragraphs = tmp_path / "p.jsonl"
        paragraphs.write_text('{"doc_id": "d", "ordinal": 0, "text": "Alpha beta gamma words.", "token_count": 5}\n')
        assert run("qa-gen", "--paragraphs", str(paragraphs),
                   "--out", str(tmp_path / "qa.jsonl"), "--dry-run") == 0
        assert "mock:42" in capsys.readouterr().out

    def test_negative_qg_retries_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("qg.endpoint = http://127.0.0.1:1\nqg.retries = -1\n")
        paragraphs = tmp_path / "p.jsonl"
        paragraphs.write_text(GOOD_PARAGRAPH + "\n")
        assert run("--config", str(cfg), "qa-gen", "--paragraphs", str(paragraphs),
                   "--out", str(tmp_path / "qa.jsonl")) == 1
        assert "qg.retries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        ['{"doc_id": "d", "ordinal": 1, "token_count": 5}',
         '{"doc_id": "d", "ordinal": "first", "text": "Words.", "token_count": 5}'],
        ids=["missing-text", "non-numeric-ordinal"],
    )
    def test_bad_jsonl_record_is_io_error_naming_the_line(self, tmp_path, capsys, bad):
        paragraphs = tmp_path / "p.jsonl"
        paragraphs.write_text(GOOD_PARAGRAPH + "\n\n" + bad + "\n")
        assert run("qa-gen", "--paragraphs", str(paragraphs),
                   "--out", str(tmp_path / "qa.jsonl")) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error")
        assert f"{paragraphs}:3" in err

    @pytest.mark.parametrize("manifest", [
        '{"sweeps": {}}',
        "not json {",
        '["scores_baseline.jsonl"]',
        '{"baseline": "scores_baseline.jsonl", "arm_order": ["rag_sentences"], "sweeps": {}}',
    ], ids=["no-baseline", "not-json", "not-an-object", "arm-without-sweep"])
    def test_bad_scores_manifest_is_io_error_naming_it(self, tmp_path, capsys, manifest):
        path = tmp_path / "scores_manifest.json"
        path.write_text(manifest)
        assert run("report", "--scores-dir", str(tmp_path),
                   "--output-dir", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error")
        assert str(path) in err

    def test_aborted_sweep_exits_2(self, tmp_path):
        docs, _ = make_topic_corpus()
        src = tmp_path / "raw"
        src.mkdir()
        (src / "doc0.txt").write_text(docs[0].body, encoding="utf-8")
        sentences = tmp_path / "s.jsonl"
        idx = tmp_path / "i.jsonl"
        assert run("ingest", "--input", str(src),
                   "--out-paragraphs", str(tmp_path / "p.jsonl"),
                   "--out-sentences", str(sentences)) == 0
        assert run("index", "--kind", "sentences", "--input", str(sentences),
                   "--out", str(idx), "--embedder", f"local:{EMBED_DIM}") == 0
        testset = tmp_path / "ts.jsonl"
        testset.write_text(
            '{"params": {}}\n'
            '{"question": "Anything at all?", "answer_text": "Reference.", "cluster_id": 0}\n'
        )
        # a dead generation endpoint fails every question, blowing the failure budget
        code = run("sweep", "--testset", str(testset), "--index-sentences", str(idx),
                   "--output-dir", str(tmp_path / "out"),
                   "--embedder", f"local:{EMBED_DIM}",
                   "--endpoint", "http://127.0.0.1:9", "--thresholds", "0.5")
        assert code == 2

    @pytest.mark.parametrize("damage", ["missing-keys-file", "record-without-payload"])
    def test_damaged_index_is_io_error_naming_the_file(self, tmp_path, capsys, damage):
        idx = tmp_path / "i.jsonl"
        sentences = [Sentence("d", 0, i, f"alpha beta gamma {i} delta words", 6) for i in range(3)]
        save_index(build_sentence_index(sentences, LocalHashEmbedder(EMBED_DIM)), idx)
        if damage == "missing-keys-file":
            keys_path(idx).unlink()
            named = str(keys_path(idx))
        else:
            lines = idx.read_bytes().split(b"\n")[:-2]
            record = json.loads(lines[1])
            del record["payload_text"]
            lines[1] = json.dumps(record, sort_keys=True).encode()
            body = b"".join(line + b"\n" for line in lines)
            idx.write_bytes(body + json.dumps({"crc32": zlib.crc32(body)}).encode() + b"\n")
            named = f"{idx}:2"
        assert run("ask", "--question", "Alpha beta?", "--index", str(idx),
                   "--embedder", f"local:{EMBED_DIM}") == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error")
        assert named in err


@pytest.fixture
def topic_index(tmp_path):
    """The three-topic fixture's sentence index; testgen at eps 0.2 finds its 3 clusters."""
    docs, _ = make_topic_corpus()
    _, sentences = corpus_pipeline(docs)
    idx = tmp_path / "index.jsonl"
    save_index(build_sentence_index(sentences, LocalHashEmbedder(EMBED_DIM)), idx)
    return idx


class TestSettingsChecked:
    """A setting outside its range is a usage error, before any file is written."""

    @pytest.mark.parametrize("flags, named", [
        (["--eps", "-0.2"], "eps"),
        (["--eps", "nan"], "eps"),
        (["--min-pts", "0"], "min_pts"),
        (["--max-clusters", "0"], "max_clusters"),
        (["--questions-per-cluster", "0"], "questions_per_cluster"),
        (["--eps", "-0.2", "--dry-run"], "eps"),
        (["--max-clusters", "0", "--dry-run"], "max_clusters"),
        (["--questions-per-cluster", "0", "--dry-run"], "questions_per_cluster"),
    ], ids=["negative-eps", "nan-eps", "zero-min-pts", "zero-max-clusters",
            "zero-questions", "dry-run-negative-eps", "dry-run-zero-max-clusters",
            "dry-run-zero-questions"])
    def test_testgen_setting_out_of_range(self, topic_index, tmp_path, capsys, flags, named):
        before = snapshot(tmp_path)
        assert run("testgen", "--index", str(topic_index), "--out", str(tmp_path / "ts.jsonl"),
                   "--eps", "0.2", "--min-pts", "6", "--qg-endpoint", "mock:1", *flags) == 1
        assert snapshot(tmp_path) == before
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("given, missing", [("--train-out", "--val-out"),
                                                ("--val-out", "--train-out")])
    def test_qa_gen_split_needs_both_outputs(self, tmp_path, capsys, given, missing):
        paragraphs = tmp_path / "p.jsonl"
        paragraphs.write_text(GOOD_PARAGRAPH + "\n")
        before = snapshot(tmp_path)
        assert run("qa-gen", "--paragraphs", str(paragraphs), "--out", str(tmp_path / "qa.jsonl"),
                   given, str(tmp_path / "split.jsonl")) == 1
        assert snapshot(tmp_path) == before
        assert f"{missing} is missing" in capsys.readouterr().err

    def test_failure_budget_outside_unit_interval(self, topic_index, tmp_path, capsys):
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("exp.failure_budget = 20\n")
        testset = tmp_path / "ts.jsonl"
        testset.write_text('{"params": {}}\n{"question": "q?", "answer_text": "a.", "cluster_id": 0}\n')
        before = snapshot(tmp_path)
        assert run("--config", str(cfg), "sweep", "--testset", str(testset),
                   "--index-sentences", str(topic_index), "--output-dir", str(tmp_path / "out"),
                   "--embedder", f"local:{EMBED_DIM}", "--thresholds", "0.5") == 1
        assert snapshot(tmp_path) == before
        assert "exp.failure_budget" in capsys.readouterr().err

    def test_ask_ignores_sweep_settings(self, topic_index, tmp_path, capsys):
        cfg = tmp_path / "sweep-only.cfg"
        cfg.write_text("exp.thresholds = 0.5,0.1\nexp.failure_budget = 20\n")
        assert run("--config", str(cfg), "ask", "--question", "What is new?",
                   "--index", str(topic_index), "--embedder", f"local:{EMBED_DIM}") == 0
        assert "answer   :" in capsys.readouterr().out


class TestParserReuse:
    """main() builds its parser once per process; no call may see another's flags."""

    def test_flags_do_not_carry_over_between_calls(self, topic_index, capsys):
        ask = ["ask", "--question", "Why?", "--index", str(topic_index), "--dry-run"]
        assert run(*ask, "--threshold", "0.9") == 0
        assert "at threshold 0.9" in capsys.readouterr().out
        assert run(*ask) == 0
        assert "at threshold 0.5" in capsys.readouterr().out

        assert run("ask", "--index", str(topic_index)) == 1  # --question missing
        assert "usage" in capsys.readouterr().err.lower()
        with pytest.raises(SystemExit) as exit_info:
            run("ask", "--help")
        assert exit_info.value.code == 0
        assert "--threshold" in capsys.readouterr().out
        assert run("config", "--list") == 0
        assert run(*ask) == 0
        assert "at threshold 0.5" in capsys.readouterr().out


class TestVerboseEveryCall:
    """--verbose sets the log level of each main() call, not only of the first."""

    def test_second_call_in_one_interpreter_follows_its_own_flag(self):
        root = logging.getLogger()
        seen = []

        class Recorder(logging.Handler):
            def emit(self, record):
                seen.append(record.getMessage())

        recorder = Recorder(logging.WARNING)
        experiment_log = logging.getLogger("ragmark.experiment")
        experiment_log.addHandler(recorder)
        saved = root.level
        try:
            assert run("config", "--list") == 0
            assert root.level == logging.WARNING
            assert run("--verbose", "config") == 0
            assert root.level == logging.DEBUG
            assert run("config") == 0
            assert root.level == logging.WARNING
            # what a sweep logs when it zeroes a row still reaches ragmark.experiment's handlers
            experiment_log.warning("q0 @ 0.5: boom; zero row")
            experiment_log.debug("not at the default level")
        finally:
            experiment_log.removeHandler(recorder)
            root.setLevel(saved)
        assert seen == ["q0 @ 0.5: boom; zero row"]


class TestDryRun:
    def test_ingest_dry_run_writes_nothing(self, corpus_dir, tmp_path, capsys):
        src, _ = corpus_dir
        before = snapshot(tmp_path)
        code = run(
            "ingest", "--input", str(src), "--dry-run",
            "--out-paragraphs", str(tmp_path / "p.jsonl"),
            "--out-sentences", str(tmp_path / "s.jsonl"),
        )
        assert code == 0
        assert snapshot(tmp_path) == before
        assert "dry-run" in capsys.readouterr().out

    def test_sweep_dry_run_writes_nothing(self, tmp_path, capsys):
        testset = tmp_path / "ts.jsonl"
        testset.write_text('{"params": {}}\n{"question": "q?", "answer_text": "a.", "cluster_id": 0}\n')
        index = tmp_path / "i.jsonl"
        index.write_text("placeholder")
        before = snapshot(tmp_path)
        code = run(
            "sweep", "--dry-run", "--testset", str(testset),
            "--index-sentences", str(index),
            "--output-dir", str(tmp_path / "out"),
            "--embedder", f"local:{EMBED_DIM}",
        )
        assert code == 0
        assert snapshot(tmp_path) == before


class TestPipelineEndToEnd:
    def test_full_pipeline(self, corpus_dir, tmp_path, capsys):
        src, vocab = corpus_dir
        paragraphs = tmp_path / "paragraphs.jsonl"
        sentences = tmp_path / "sentences.jsonl"
        qa = tmp_path / "qa.jsonl"
        train = tmp_path / "train.jsonl"
        val = tmp_path / "val.jsonl"
        idx_s = tmp_path / "index_sentences.jsonl"
        idx_q = tmp_path / "index_questions.jsonl"
        testset = tmp_path / "testset.jsonl"
        out = tmp_path / "out"
        embedder = f"local:{EMBED_DIM}"

        assert run("ingest", "--input", str(src),
                   "--out-paragraphs", str(paragraphs),
                   "--out-sentences", str(sentences)) == 0
        assert paragraphs.exists() and sentences.exists()

        assert run("qa-gen", "--paragraphs", str(paragraphs), "--out", str(qa),
                   "--endpoint", "mock:3", "--questions-per-paragraph", "3",
                   "--train-out", str(train), "--val-out", str(val),
                   "--ratio", "0.2", "--seed", "5") == 0
        assert qa.exists() and train.exists() and val.exists()

        assert run("index", "--kind", "sentences", "--input", str(sentences),
                   "--out", str(idx_s), "--embedder", embedder) == 0
        assert run("index", "--kind", "questions", "--input", str(qa),
                   "--out", str(idx_q), "--embedder", embedder) == 0
        assert load_index(idx_s).kind.value == "sentences"
        assert load_index(idx_q).kind.value == "questions"

        assert run("testgen", "--index", str(idx_s), "--out", str(testset),
                   "--eps", "0.2", "--min-pts", "6", "--qg-endpoint", "mock:1") == 0
        header = json.loads(testset.read_text().splitlines()[0])
        assert header["params"]["clusters"] == 3

        question = "What does the passage say about " + " ".join(vocab[0][0]) + "?"
        assert run("ask", "--question", question, "--index", str(idx_s),
                   "--threshold", "0.5", "--embedder", embedder,
                   "--reference", "Any reference text here.") == 0
        ask_out = capsys.readouterr().out
        assert "topic0" in ask_out
        assert "scores" in ask_out

        assert run("sweep", "--testset", str(testset),
                   "--index-sentences", str(idx_s), "--index-questions", str(idx_q),
                   "--output-dir", str(out), "--embedder", embedder,
                   "--thresholds", "0.0,0.5,1.0", "--svg") == 0
        for name in ("report.csv", "report.json", "radar.json", "radar.svg",
                     "scores_manifest.json", "scores_baseline.jsonl"):
            assert (out / name).exists()

        report = json.loads((out / "report.json").read_text())
        labels = {arm["label"] for arm in report["arms"]}
        assert labels == {"baseline", "rag_sentences", "rag_questions"}

        out2 = tmp_path / "out2"
        assert run("report", "--scores-dir", str(out), "--output-dir", str(out2)) == 0
        assert (out2 / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_ask_threshold_one_says_unknown(self, corpus_dir, tmp_path, capsys):
        src, _ = corpus_dir
        sentences = tmp_path / "s.jsonl"
        idx = tmp_path / "i.jsonl"
        assert run("ingest", "--input", str(src),
                   "--out-paragraphs", str(tmp_path / "p.jsonl"),
                   "--out-sentences", str(sentences)) == 0
        assert run("index", "--kind", "sentences", "--input", str(sentences),
                   "--out", str(idx), "--embedder", f"local:{EMBED_DIM}") == 0
        assert run("ask", "--question", "Entirely novel concern?", "--index", str(idx),
                   "--threshold", "1.0", "--embedder", f"local:{EMBED_DIM}") == 0
        assert "I do not know." in capsys.readouterr().out


class TestCord19Ingest:
    def test_cord19_filtering_path(self, tmp_path):
        records = [
            {"paper_id": "keep", "abstract": "abs", "body_text":
                "Kept body text one. Kept body text two has plenty of words to pass filters easily.",
             "repository": "PMC", "arxiv_id": "1"},
            {"paper_id": "drop", "abstract": "", "body_text": "x.",
             "repository": "PMC", "arxiv_id": "1"},
        ]
        src = tmp_path / "cord.jsonl"
        src.write_text("\n".join(json.dumps(r) for r in records))
        paragraphs = tmp_path / "p.jsonl"
        assert run("ingest", "--input", str(src), "--format", "cord19",
                   "--out-paragraphs", str(paragraphs),
                   "--out-sentences", str(tmp_path / "s.jsonl"),
                   "--min-words", "3", "--max-words", "30") == 0
        recs = [json.loads(line) for line in paragraphs.read_text().splitlines()]
        assert {r["doc_id"] for r in recs} == {"keep"}
