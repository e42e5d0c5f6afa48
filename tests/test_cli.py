import json
import logging
import re
import zlib

import numpy as np
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
ONE_QUESTION_TESTSET = '{"params": {}}\n{"question": "q?", "answer_text": "a.", "cluster_id": 0}\n'


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
         '{"doc_id": "d", "ordinal": "first", "text": "Words.", "token_count": 5}',
         '{"doc_id": 5, "ordinal": 1, "text": "Words.", "token_count": 5}'],
        ids=["missing-text", "non-numeric-ordinal", "numeric-doc-id"],
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

    @pytest.mark.parametrize("damage", ["missing-keys-file", "record-without-payload",
                                        "zero-key-row", "nan-key"])
    def test_damaged_index_is_io_error_naming_the_file(self, tmp_path, capsys, damage):
        idx = tmp_path / "i.jsonl"
        sentences = [Sentence("d", 0, i, f"alpha beta gamma {i} delta words", 6) for i in range(3)]
        save_index(build_sentence_index(sentences, LocalHashEmbedder(EMBED_DIM)), idx)
        lines = idx.read_bytes().split(b"\n")[:-2]
        if damage == "missing-keys-file":
            keys_path(idx).unlink()
            named = [str(keys_path(idx))]
        elif damage == "record-without-payload":
            record = json.loads(lines[1])
            del record["payload_text"]
            lines[1] = json.dumps(record, sort_keys=True).encode()
            named = [f"{idx}:2"]
        else:  # a checksum-valid keys file whose row 1 has no direction
            keys = np.fromfile(keys_path(idx), dtype="<f4").reshape(3, EMBED_DIM)
            if damage == "zero-key-row":
                keys[1] = 0.0
            else:
                keys[1, 7] = np.nan
            keys_path(idx).write_bytes(keys.tobytes())
            header = json.loads(lines[0])
            header["keys_crc32"] = zlib.crc32(keys.tobytes())
            lines[0] = json.dumps(header, sort_keys=True).encode()
            named = [f"{keys_path(idx)}: key row 1", f"{idx}:3"]
        body = b"".join(line + b"\n" for line in lines)
        idx.write_bytes(body + json.dumps({"crc32": zlib.crc32(body)}).encode() + b"\n")
        assert run("ask", "--question", "Alpha beta?", "--index", str(idx),
                   "--embedder", f"local:{EMBED_DIM}") == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error")
        assert all(name in err for name in named)


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

    @pytest.mark.parametrize("flags, named", [
        (["--budget", "8"], "budget"),
        (["--min-words", "40", "--max-words", "30"], "min_words"),
    ], ids=["small-budget", "empty-word-range"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_ingest_setting_out_of_range(self, corpus_dir, tmp_path, capsys, flags, named,
                                         dry_run):
        src, _ = corpus_dir
        before = snapshot(tmp_path)
        assert run("ingest", "--input", str(src), "--out-paragraphs", str(tmp_path / "p.jsonl"),
                   "--out-sentences", str(tmp_path / "s.jsonl"), *flags, *dry_run) == 1
        assert snapshot(tmp_path) == before
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--questions-per-paragraph", "0"], "questions_per_paragraph"),
        (["--ratio", "1.5"], "ratio"),
    ], ids=["zero-questions", "ratio-above-one"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_qa_gen_setting_out_of_range(self, tmp_path, capsys, flags, named, dry_run):
        paragraphs = tmp_path / "p.jsonl"
        paragraphs.write_text(GOOD_PARAGRAPH + "\n")
        before = snapshot(tmp_path)
        assert run("qa-gen", "--paragraphs", str(paragraphs), "--out", str(tmp_path / "qa.jsonl"),
                   "--train-out", str(tmp_path / "t.jsonl"), "--val-out", str(tmp_path / "v.jsonl"),
                   *flags, *dry_run) == 1
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

    @pytest.mark.parametrize("threshold", ["1.5", "nan", "-0.1"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_ask_threshold_out_of_range(self, topic_index, tmp_path, capsys, monkeypatch,
                                        threshold, dry_run):
        def no_load(path):
            raise AssertionError("the index was loaded before the threshold was checked")

        monkeypatch.setattr("ragmark.cli.load_index", no_load)
        before = snapshot(tmp_path)
        assert run("ask", "--question", "Why?", "--index", str(topic_index),
                   "--embedder", f"local:{EMBED_DIM}", "--threshold", threshold, *dry_run) == 1
        assert snapshot(tmp_path) == before
        captured = capsys.readouterr()
        assert "--threshold must lie in [0, 1]" in captured.err
        assert "would answer" not in captured.out

    @pytest.mark.parametrize("template, setting, named", [
        ('Context:\n{context}\n\n{"k": 1} {question}', None, "tpl.txt"),
        ("Context:\n{context}\n\n{0} {question}", None, "tpl.txt"),
        ("Context:\n{context}\n\nAnswer:", None, "tpl.txt"),
        ("Context:\n{context}\n\nQuestion: {question:d}", None, "tpl.txt"),
        (None, "rag.answer_reserve = 0", "rag.answer_reserve"),
        (None, "rag.model_max_input = 10", "rag.model_max_input"),
        (None, "rag.model_max_input = 260",
         "rag.model_max_input (260) minus rag.answer_reserve (256)"),
    ], ids=["json-braces", "positional-slot", "no-question-slot", "int-format-spec",
            "zero-reserve", "model-smaller-than-reserve", "no-room-for-context"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    @pytest.mark.parametrize("command", ["sweep", "ask"])
    def test_bad_prompt_setting(self, topic_index, tmp_path, capsys, template, setting, named,
                                dry_run, command):
        if template is not None:
            (tmp_path / "tpl.txt").write_text(template)
            setting = f"rag.template_path = {tmp_path / 'tpl.txt'}"
        cfg = tmp_path / "prompt.cfg"
        cfg.write_text(setting + "\n")
        testset = tmp_path / "ts.jsonl"
        testset.write_text(ONE_QUESTION_TESTSET)
        argv = {
            "sweep": ["sweep", "--testset", str(testset), "--index-sentences", str(topic_index),
                      "--output-dir", str(tmp_path / "out"), "--thresholds", "0.5"],
            "ask": ["ask", "--question", "Why?", "--index", str(topic_index)],
        }[command]
        before = snapshot(tmp_path)
        assert run("--config", str(cfg), *argv, "--embedder", f"local:{EMBED_DIM}", *dry_run) == 1
        assert snapshot(tmp_path) == before
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("extra, exits", [([], 1), (["Why?"], 0)],
                             ids=["every-question-too-long", "one-question-fits"])
    def test_sweep_with_no_room_for_any_question(self, topic_index, tmp_path, capsys, extra,
                                                 exits):
        # the template leaves 10 tokens of context; each long question takes more than that
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("rag.model_max_input = 272\n")
        long_questions = ["Why do the " + " ".join(["words"] * n) + "?" for n in (20, 30)]
        testset = tmp_path / "ts.jsonl"
        testset.write_text('{"params": {}}\n' + "".join(
            json.dumps({"question": q, "answer_text": "a.", "cluster_id": 0}) + "\n"
            for q in long_questions + extra))
        before = snapshot(tmp_path)
        assert run("--config", str(cfg), "sweep", "--testset", str(testset),
                   "--index-sentences", str(topic_index), "--output-dir", str(tmp_path / "out"),
                   "--thresholds", "0.5", "--embedder", f"local:{EMBED_DIM}") == exits
        if exits:
            assert snapshot(tmp_path) == before
            err = capsys.readouterr().err
            assert "rag.model_max_input (272) minus rag.answer_reserve (256)" in err
            assert "the shortest question has 24 tokens" in err

    @pytest.mark.parametrize("content", ['{"params": {}}\n', ""], ids=["header-only", "empty"])
    def test_sweep_over_test_set_with_no_pairs(self, topic_index, tmp_path, capsys, content):
        testset = tmp_path / "ts.jsonl"
        testset.write_text(content)
        before = snapshot(tmp_path)
        assert run("sweep", "--testset", str(testset), "--index-sentences", str(topic_index),
                   "--output-dir", str(tmp_path / "out"), "--embedder", f"local:{EMBED_DIM}") == 1
        assert snapshot(tmp_path) == before
        assert f"test set {testset} has no question-answer pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("params", ["[1]", "null", '"x"'])
    def test_sweep_over_test_set_whose_header_is_not_an_object(self, topic_index, tmp_path,
                                                               capsys, params):
        testset = tmp_path / "ts.jsonl"
        testset.write_text(f'{{"params": {params}}}\n' + ONE_QUESTION_TESTSET.split("\n", 1)[1])
        before = snapshot(tmp_path)
        assert run("sweep", "--testset", str(testset), "--index-sentences", str(topic_index),
                   "--output-dir", str(tmp_path / "out"), "--embedder", f"local:{EMBED_DIM}") == 3
        assert snapshot(tmp_path) == before
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {testset}:1: bad record: ")
        assert err.endswith(" is not an object\n")

    def test_template_with_escaped_braces_and_conversion_runs(self, topic_index, tmp_path,
                                                              capsys):
        tpl = tmp_path / "tpl.txt"
        tpl.write_text("Context:\n{context}\n\n{{literal}} Question: {question!r}\nAnswer:")
        cfg = tmp_path / "prompt.cfg"
        cfg.write_text(f"rag.template_path = {tpl}\n")
        testset = tmp_path / "ts.jsonl"
        testset.write_text(ONE_QUESTION_TESTSET)
        embedder = ["--embedder", f"local:{EMBED_DIM}"]
        assert run("--config", str(cfg), "ask", "--question", "Why?",
                   "--index", str(topic_index), *embedder) == 0
        assert run("--config", str(cfg), "sweep", "--testset", str(testset),
                   "--index-sentences", str(topic_index), "--output-dir", str(tmp_path / "out"),
                   "--thresholds", "0.5", *embedder) == 0

    def test_ask_ignores_sweep_settings(self, topic_index, tmp_path, capsys):
        cfg = tmp_path / "sweep-only.cfg"
        cfg.write_text("exp.thresholds = 0.5,0.1\nexp.failure_budget = 20\n")
        assert run("--config", str(cfg), "ask", "--question", "What is new?",
                   "--index", str(topic_index), "--embedder", f"local:{EMBED_DIM}") == 0
        assert "answer   :" in capsys.readouterr().out


class TestFailuresKeepTheirCause:
    def test_ask_generation_failure_keeps_its_message(self, topic_index, http_stub, capsys):
        url = http_stub(lambda path, payload: (404, {}))
        assert run("ask", "--question", "Why?", "--index", str(topic_index),
                   "--embedder", f"local:{EMBED_DIM}", "--endpoint", url) == 1
        err = capsys.readouterr().err
        assert "generation endpoint returned HTTP 404" in err
        assert "generation failed for" not in err

    def test_report_needs_the_manifest_arm_order(self, topic_index, tmp_path, capsys):
        testset = tmp_path / "ts.jsonl"
        testset.write_text(ONE_QUESTION_TESTSET)
        out = tmp_path / "out"
        assert run("sweep", "--testset", str(testset), "--index-sentences", str(topic_index),
                   "--output-dir", str(out), "--embedder", f"local:{EMBED_DIM}",
                   "--thresholds", "0.5") == 0
        manifest_path = out / "scores_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["arm_order"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("report", "--scores-dir", str(out), "--output-dir", str(tmp_path / "again")) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error")
        assert str(manifest_path) in err and "arm_order" in err

    def _report_with_score(self, topic_index, tmp_path, capsys, metric, value):
        """``report``'s exit code and stderr after ``metric`` in row 2 of one score file is ``value``."""
        testset = tmp_path / "ts.jsonl"
        testset.write_text(ONE_QUESTION_TESTSET +
                           '{"question": "why?", "answer_text": "b.", "cluster_id": 0}\n')
        out = tmp_path / "out"
        assert run("sweep", "--testset", str(testset), "--index-sentences", str(topic_index),
                   "--output-dir", str(out), "--embedder", f"local:{EMBED_DIM}",
                   "--thresholds", "0.0,0.5") == 0
        scores = out / "scores_rag_sentences_t0.5.jsonl"
        first, second = scores.read_text().splitlines()
        second = re.sub(f'"{metric}": [^,}}]+', f'"{metric}": {value}', second)
        scores.write_text(first + "\n" + second + "\n")
        capsys.readouterr()
        again = tmp_path / "again"
        code = run("report", "--scores-dir", str(out), "--output-dir", str(again))
        assert not again.exists()
        return code, f"{scores}:2", capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_report_rejects_a_non_finite_score(self, topic_index, tmp_path, capsys, value):
        code, where, err = self._report_with_score(topic_index, tmp_path, capsys, "cs", value)
        assert code == 3
        assert err.startswith("i/o error")
        assert f"{where}: bad record" in err and "not a finite number" in err

    def test_report_rejects_a_boolean_score(self, topic_index, tmp_path, capsys):
        code, where, err = self._report_with_score(topic_index, tmp_path, capsys, "rouge", "true")
        assert code == 3
        assert err.startswith("i/o error")
        assert f"{where}: bad record: True is not a number" in err


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
