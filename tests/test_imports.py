"""Offline commands load no HTTP or XML stack.

Every fixture pipeline runs on ``local:`` embedders and ``mock:`` services,
so ``requests`` (with urllib3, ssl and http.client) must load only where an
HTTP client is built, and ``concurrent.futures`` only where the HTTP
question client runs its pool of requests. Drawing ``radar.svg`` loads
neither HTTP nor XML: its text is escaped by ``html.escape``, not by
``xml.sax``, whose ``saxutils`` imports ``urllib.request`` and with it ssl
and http.client. Each check runs in a fresh interpreter, since the test
process itself has loaded them all long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from topicfix import EMBED_DIM, make_topic_corpus

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ["requests", "urllib3", "ssl", "http.client", "urllib.request", "xml.sax",
         "concurrent.futures"]

PIPELINE = """
import json, sys
import ragmark
from ragmark.cli import main

HEAVY = {heavy!r}
EMBEDDER = "local:{dim}"
QUESTION = {question!r}


def loaded():
    return [name for name in HEAVY if name in sys.modules]


def run(*argv):
    code = main(list(argv))
    if code != 0:
        raise SystemExit(f"ragmark {{argv[0]}} exited {{code}}")


stages = {{"import": loaded()}}
run("ingest", "--input", "raw", "--out-paragraphs", "p.jsonl", "--out-sentences", "s.jsonl")
run("qa-gen", "--paragraphs", "p.jsonl", "--out", "qa.jsonl", "--endpoint", "mock:3",
    "--questions-per-paragraph", "3", "--train-out", "train.jsonl", "--val-out", "val.jsonl",
    "--ratio", "0.2", "--seed", "5")
run("index", "--kind", "sentences", "--input", "s.jsonl", "--out", "is.jsonl",
    "--embedder", EMBEDDER)
run("index", "--kind", "questions", "--input", "qa.jsonl", "--out", "iq.jsonl",
    "--embedder", EMBEDDER)
run("testgen", "--index", "is.jsonl", "--out", "ts.jsonl", "--eps", "0.2", "--min-pts", "6",
    "--qg-endpoint", "mock:1")
run("ask", "--question", QUESTION, "--index", "is.jsonl", "--threshold", "0.5",
    "--embedder", EMBEDDER, "--reference", "Any reference text here.")
run("sweep", "--testset", "ts.jsonl", "--index-sentences", "is.jsonl",
    "--index-questions", "iq.jsonl", "--output-dir", "out", "--embedder", EMBEDDER,
    "--thresholds", "0.0,0.5,1.0")
run("report", "--scores-dir", "out", "--output-dir", "out2")
stages["offline"] = loaded()
run("report", "--scores-dir", "out", "--output-dir", "out3", "--svg")
stages["svg"] = loaded()
from ragmark.embed import RemoteEmbedder
RemoteEmbedder("http://127.0.0.1:9")
stages["remote"] = loaded()
from ragmark.qagen import HttpQuestionGenClient


class Answering:
    status_code = 200

    def post(self, url, json, timeout):
        return self

    def json(self):
        return {{"questions": ["q?"]}}


client = HttpQuestionGenClient("http://127.0.0.1:9", session=Answering())
stages["qg_built"] = loaded()
assert client.generate(["some text"], 1) == [["q?"]]
stages["qg_generate"] = loaded()
print(json.dumps(stages))
"""


def test_offline_commands_load_no_http_or_xml_stack(tmp_path):
    docs, vocab = make_topic_corpus()
    (tmp_path / "raw").mkdir()
    for doc in docs:
        (tmp_path / "raw" / f"{doc.id}.txt").write_text(doc.body, encoding="utf-8")
    question = "What does the passage say about " + " ".join(vocab[0][0]) + "?"
    script = PIPELINE.format(heavy=HEAVY, dim=EMBED_DIM, question=question)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])

    assert stages["import"] == []
    assert stages["offline"] == []
    assert stages["svg"] == []
    assert {"requests", "urllib3", "ssl", "http.client"} <= set(stages["remote"])
    assert "concurrent.futures" not in stages["qg_built"]
    assert "concurrent.futures" in stages["qg_generate"]
