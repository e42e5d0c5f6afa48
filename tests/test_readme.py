"""The README's library example must keep running against the current API."""

import re
from pathlib import Path

from topicfix import make_topic_corpus
from ragmark.corpus import count_tokens

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under 'Library use'"
    return match.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    docs, _ = make_topic_corpus()
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "orchards.txt").write_text("\n\n".join(d.body for d in docs), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_example"}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "(24, 512)"
    assert "ScoreRow(question_id='q1'" in out
    assert [p.token_count for p in namespace["paragraphs"]] == [
        count_tokens(p.text) for p in namespace["paragraphs"]
    ]
