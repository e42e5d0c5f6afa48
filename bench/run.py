#!/usr/bin/env python3
"""Offline end-to-end benchmark of the ragmark command line.

    python3 bench/run.py --workload sweep-paper --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. Every ragmark command goes through ``ragmark.cli.main`` in this one
process, one after the other (a closed loop with one caller). Inputs come
from ``bench/topics.py`` and the seed; run files go to ``.bench_run/`` and
are removed at the end. The last line of standard output is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). See README.md.
"""

from __future__ import annotations

import os
import sys

# Set before numpy loads. On two cores OpenBLAS worker threads only add CPU
# time to this single-caller loop (see README.md), and a fixed value keeps
# runs comparable whatever the caller's environment holds.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("RAGMARK_CONFIG", None)  # flags and defaults only, no stray config file

# String hashing is randomised per process, and the set and dict layouts it
# gives moved sweep-paper's sweep_rows_per_s by several percent from run to
# run. The interpreter reads PYTHONHASHSEED only at start-up, so the script
# replaces itself once (same process, no child) with the seed fixed.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import contextlib
import io
import json
import logging
import random
import resource
import shutil
import signal
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import topics
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"

EMBEDDER = "local:512"
GENERATOR = "mock:extractive"
ASK_THRESHOLD = "0.5"
DESK_EPS, DESK_MIN_PTS = "0.2", "6"
QUESTIONS_PER_CLUSTER = 5  # ragmark testgen's default
TRACED_ROUNDS = 2


@dataclass(frozen=True)
class Scale:
    topics: int
    sentences_per_topic: int
    setup_reps: int = 3       # builds per run; setup_s is their median
    sweep_questions: int = 0  # benchmark-written test set size (one topic each)
    loops: int = 0            # desk-loop: generator seeds per round


SCALES = {
    "full": {
        "sweep-paper": Scale(topics=20, sentences_per_topic=40, setup_reps=5, sweep_questions=4),
        "corpus-scale": Scale(topics=250, sentences_per_topic=40, sweep_questions=1),
        "desk-loop": Scale(topics=3, sentences_per_topic=16, loops=4),
    },
    "tiny": {
        "sweep-paper": Scale(topics=4, sentences_per_topic=8, setup_reps=2, sweep_questions=2),
        "corpus-scale": Scale(topics=6, sentences_per_topic=8, setup_reps=2, sweep_questions=1),
        "desk-loop": Scale(topics=3, sentences_per_topic=16, loops=1),
    },
}

END_TO_END_UNITS = {"setup_s": "s", "sweep_rows_per_s": "rows/s", "ask_ms": "ms",
                    "peak_rss_mb": "MiB"}

# Machine-speed normalisation. On a shared 2-vCPU VM (2.1 GHz Xeon) the same
# Python code ran 15-30% slower or faster from one half-minute to the next,
# in CPU time as well as wall time (see README.md). A short fixed
# interpreter-bound loop, timed around each command and every
# PROBE_INTERVAL_S while it runs, measures that slowdown against
# PROBE_REFERENCE_S (a round figure near the loop's time on that VM). Each reported time is a command's wall time, less the probes inside
# it, divided by the median slowdown. The loop touches a few KiB, so what the
# command leaves in the caches barely moves it; a probe that walks
# megabytes read twice as slow inside commands as between them.
PROBE_ITERATIONS = 4_000
PROBE_REFERENCE_S = 0.0007
PROBE_INTERVAL_S = 0.05
PROBES_AROUND = 5


def speed_probe() -> float:
    """How many times slower than the reference the machine runs a fixed loop."""
    start = time.perf_counter()
    h, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        h = (h ^ i) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
        table[i & 255] = h
    return (time.perf_counter() - start) / PROBE_REFERENCE_S


class SpeedMeter:
    """Probes before and after a block and, when ``sample`` is set, on a timer inside it."""

    def __init__(self, sample: bool):
        self.sample = sample
        self.slowdowns: list[float] = []
        self.inside_s = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.slowdowns.append(speed_probe())
        self.inside_s += time.perf_counter() - start

    @contextlib.contextmanager
    def around(self):
        self.slowdowns.extend(speed_probe() for _ in range(PROBES_AROUND))
        previous = signal.signal(signal.SIGALRM, self._on_alarm) if self.sample else None
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.slowdowns.extend(speed_probe() for _ in range(PROBES_AROUND))

    @property
    def slowdown(self) -> float:
        return statistics.median(self.slowdowns)


class CommandFailed(RuntimeError):
    pass


class ZeroRows(logging.Handler):
    """Counts the score rows run_baseline/run_sweep zeroed after a RagmarkError."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().endswith("; zero row"):
            self.count += 1


@dataclass
class Build:
    dir: Path
    sentences: int
    paragraphs: int
    questions: int

    @property
    def indexes(self) -> dict[str, Path]:
        return {kind: self.dir / f"index_{kind}.jsonl" for kind in ("sentences", "questions")}


@dataclass
class Session:
    """One workload run: the command runner, its samples and its checks."""

    main: Callable[[list[str]], int]
    dir: Path
    tracer: Tracer | None
    commands: int = 0
    failed_commands: int = 0
    rows: int = 0
    setup_s: list[float] = field(default_factory=list)
    sweep_rates: list[float] = field(default_factory=list)
    ask_s: dict[str, list[float]] = field(default_factory=dict)  # index kind -> times
    slowdowns: list[float] = field(default_factory=list)
    _scans: dict = field(default_factory=dict)

    def run(self, *argv) -> tuple[float, str]:
        """Run one command; returns (speed-normalised seconds, its standard output)."""
        argv = [str(a) for a in argv]
        buf = io.StringIO()
        span = self.tracer.command(argv[0]) if self.tracer else contextlib.nullcontext()
        # no probes inside traced commands: they would land in the layers' self times
        meter = SpeedMeter(sample=self.tracer is None)
        with meter.around(), span, contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            rc = self.main(argv)
            elapsed = time.perf_counter() - start - meter.inside_s
        self.slowdowns.append(meter.slowdown)
        self.commands += 1
        if rc != 0:
            self.failed_commands += 1
            raise CommandFailed(f"ragmark {' '.join(argv)} exited with {rc}")
        return elapsed / meter.slowdown, buf.getvalue()

    def build(self, raw: Path, out: Path, corpus: topics.TopicCorpus, qg_seed: int) -> Build:
        """ingest -> qa-gen (with the train/validation split) -> both indexes; one setup sample."""
        out.mkdir(parents=True)
        s = out / "sentences.jsonl"
        qa = out / "qa.jsonl"
        took = self.run("ingest", "--input", raw, "--out-paragraphs", out / "paragraphs.jsonl",
                        "--out-sentences", s)[0]
        took += self.run("qa-gen", "--paragraphs", out / "paragraphs.jsonl", "--out", qa,
                         "--endpoint", f"mock:{qg_seed}", "--train-out", out / "train.jsonl",
                         "--val-out", out / "val.jsonl", "--ratio", "0.2", "--seed", qg_seed)[0]
        b = Build(out, corpus.sentence_count, corpus.paragraph_count, corpus.question_count)
        for kind, source in (("sentences", s), ("questions", qa)):
            took += self.run("index", "--kind", kind, "--input", source,
                             "--out", b.indexes[kind], "--embedder", EMBEDDER)[0]
        self.setup_s.append(took)
        checks.check_counts(out, b.sentences, b.paragraphs, b.questions)
        return b

    def sweep(self, testset: Path, build: Build, out: Path, questions: list[str]) -> None:
        took, _ = self.run("sweep", "--testset", testset,
                           "--index-sentences", build.indexes["sentences"],
                           "--index-questions", build.indexes["questions"],
                           "--output-dir", out, "--embedder", EMBEDDER, "--endpoint", GENERATOR)
        rows = checks.check_reports(out, len(questions))
        checks.check_full_threshold(out, questions,
                                    {k: self.scan(p) for k, p in build.indexes.items()})
        self.rows += rows
        self.sweep_rates.append(rows / took)

    def ask(self, question: str, build: Build, kind: str) -> None:
        index = build.indexes[kind]
        took, output = self.run("ask", "--question", question, "--index", index,
                                "--threshold", ASK_THRESHOLD, "--embedder", EMBEDDER,
                                "--endpoint", GENERATOR)
        self.ask_s.setdefault(kind, []).append(took)
        checks.check_ask(output, question, float(ASK_THRESHOLD), self.scan(index))

    def rounds(self, seconds: float):
        """Round numbers: whole rounds until ``seconds`` have passed, at least one.

        A traced run does exactly TRACED_ROUNDS instead, so that its counts
        repeat exactly from run to run and commit to commit.
        """
        start = time.perf_counter()
        r = 0
        while (r < TRACED_ROUNDS if self.tracer else
               r == 0 or time.perf_counter() - start < seconds):
            yield r
            r += 1

    def scan(self, index: Path) -> checks.KeyScan:
        """The index's key scan, shared by byte-identical index files."""
        key = zlib.crc32(index.read_bytes())
        if key not in self._scans:
            self._scans[key] = checks.KeyScan(index)
        return self._scans[key]


def _corpus(seed: int, scale: Scale, where: Path) -> topics.TopicCorpus:
    corpus = topics.make_corpus(seed, scale.topics, scale.sentences_per_topic)
    topics.write_corpus(corpus, where)
    return corpus


def fixed_builds(session: Session, seed: int, scale: Scale):
    """``setup_reps`` identical builds of one corpus, and a topic test set with its questions."""
    corpus = _corpus(seed, scale, session.dir / "raw")
    builds = [session.build(session.dir / "raw", session.dir / f"build{i}", corpus, seed)
              for i in range(scale.setup_reps)]
    for b in builds[1:]:
        checks.check_identical(builds[0].dir, b.dir, [p.name for p in builds[0].indexes.values()])
    picked = random.Random(seed).sample(range(scale.topics), scale.sweep_questions)
    pairs = topics.topic_test_pairs(seed, corpus, picked)
    testset = session.dir / "testset.jsonl"
    topics.write_test_set(pairs, testset)
    return builds, testset, [q for q, _, _ in pairs]


def sweep_paper(session: Session, seed: int, seconds: float, scale: Scale) -> None:
    """A paper-shaped sweep over a mid-size corpus, then an ask on each index."""
    builds, testset, questions = fixed_builds(session, seed, scale)
    for r in session.rounds(seconds):
        build = builds[r % len(builds)]
        out = session.dir / f"sweep{r}"
        session.sweep(testset, build, out, questions)
        checks.check_beats_baseline(out, len(questions))
        if r:
            checks.check_identical(session.dir / "sweep0", out)
        for kind in build.indexes:
            session.ask(questions[0], build, kind)


def corpus_scale(session: Session, seed: int, seconds: float, scale: Scale) -> None:
    """A large corpus: builds, then an ask on each index (each loads it) and a small sweep."""
    builds, testset, questions = fixed_builds(session, seed, scale)
    for r in session.rounds(seconds):
        build = builds[r % len(builds)]
        for kind in build.indexes:
            session.ask(questions[0], build, kind)
        out = session.dir / f"sweep{r}"
        session.sweep(testset, build, out, questions)
        checks.check_beats_baseline(out, len(questions))
        if r:
            checks.check_identical(session.dir / "sweep0", out)
            shutil.rmtree(out)


def desk_loop(session: Session, seed: int, seconds: float, scale: Scale) -> None:
    """The README quickstart at desk scale, once per generator seed, ``loops`` seeds a round."""
    for r in session.rounds(seconds):
        for i in range(scale.loops):
            gseed = seed * 1000 + i
            d = session.dir / f"loop{r}-{i}"
            corpus = _corpus(gseed, scale, d / "raw")
            build = session.build(d / "raw", d / "build", corpus, gseed)
            testset = d / "testset.jsonl"
            session.setup_s[-1] += session.run(
                "testgen", "--index", build.indexes["sentences"], "--out", testset,
                "--eps", DESK_EPS, "--min-pts", DESK_MIN_PTS, "--qg-endpoint", f"mock:{gseed}")[0]
            questions = checks.check_test_set(testset, scale.topics, QUESTIONS_PER_CLUSTER)
            rng = random.Random(gseed)
            session.ask(topics.topic_question(rng, rng.choice(corpus.topics)), build, "sentences")
            out = d / "out"
            session.sweep(testset, build, out, questions)
            session.run("report", "--scores-dir", out, "--output-dir", d / "report")
            checks.check_identical(out, d / "report")
            if r:
                checks.check_identical(session.dir / f"loop0-{i}" / "out", out)


WORKLOADS = {"sweep-paper": sweep_paper, "corpus-scale": corpus_scale, "desk-loop": desk_loop}


def import_program():
    """ragmark.cli.main from this checkout's src/; exits without a result if it is missing."""
    if not (SRC / "ragmark" / "__init__.py").is_file():
        sys.exit(f"bench: no ragmark sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ragmark import cli

    if Path(cli.__file__).resolve().parent != (SRC / "ragmark").resolve():
        sys.exit(f"bench: imported ragmark from {cli.__file__}, not from {SRC}")
    return cli.main


def end_to_end(session: Session) -> dict[str, float]:
    return {
        "setup_s": statistics.median(session.setup_s),
        "sweep_rows_per_s": statistics.median(session.sweep_rates),
        # per index kind, so a run's index mix cannot tip the median from one kind to the other
        "ask_ms": statistics.mean(statistics.median(v) for v in session.ask_s.values()) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload in this process and return the result object.

    ``scale`` names an entry of SCALES; selftest.py runs the "tiny" one.
    """
    main = import_program()
    workdir = RUN_ROOT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    session = Session(main=main, dir=workdir, tracer=tracer)
    zero_rows = ZeroRows()
    experiment_log = logging.getLogger("ragmark.experiment")
    experiment_log.addHandler(zero_rows)
    correct = True
    try:
        if tracer:
            tracer.install()
        WORKLOADS[name](session, seed, seconds, SCALES[scale][name])
    except (checks.CheckFailed, CommandFailed) as exc:
        print(f"bench: {name} seed {seed}: {exc}", file=sys.stderr)
        correct = False
    finally:
        if tracer:
            tracer.uninstall()
        experiment_log.removeHandler(zero_rows)
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(session) if correct else {}
    asks = sum(map(len, session.ask_s.values()))
    print(f"samples: setup {len(session.setup_s)}, sweeps {len(session.sweep_rates)}, "
          f"asks {asks}; commands {session.commands}, score rows {session.rows}; "
          f"median slowdown {statistics.median(session.slowdowns or [0]):.3f}")
    if tracer:
        print("traced end-to-end: " + ", ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
        for line in tracer.layer_table():
            print(line)
        tracer.write(RUN_ROOT / f"trace-{name}-s{seed}.jsonl")
        values = tracer.metrics()
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    return {
        "correct": correct,
        "attempted": session.commands + session.rows,
        "failed": session.failed_commands + zero_rows.count,
        "metrics": metrics if correct else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
