#!/usr/bin/env python3
"""Smoke run of every workload at tiny scale, and negative checks of the output checks.

    python3 bench/selftest.py

Each workload runs once untraced and once traced; each run must be correct,
fail no operation and report exactly the metrics BENCHMARK.json names. Then
one corrupted input is fed to each kind of check (a report mean one ulp off,
a missing score row, a wrong hit count), and each must be rejected. Exits 0
when all of that holds. Writes only under .bench_run/.
"""

from __future__ import annotations

import run  # first: it pins the BLAS thread count before numpy loads

import json
import math
import shutil
import sys
from pathlib import Path

import checks

SEED = 7


def smoke() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in spec["workloads"]:
        for trace in (False, True):
            label = f"{workload['name']} trace={int(trace)}"
            result = run.run_workload(workload["name"], SEED, 0, trace, scale="tiny")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result}")
            elif units != wanted[trace]:
                problems.append(f"{label}: metrics {units} != BENCHMARK.json {wanted[trace]}")
            else:
                print(f"PASS smoke {label}: {result['attempted']} operations")
    return problems


def _rejected(label: str, check) -> bool:
    try:
        check()
    except checks.CheckFailed as exc:
        print(f"PASS rejects {label}: {exc}")
        return True
    print(f"FAIL accepts {label}")
    return False


def negative_checks() -> list[str]:
    main = run.import_program()
    base = run.RUN_ROOT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        session = run.Session(main=main, dir=base, tracer=None)
        builds, testset, questions = run.fixed_builds(
            session, SEED, run.SCALES["tiny"]["sweep-paper"])
        good = base / "sweep"
        session.sweep(testset, builds[0], good, questions)  # passes every check as written
        index = builds[0].indexes["sentences"]
        _, ask_output = session.run("ask", "--question", questions[0], "--index", index,
                                    "--threshold", run.ASK_THRESHOLD,
                                    "--embedder", run.EMBEDDER, "--endpoint", run.GENERATOR)
        scan = checks.KeyScan(index)
        checks.check_ask(ask_output, questions[0], float(run.ASK_THRESHOLD), scan)

        def corrupted(name: str, edit) -> Path:
            copy = base / name
            shutil.copytree(good, copy)
            edit(copy)
            return copy

        def json_mean_ulp(d: Path):
            report = json.loads((d / "report.json").read_text(encoding="utf-8"))
            means = report["arms"][1]["means"]
            means["cs"] = math.nextafter(means["cs"], math.inf)
            (d / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                                           encoding="utf-8")

        def csv_mean_ulp(d: Path):
            lines = (d / "report.csv").read_text(encoding="utf-8").splitlines()
            label, rouge, *rest = lines[1].split(",")
            lines[1] = ",".join([label, repr(math.nextafter(float(rouge), -math.inf)), *rest])
            (d / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

        def missing_row(d: Path):
            path = d / "scores_rag_sentences_t0.5.jsonl"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[:-1]), encoding="utf-8")

        n = len(questions)
        hits = checks.parse_ask(ask_output)[1]
        wrong_hits = ask_output.replace(f", {hits} hits,", f", {hits + 1} hits,", 1)
        cases = [
            ("report.json mean one ulp high", corrupted("ulp_json", json_mean_ulp)),
            ("report.csv mean one ulp low", corrupted("ulp_csv", csv_mean_ulp)),
            ("missing score row", corrupted("missing_row", missing_row)),
        ]
        ok = [_rejected(label, lambda d=d: checks.check_reports(d, n)) for label, d in cases]
        ok.append(_rejected("wrong hit count", lambda: checks.check_ask(
            wrong_hits, questions[0], float(run.ASK_THRESHOLD), scan)))
        return [] if all(ok) else ["a corrupted input was accepted"]
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main() -> int:
    problems = smoke() + negative_checks()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
