"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root): ``python3 wallbench/selftest.py``

Checks that
* ``BENCHMARK.json`` names exactly the metrics and workloads the runs
  produce, with the same units;
* every named metric appears, with its unit, for every workload, in both
  the untraced and the traced run, and the traced counts match the
  program's own counters;
* the read-back check can fail: with one page of the expected model
  deliberately corrupted it reports exactly that page;
* a changed seed changes the op sequence but not the workload sizes
  that a run reports having built;
* without the file service's sources the benchmark exits non-zero and
  prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import layers
import run
from workloads import WORKLOADS, OpStream

FAILURES: list[str] = []


def check(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def manifest_matches() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", layers.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        check(listed == units, f"BENCHMARK.json {key} matches the run's metrics")
    check(
        {w["name"] for w in manifest["workloads"]} == set(WORKLOADS),
        "BENCHMARK.json workloads match the benchmark's",
    )


def sizes_line(report: list[str]) -> str:
    return next(line for line in report if line.startswith("sizes "))


def metrics_complete(work_root) -> None:
    for name, workload in WORKLOADS.items():
        tiny = workload.tiny()
        sizes = {}
        for seed, trace, units in ((7, False, run.END_TO_END_UNITS),
                                   (8, False, run.END_TO_END_UNITS),
                                   (7, True, layers.PER_LAYER_UNITS)):
            run_dir = work_root / f"{name}-{seed}-{int(trace)}"
            run_dir.mkdir()
            result, report = run.run(tiny, seed, 1.0, trace, run_dir)
            sizes[seed, trace] = sizes_line(report)
            got = result["metrics"]
            check(
                set(got) == set(units)
                and all(got[m]["unit"] == units[m] for m in units)
                and all(isinstance(got[m]["value"], float) for m in units),
                f"{name} trace={int(trace)}: every metric with its unit",
            )
            check(
                result["correct"] and result["failed"] == 0
                and result["attempted"] > 0,
                f"{name} trace={int(trace)}: run correct, nothing failed",
            )
            if trace:
                check(
                    got["trace.counter_mismatches"]["value"] == 0.0,
                    f"{name}: traced counts equal the program's counters",
                )
                check(
                    got["single.client_messages_spread"]["value"] == 0.0,
                    f"{name}: constant client messages per single-client commit",
                )
                if tiny.read_share:
                    # Request frame plus a reply frame holding the page.
                    check(
                        got["wire.bytes_per_read"]["value"] >= tiny.page_bytes,
                        f"{name}: wire bytes per read include the page reply",
                    )
            else:
                check(
                    all(got[m]["value"] > 0 for m in units),
                    f"{name}: no end-to-end metric reads 0",
                )
        check(
            sizes[7, False] == sizes[8, False] == sizes[7, True]
            and '"files_built": %d' % tiny.files in sizes[7, False],
            f"{name}: runs with seeds 7 and 8 report the same built sizes",
        )


def read_back_can_fail(work_root) -> None:
    workload = WORKLOADS["commit-small"].tiny()
    work_dir = work_root / "corrupt"
    work_dir.mkdir()
    tally = run.Tally()
    deployment = run.Deployment(workload, 3, work_dir, tally)
    try:
        deployment.spawn()
        deployment.build()
        deployment.read_back()
        clean = tally.mismatches
        deployment.model.corrupt(workload.page_id(1, 1))
        deployment.read_back()
        flagged = tally.mismatches
    finally:
        deployment.stop()
    check(clean == 0, "read-back of an intact model finds no mismatch")
    check(flagged == 1, "read-back flags the one deliberately corrupted page")


def seed_changes_ops() -> None:
    for name, workload in WORKLOADS.items():
        def ops(seed: int) -> list:
            stream = OpStream(workload, seed, 0)
            out = []
            for _ in range(50):
                op = stream.next()
                out.append((op, stream.payload(0, 1)))
            return out

        check(ops(1) == ops(1), f"{name}: a seed gives the same op sequence")
        check(ops(1) != ops(2), f"{name}: another seed gives another op sequence")


def fails_without_sources(work_root) -> None:
    bare = work_root / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "commit-small", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(
        proc.returncode != 0 and '"metrics"' not in proc.stdout,
        "without the sources: non-zero exit and no result",
    )


def main() -> int:
    work_root = run.ROOT / ".wallbench" / f"selftest-{os.getpid()}"
    work_root.mkdir(parents=True)
    sys.path.insert(0, str(run.SRC))
    try:
        manifest_matches()
        seed_changes_ops()
        fails_without_sources(work_root)
        read_back_can_fail(work_root)
        metrics_complete(work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
