"""Smoke self-test of the benchmark.

    python3 perfbench/smoke.py        # from the checkout root; about a minute

Runs every workload at a tiny size, untraced and traced, and asserts that the
result line carries exactly the metrics BENCHMARK.json names, with their
units, and that the report prints each workload's own figures with units.
It then injects one corrupted gauge into `canon` and asserts that the run
completes and counts the op as failed, and checks that a directory holding
only the benchmark fails without printing a result. Every step runs; the
script lists each problem it found and exits non-zero if there was any. An
op that fails in a tiny run is such a problem, as in a full run.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIGURES = {   # workload -> figures its report must print, with units
    "canon": {"canon_mols_per_s": "1/s", "canon_ms_p50": "ms", "canon_ms_p90": "ms"},
    "mol-train": {"mol_train_steps_per_s": "1/s"},
    "mol-sample": {"mol_sample_mols_per_s": "1/s", "mol_sample_ms_p50": "ms",
                   "mol_sample_ms_p90": "ms"},
    "toy-theory": {"toy_train_steps_per_s": "1/s", "toy_ot_train_steps_per_s": "1/s",
                   "toy_sample_points_per_s": "1/s", "theory_battery_s": "s"},
}


def run(cwd, workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result(code, lines, err, what):
    assert code == 0, f"{what}: exit {code}\n{err}"
    return json.loads(lines[-1])


def check_workload(spec, workload, figures, trace, group):
    code, lines, err = run(ROOT, workload, trace)
    doc = result(code, lines, err, f"{workload} trace={trace}")
    want = {m["name"]: m["unit"] for m in spec[group]}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
    failed = [ln for ln in lines if ln.startswith(f"FAILED workload={workload} seed=3 ")]
    assert doc["failed"] == len(failed) and doc["correct"] == (not failed), doc
    if trace == 0:
        report = {ln.split()[1]: ln.split()[4] for ln in lines if ln.startswith("figure ")}
        for name, unit in dict(figures, failed_frac="frac").items():
            assert report.get(name) == unit, f"{workload}: figure {name} [{unit}] missing"
    assert doc["attempted"] >= 1, doc
    assert not failed, (f"{workload} trace={trace}: {len(failed)} of {doc['attempted']} "
                        f"ops failed; the first ends ...{failed[0][-120:]}")
    print(f"ok {workload} trace={trace}: {len(got)} metrics")


def check_fault():
    code, lines, err = run(ROOT, "canon", 0, "--inject-fault")
    doc = result(code, lines, err, "canon --inject-fault")
    assert doc["failed"] == 1 and not doc["correct"], doc
    assert doc["metrics"]["ok_frac"]["value"] < 1.0, doc
    assert any(ln.startswith("FAILED workload=canon seed=3") for ln in lines), lines
    print("ok canon --inject-fault: corrupted gauge counted as 1 failed op")


def check_bare():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch, prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(bare, "canon", 0)
        assert code != 0 and not (lines and lines[-1].startswith("{")), (code, lines)
    finally:
        shutil.rmtree(bare)
    print(f"ok bare directory: exit {code}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(FIGURES)
    steps = [(check_workload, (spec, workload, figures, trace, group))
             for workload, figures in FIGURES.items()
             for trace, group in ((0, "end_to_end"), (1, "per_layer"))]
    steps += [(check_fault, ()), (check_bare, ())]
    problems = 0
    for step, step_args in steps:
        try:
            step(*step_args)
        except AssertionError as exc:
            problems += 1
            print(f"PROBLEM {exc}")
    print(f"{problems} problem(s) in {len(steps)} steps")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
