"""The benchmark's workloads must run against the package as it stands.

perfbench/workloads.py calls the package's public API the way the CLI does,
so a renamed function or changed signature would only fail at benchmark time.
One smoke-sized cycle of each workload runs in-process here: prepare, then
run and check each op of cycle 0. The module is loaded by file path.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["canon", "mol-train", "mol-sample", "toy-theory"])
def test_one_smoke_cycle_reports_no_problems(name, tmp_path):
    workloads = _load_workloads()
    wl = workloads.WORKLOADS[name](3, True, str(tmp_path))
    wl.prepare()
    problems = []
    specs = wl.cycle(0)
    assert specs
    for spec in specs:
        problems += wl.check(spec, wl.run(spec))
    assert not problems, problems
