"""Importing the package loads numpy and bare scipy only; each scipy submodule
loads inside the function that uses it, on that function's first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("scipy.sparse", "scipy.optimize", "scipy.spatial", "scipy.stats", "scipy.special",
         "scipy.linalg")
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code: str) -> dict:
    """Run code in a new interpreter that sees this checkout's package; the
    code prints one JSON document, which is returned."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), path]) if path else str(SRC))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    return json.loads(child.stdout)


LOADED = f"[m for m in {HEAVY!r} if m in sys.modules]"


def test_package_import_loads_no_scipy_submodule():
    doc = fresh_python(
        "import json, sys\n"
        "import gaugeflow, gaugeflow.cli, gaugeflow.flowcore.training\n"
        f"print(json.dumps({{'numpy': 'numpy' in sys.modules, 'loaded': {LOADED}}}))\n")
    assert doc["numpy"]
    assert doc["loaded"] == []


# (step, code) in call order; a pair layout loads no scipy submodule, and
# scipy.stats loads optimize and spatial, so each step's own module is new
# only in this order
STEPS = [
    ("pair_layout", "tape.PairLayout([3, 2])"),
    ("mixture_logpdf", "theorylab.mixture_logpdf(theorylab.c4_system(), rng.standard_normal((4, 2)))"),
    ("nearest_1d", "theorylab._nearest(rng.standard_normal((20, 1)), rng.standard_normal((3, 1)), 4)"),
    ("nearest_2d", "theorylab._nearest(rng.standard_normal((20, 2)), rng.standard_normal((3, 2)), 4)"),
    ("ot_pair", "coupling.ot_pair(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))"),
    ("lift_given_noise", "theorylab.lift_independence(q0, 200, symgroup.RotationGroup(2), rng, "
                         "noise=theorylab.SliceGaussian(np.zeros(2), np.eye(2)))"),
    ("lift_normal_reference", "theorylab.lift_independence(q0, 200, symgroup.RotationGroup(2), rng)"),
]


def test_each_deferred_import_is_taken_on_first_call():
    doc = fresh_python(
        "import json, sys\n"
        "import numpy as np\n"
        "from gaugeflow import coupling, symgroup, theorylab\n"
        "from gaugeflow.flowcore import tape\n"
        "rng = np.random.default_rng(0)\n"
        "q0 = theorylab.SliceGaussian(np.zeros(2), np.eye(2))\n"
        f"loaded = {{'import': {LOADED}}}\n"
        + "".join(f"{code}\nloaded[{step!r}] = {LOADED}\n" for step, code in STEPS)
        + "print(json.dumps(loaded))\n")
    assert doc["import"] == []
    names = ["import", *(step for step, _ in STEPS)]
    new = {step: set(doc[step]) - set(doc[prev]) for prev, step in zip(names, names[1:])}
    assert new["pair_layout"] == set()             # dense blocks, no sparse matrices
    assert new["mixture_logpdf"] == set()          # log-sum-exp is numpy's
    assert new["nearest_1d"] == set()              # the sorted window needs no tree
    assert "scipy.spatial" in new["nearest_2d"]
    assert "scipy.optimize" in new["ot_pair"]
    assert new["lift_given_noise"] == set()        # no KS test without the normal reference
    assert "scipy.stats" in new["lift_normal_reference"]


def test_ot_pair_rejects_malformed_input_before_loading_scipy():
    doc = fresh_python(
        "import json, sys\n"
        "import numpy as np\n"
        "from gaugeflow import coupling\n"
        "errors = []\n"
        "for bad in (np.zeros(3), np.full((3, 2), np.inf)):\n"
        "    try:\n"
        "        coupling.ot_pair(bad, bad)\n"
        "    except ValueError as exc:\n"
        "        errors.append(str(exc))\n"
        f"print(json.dumps({{'errors': errors, 'loaded': {LOADED}}}))\n")
    assert len(doc["errors"]) == 2
    assert doc["loaded"] == []
