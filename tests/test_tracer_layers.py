"""The benchmark tracer's span names must name live gaugeflow functions.

perfbench/tracer.py wraps each name in SPAN_NAMES by looking it up in the
owning module's (or class's) __dict__, so a rename in the package would only
fail at benchmark time. The tracer is loaded by file path, uninstalled.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_resolves_in_gaugeflow():
    tracer = _load_tracer()
    missing = []
    for name in tracer.SPAN_NAMES:
        mod_name, _, attr = name.rpartition(".")
        owner_name, _, cls_name = mod_name.rpartition(".")
        if cls_name[:1].isupper():                      # Class.method
            owner = getattr(importlib.import_module(f"gaugeflow.{owner_name}"), cls_name, None)
        else:
            owner = importlib.import_module(f"gaugeflow.{mod_name}")
        if owner is None or attr not in owner.__dict__:
            missing.append(name)
    assert tracer.SPAN_NAMES and not missing, missing
