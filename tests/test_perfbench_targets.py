"""The traced benchmark run wraps pointdyn functions by name.

perfbench/tracing.py looks each target up with getattr and no default,
so a renamed or deleted function would only show as an AttributeError
in a `--trace 1` run. The module is loaded from its file, unedited.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracing_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod, fn, _counter in tracing.TARGETS:
        module = importlib.import_module(f"pointdyn.{mod}")
        assert callable(getattr(module, fn)), f"pointdyn.{mod}.{fn}"
