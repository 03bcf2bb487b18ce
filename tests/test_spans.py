"""The benchmark's per-layer spans wrap names that the package defines.

A traced benchmark run wraps each (module, name) of ``perfbench/spans.py``'s
``WRAPPED`` table and skips a name that is missing without a word, so a
renamed function would read as a zero per-layer metric.  This reads that
table and checks every name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrapped_table() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_name_exists():
    table = wrapped_table()
    assert table
    missing = [(mod, name) for mod, name in table
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert missing == []
