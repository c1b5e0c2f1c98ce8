"""The benchmark's tracing targets name module attributes that exist.

`perfbench/tracing.py` wraps each (module, attribute) pair of its TARGETS
with `getattr` and no default, so an attribute dropped from a bellsub module
would break every traced benchmark run.  The file uses only the standard
library and is loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracing_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(mod, attr) for mod, attr, *_ in tracing.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert tracing.TARGETS and not missing
