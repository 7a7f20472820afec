"""The benchmark's traced run wraps module-level names of the program; a
name it lists but the program no longer has would silently zero the
per-layer metrics it feeds.  Check every wrapped name exists."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_the_program():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    missing = [f"{mod}.{attr}" for mod, attr, _ in wrapped
               if not callable(getattr(importlib.import_module(f"capmix.{mod}"),
                                       attr, None))]
    assert missing == []
