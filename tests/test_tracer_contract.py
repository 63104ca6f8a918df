"""The benchmark's tracer wraps library functions by module and name, and
fails when it is built if one is gone: these tests make that fail here first."""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    """perfbench/tracing.py, imported with perfbench/ on sys.path as run.py does."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_function_the_tracer_wraps_exists():
    tracing = _tracing()
    missing = [f"curvemates.{home}.{attr}" for _, _, home, attr, _, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(f"curvemates.{home}"), attr)]
    assert missing == []
    tracing.Tracer()  # plans its patches without installing them
