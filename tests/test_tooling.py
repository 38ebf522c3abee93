"""The names the benchmark's span tracer patches must exist in the package.

The traced benchmark run is not part of this suite, so a renamed or deleted
method would otherwise break it without a failing test here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import localconj

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_are_defined_in_their_class():
    tracing = load_tracing()
    for layer, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"localconj.{layer}"), cls_name)
        assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"


def test_traced_layers_import():
    for layer in load_tracing().LAYERS:
        importlib.import_module(f"localconj.{layer}")


def test_public_names_resolve():
    missing = [name for name in localconj.__all__ if not hasattr(localconj, name)]
    assert missing == []
