"""The bench tracer (`bench/tracing.py`) patches the library names it lists
and skips any the library no longer has, so a rename would silently empty a
per-layer metric.  Every listed name must resolve."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unresolved(tracing):
    """The listed names that are not callables of the library, and the
    listed counter hooks the tracer lacks."""
    missing = []
    for module, fn, _span, hook in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), fn, None)):
            missing.append(f"{module}.{fn}")
        if hook and not hasattr(tracing.Tracer, hook):
            missing.append(hook)
    for module, cls, method, _span, hook in tracing.METHODS:
        if not callable(getattr(getattr(importlib.import_module(module), cls, None), method, None)):
            missing.append(f"{module}.{cls}.{method}")
        if hook and not hasattr(tracing.Tracer, hook):
            missing.append(hook)
    cli = importlib.import_module("equichern.cli")
    for fn, _span in tracing.CLI_FUNCTIONS:
        if not callable(getattr(cli, fn, None)):
            missing.append(f"equichern.cli.{fn}")
    return missing


def test_bench_tracer_names_resolve(monkeypatch):
    tracing = _load_tracing()
    assert len(tracing.FUNCTIONS) + len(tracing.METHODS) + len(tracing.CLI_FUNCTIONS) > 20
    assert _unresolved(tracing) == []
    # the check sees a rename
    from equichern import cli, gcw, qlinalg

    monkeypatch.delattr(gcw, "quotient_chain")
    monkeypatch.delattr(qlinalg.RationalMatrix, "rref")
    monkeypatch.delattr(cli, "_emit")
    assert _unresolved(tracing) == [
        "equichern.gcw.quotient_chain",
        "equichern.qlinalg.RationalMatrix.rref",
        "equichern.cli._emit",
    ]
