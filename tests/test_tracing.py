"""The benchmark's span tracer must resolve every name it wraps.

`bench/tracing.py` names functions and methods of the package by string.
Renaming, deleting or moving one of them (say, hoisting a per-class method
into a base class) breaks only traced benchmark runs; this test makes that
break show in the ordinary test suite.  It reads `bench/` and writes nothing.
"""

import importlib.util
import sys
from pathlib import Path

import matchcover.cli  # noqa: F401  (imports every module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache in bench/
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer("matchcover")
    targets = list(tracing.SPANS.items()) + [
        (metric, target) for metric, names in tracing.COUNTS.items() for target in names
    ]
    try:
        tracer.install()
        for metric, (module, qualname) in targets:
            _owner, _attr, wrapped = tracer._resolve(module, qualname)
            assert getattr(wrapped, tracing.MARK, False), (metric, qualname)
    finally:
        tracer.uninstall()
    assert tracer.installed() == 0
