"""The names the benchmark's tracer patches exist in the program.

``bench/tracer.py`` wraps, for a traced run, the names through which one
``trc`` module calls another; a renamed or removed name makes
``python3 bench/run.py --trace 1`` die with ``AttributeError``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    patched = {(module, attr) for module, attr, _, _ in tracer.LAYERS}
    patched.add(("trc.mutate", "enumerate_mutations"))  # wrapped by Tracer.install itself
    missing = sorted((m, a) for m, a in patched if not hasattr(importlib.import_module(m), a))
    assert missing == []
    assert {("trc.engine", "rule_match"), ("trc.engine", "match_pattern"),
            ("trc.kernel", "rule_match")} <= patched


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    engine = importlib.import_module("trc.engine")
    original = engine.rule_match
    t = tracer.Tracer()
    t.install(tracer.Calls())
    try:
        assert engine.rule_match is not original
    finally:
        t.uninstall()
    assert engine.rule_match is original
