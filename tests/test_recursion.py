"""No new recursive walker: the functions in ``src/trc`` that call themselves."""

from __future__ import annotations

import ast
from pathlib import Path

import trc

SRC = Path(trc.__file__).parent


def self_calling_functions() -> set[str]:
    """``module.function`` (``module.outer.inner`` when nested) for every
    module-level or nested function, not method, that calls its own bare name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or isinstance(parents[fn], ast.ClassDef):
                continue
            if not any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == fn.name
                       for n in ast.walk(fn)):
                continue
            names = [fn.name]
            up = parents[fn]
            while up in parents:
                if isinstance(up, (ast.FunctionDef, ast.ClassDef)):
                    names.append(up.name)
                up = parents[up]
            found.add(".".join([path.stem, *reversed(names)]))
    return found


def test_only_the_known_functions_call_themselves():
    assert self_calling_functions() == {
        "terms.expand_defined",  # through definition bodies only
        "kernel.map_step",
        "mutate._step_mutants",
        "stratify.optimize.go",
    }
