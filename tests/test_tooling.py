"""Tooling checks on the program's source.

The names the benchmark's tracer patches exist in the program:
``bench/tracer.py`` wraps, for a traced run, the names through which one
``trc`` module calls another; a renamed or removed name makes
``python3 bench/run.py --trace 1`` die with ``AttributeError``.  No
module of ``trc`` or of the tests imports a name it never uses, and no test
module imports another: shared oracles and strategies live in
``tests/oracles.py``.  The README's library example prints what its
comments say.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
README = ROOT / "README.md"
TRACER = ROOT / "bench" / "tracer.py"
WORK_COUNTS = TESTS / "data" / "rewrite_work_counts.txt"


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


WORK_COUNT_NAMES = (
    "engine.rewrite_steps", "engine.rule_match_calls", "engine.ext_levels",
    "kernel.link_match_calls", "kernel.link_match_hits", "kernel.normalize_calls",
)


def test_traced_rewrite_work_counts_match_golden():
    r"""The traced ``rewrite`` workload does the pinned amount of work.

    The counts do not depend on timing, so a change in them is a change in
    what the engine or the kernel does.  When that change is intended,
    regenerate the golden file with::

        PYTHONHASHSEED=0 python bench/run.py --workload rewrite --seed 1 --seconds 1 --trace 1 |
          grep -E '^(engine\.(rewrite_steps|rule_match_calls|ext_levels)|kernel\.(link_match_calls|link_match_hits|normalize_calls)) ' \
          > tests/data/rewrite_work_counts.txt
    """
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", "rewrite", "--seed", "1", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(command, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
                         capture_output=True, text=True, timeout=300, check=True).stdout
    counts = [line for line in out.splitlines() if line.split(" ", 1)[0] in WORK_COUNT_NAMES]
    assert counts == WORK_COUNTS.read_text().splitlines()


# imports kept although the module never reads them
UNUSED_ON_PURPOSE = {
    ("engine", "match_pattern"),  # the attribute bench/tracer.py patches
}


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads, ``__future__`` imports aside."""
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        (path.stem, name)
        for path in sorted((ROOT / "src" / "trc").glob("*.py")) + sorted(TESTS.glob("*.py"))
        for name in unused_imports(ast.parse(path.read_text()))
    }
    assert found == UNUSED_ON_PURPOSE


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport re, sys\n"
                     "from typing import Optional as Opt, Union\nx: Union[int, str] = re.escape('')\n")
    assert unused_imports(tree) == ["os", "sys", "Opt"]


def imported_test_modules(tree: ast.Module) -> list[str]:
    """The ``test_*`` modules a module imports, by their dotted names."""
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    return [name for name in modules if name.split(".")[-1].startswith("test_")]


def test_no_test_module_imports_another():
    found = {(path.name, name) for path in sorted(TESTS.glob("*.py"))
             for name in imported_test_modules(ast.parse(path.read_text()))}
    assert found == set()


def test_an_import_of_a_test_module_is_found():
    tree = ast.parse("import os, test_engine\nfrom oracles import terms\nfrom test_terms import terms\n"
                     "import tests.test_kernel as k\nfrom trc import terms\n")
    assert imported_test_modules(tree) == ["test_engine", "tests.test_kernel", "test_terms"]


def test_readme_library_example_prints_what_its_comments_say(capsys):
    block = README.read_text().split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    said = [line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == said
