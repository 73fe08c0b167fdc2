"""The pinned ``trc`` runs whose stdout ``tests/data`` holds byte for byte,
and the pinned verdict on each mutant of the corpus scripts.

``tests/test_cli.py::test_golden_output`` runs each row in process, and
``tests/test_acceptance.py::test_mutant_reports_are_pinned`` checks the
mutant reports.  Run as a script, this module runs each row as
``python -m trc`` from the repository root with ``PYTHONPATH=src``, then
checks the mutants in process, using nothing beyond the standard library, so
it checks the goldens and the kernel's mutant verdicts and reasons on any
Python the package supports, with no test packages installed::

    python tests/golden_runs.py

It prints one line per row and one for the mutants, and exits 1 if any exit
code, stdout or mutant report differs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
MUTANT_REPORTS = DATA / "mutant_reports.txt"

# Each pinned invocation: its arguments from the repository root, a config
# line given with --config (or None), its exit code and the file in
# tests/data that holds its stdout, byte for byte.
GOLDEN_RUNS = [
    (["corpus", "--trace"], None, 0, "corpus_trace.txt"),
    # Eq-refl fires nowhere in the corpus, so dropping it changes no byte
    (["corpus", "--no-eq-refl", "--trace"], None, 0, "corpus_trace.txt"),
    # the misprint regression: which entries fail, at which step and why
    (["corpus", "--printed-axioms", "--trace"], None, 1, "corpus_printed_trace.txt"),
    # the entries that need surjective pairing fail, and those after them are blocked
    (["corpus", "--no-surjective-pairing", "--trace"], None, 1, "corpus_no_surjective_pairing_trace.txt"),
    (["corpus", "--trace"], "printed-axioms = yes", 1, "corpus_printed_trace.txt"),
    (["corpus", "--trace"], "surjective-pairing = off", 1, "corpus_no_surjective_pairing_trace.txt"),
    (["corpus", "--trace"], "eq-reflexivity = no", 0, "corpus_trace.txt"),
    # most specs are not stratified, so each compile run exits 1; under the
    # printed axioms the stratified ones fail their self-test instead
    (["compile", "src/trc/corpus/specs.trc"], None, 1, "compile_specs.txt"),
    (["compile", "src/trc/corpus/specs.trc", "--optimize"], None, 1, "compile_specs_optimized.txt"),
    (["compile", "src/trc/corpus/specs.trc", "--printed-axioms"], None, 1, "compile_specs_printed.txt"),
]


def with_config(argv: list[str], config: Optional[Path]) -> list[str]:
    """``argv`` with ``--config CONFIG`` after its command, when a config is given."""
    return argv if config is None else [argv[0], "--config", str(config), *argv[1:]]


def mutant_reports(corpus, corpus_report):
    """Whether the kernel accepts each single-fault corruption of each corpus
    script, with the line ``<theorem> <mutation> | <report line>``."""
    from trc.corpus import BASE_DEFINITIONS
    from trc.kernel import ScriptError, check_script
    from trc.mutate import enumerate_mutations

    for entry in corpus.entries:
        if entry.source.startswith("spec:"):
            continue
        registry, ruleset = corpus_report.contexts[entry.ident]
        for script in corpus.scripts[entry.ident]:
            for desc, mutant in enumerate_mutations(script):
                try:
                    report = check_script(mutant, registry, ruleset, BASE_DEFINITIONS)
                    ok, line = report.ok, report.line()
                except ScriptError as exc:
                    ok, line = False, f"ScriptError {exc}"
                yield ok, f"{script.theorem_id} {desc} | {line}"


def main() -> int:
    env = {**os.environ, "PYTHONPATH": "src"}
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, config_line, code, golden in GOLDEN_RUNS:
            config = None
            if config_line is not None:
                config = Path(tmp) / "engine.conf"
                config.write_text(config_line + "\n")
            done = subprocess.run([sys.executable, "-m", "trc", *with_config(argv, config)],
                                  cwd=ROOT, env=env, capture_output=True, timeout=300)
            same = done.stdout == (DATA / golden).read_bytes()
            ok = same and done.returncode == code
            mismatches += not ok
            shown = " ".join(argv) + (f" with {config_line}" if config_line else "")
            print(f"{'ok' if ok else 'MISMATCH'}: trc {shown}: exit {done.returncode} (want {code}),"
                  f" stdout {'matches' if same else 'differs from'} {golden}")
    sys.path.insert(0, str(ROOT / "src"))
    from trc.corpus import load_corpus, run_corpus

    corpus = load_corpus()
    got = [line for _, line in mutant_reports(corpus, run_corpus(corpus, keep_contexts=True))]
    same = got == MUTANT_REPORTS.read_text(encoding="utf-8").splitlines()
    mismatches += not same
    print(f"{'ok' if same else 'MISMATCH'}: {len(got)} mutant reports {'match' if same else 'differ from'}"
          f" {MUTANT_REPORTS.name}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
