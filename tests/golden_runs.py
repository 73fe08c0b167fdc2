"""The pinned ``trc`` runs whose stdout ``tests/data`` holds byte for byte.

``tests/test_cli.py::test_golden_output`` runs each row in process.  Run as a
script, this module runs each row as ``python -m trc`` from the repository
root with ``PYTHONPATH=src``, using nothing beyond the standard library, so
it checks the goldens on any Python the package supports, with no test
packages installed::

    python tests/golden_runs.py

It prints one line per row and exits 1 if any exit code or stdout differs.
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
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
