"""The pinned ``trc`` runs whose stdout ``tests/data`` holds byte for byte,
the pinned verdict on each mutant of the corpus scripts, and the script
parser's pinned outcome on each one-token deletion.

``tests/test_cli.py::test_golden_output`` runs each row in process,
``tests/test_acceptance.py::test_mutant_reports_are_pinned`` checks the
mutant reports and ``tests/test_scriptfile.py::test_token_deletions_match_golden``
the token deletions.  Run as a script, this module runs each row as
``python -m trc`` from the repository root with ``PYTHONPATH=src``, then
checks the mutants and the deletions in process, using nothing beyond the
standard library, so it checks the goldens, the kernel's mutant verdicts and
reasons, and the parser's errors on any Python the package supports, with no
test packages installed::

    python tests/golden_runs.py

It prints one line per row, one for the mutants and one for the deletions,
and exits 1 if any exit code, stdout, mutant report or deletion outcome
differs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
MUTANT_REPORTS = DATA / "mutant_reports.txt"
TOKEN_DELETIONS = DATA / "script_token_deletions.txt"

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


# The texts whose one-token deletions are pinned: four corpus scripts and the
# method forms no corpus script uses (normalize with fuel, application, and a
# qed citing a label)
HAND_WRITTEN = """\
theorem syntax-1 "normalize with fuel, application" {
  prove k(y) != I
  have a : k(y) x = y by normalize fuel 1
  have b : I x = x by chain [I x, x]
  have n : y != x by theorem 2.4a with x := y
  qed by application [x] (a, b, n)
}
theorem syntax-2 "qed by a label" {
  prove x = x
  have h : x = x by chain [x]
  qed by h
}
"""

INPUTS = [(name, (ROOT / "src" / "trc" / "corpus" / name).read_text())
          for name in ("14-2.4b.trc", "17-2.6.trc", "21-2.9a.trc", "02-2.1a.trc")]
INPUTS.append(("hand-written", HAND_WRITTEN))

# a STRING token that holds a keyword is never taken as the keyword
STRING_KEYWORD = 'theorem s "t" {\n  prove x = x\n  qed by normalize "fuel" 3\n}\n'


def outcome(text: str) -> str:
    """The error ``parse_scripts`` raises on ``text``, or a digest of the scripts it returns."""
    from trc.scriptfile import parse_scripts
    from trc.terms import TrcError

    try:
        scripts = parse_scripts(text, "<golden>")
    except TrcError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "parsed " + hashlib.sha256(repr(scripts).encode("utf-8")).hexdigest()[:16]


def blanked(text: str, line: int, col: int, width: int) -> str:
    """``text`` with ``width`` characters from ``line``:``col`` (1-based) made blanks."""
    lines = text.split("\n")
    row = lines[line - 1]
    lines[line - 1] = row[:col - 1] + " " * width + row[col - 1 + width:]
    return "\n".join(lines)


def deletion_outcomes() -> list[str]:
    """The parser's outcome on each input intact and with each of its tokens
    blanked out (spaces of the token's width, so every other token keeps its
    line and column), one line each."""
    from trc.terms import TokenStream

    out: list[str] = []
    for name, text in INPUTS:
        out.append(f"{name} intact: {outcome(text)}")
        ts = TokenStream(text)
        for i, token in enumerate(ts.texts[:-1]):
            line, col = ts.place(i)
            out.append(f"{name} {line}:{col} {token}: {outcome(blanked(text, line, col, len(token)))}")
    out.append(f"string keyword intact: {outcome(STRING_KEYWORD)}")
    return out


def matches(got: list[str], golden: Path, what: str) -> bool:
    """Whether the lines ``got`` are the file ``golden``; prints one line saying so."""
    same = "".join(line + "\n" for line in got) == golden.read_text(encoding="utf-8")
    print(f"{'ok' if same else 'MISMATCH'}: {len(got)} {what} {'match' if same else 'differ from'} {golden.name}")
    return same


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
    reports = [line for _, line in mutant_reports(corpus, run_corpus(corpus, keep_contexts=True))]
    mismatches += not matches(reports, MUTANT_REPORTS, "mutant reports")
    mismatches += not matches(deletion_outcomes(), TOKEN_DELETIONS, "token deletions")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
