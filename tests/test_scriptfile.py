"""The script parser's outcome on every one-token deletion, pinned.

Each case blanks out one token of a script (spaces of the token's width,
so every other token keeps its line and column) and records what
``parse_scripts`` does: the error it raises, or a digest of the scripts it
returns.  Regenerate the golden with::

    PYTHONPATH=src python tests/test_scriptfile.py > tests/data/script_token_deletions.txt

The errors of the spec-file parser are pinned by a table at the end.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from trc.scriptfile import parse_combinator_specs, parse_scripts
from trc.stratify import CombinatorSpec
from trc.terms import ParseError, TrcError, Var, tokenize

CORPUS = Path(__file__).resolve().parent.parent / "src" / "trc" / "corpus"
GOLDEN = Path(__file__).parent / "data" / "script_token_deletions.txt"

# the method forms no corpus script uses: normalize with fuel, application,
# and a qed citing a label
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

INPUTS = [(name, (CORPUS / name).read_text())
          for name in ("14-2.4b.trc", "17-2.6.trc", "21-2.9a.trc", "02-2.1a.trc")]
INPUTS.append(("hand-written", HAND_WRITTEN))

# a STRING token that holds a keyword is never taken as the keyword
STRING_KEYWORD = 'theorem s "t" {\n  prove x = x\n  qed by normalize "fuel" 3\n}\n'


def outcome(text: str) -> str:
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
    out: list[str] = []
    for name, text in INPUTS:
        out.append(f"{name} intact: {outcome(text)}")
        for tok in tokenize(text)[:-1]:
            width = len(tok.text) + 2 if tok.kind == "STRING" else len(tok.text)
            shown = f'"{tok.text}"' if tok.kind == "STRING" else tok.text
            out.append(f"{name} {tok.line}:{tok.col} {shown}: "
                       f"{outcome(blanked(text, tok.line, tok.col, width))}")
    out.append(f"string keyword intact: {outcome(STRING_KEYWORD)}")
    return out


def test_blanking_keeps_the_other_positions():
    text = "ab cd\nef"
    assert blanked(text, 1, 4, 2) == "ab   \nef"
    assert [tok[1:] for tok in tokenize(blanked(text, 1, 1, 2))][:-1] == [("cd", 1, 4), ("ef", 2, 1)]


def test_token_deletions_match_golden():
    assert "\n".join(deletion_outcomes()) + "\n" == GOLDEN.read_text(encoding="utf-8")


_NO_TERM = "(expected one of: identifier, k(, <, ()"


@pytest.mark.parametrize("text, expected", [
    ('S x y = "q"\n', f"1:9: got '\"q\"' {_NO_TERM}"),
    # a definition ends just past its last token, not past the blanks after it
    ("S x y =   \n", f"1:8: got 'EOF' {_NO_TERM}"),
    ("S x y = x -- c\nT = \n", f"2:4: got 'EOF' {_NO_TERM}"),
    ("S x x = x\n", "1:1: S: parameters must be distinct"),
    ("S X = X\n", "1:3: parameter 'X' must be a variable"),
    ("S x = y\n", "1:1: S: body uses undeclared variables ['y']"),
    # a bad character anywhere is reported before any other error
    ("S x = \nT x = x ?\n", "2:9: unexpected character '?'"),
    ("  \n-- only a comment\n\n", []),
    ("S x = x\nS x y = x\n", "2:1: S is defined twice"),
    # a parameter is a variable exactly when the term parser reads it as one
    ("S _x = _x\n", [CombinatorSpec("S", ("_x",), Var("_x"))]),
    ("S x-y = P1\n", "1:3: parameter 'x-y' must be a variable"),
])
def test_spec_file_errors_are_pinned(text, expected):
    # what ``trc compile`` prints after "error: ", or the definitions parsed
    try:
        result = parse_combinator_specs(text)
    except ParseError as exc:
        result = str(exc)
    assert result == expected


if __name__ == "__main__":
    sys.stdout.write("\n".join(deletion_outcomes()) + "\n")
