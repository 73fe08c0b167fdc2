"""The script parser's outcome on every one-token deletion, pinned.

Each case blanks out one token of a script (spaces of the token's width,
so every other token keeps its line and column) and records what
``parse_scripts`` does: the error it raises, or a digest of the scripts it
returns.  ``tests/golden_runs.py`` makes the cases, so it checks them with the
standard library alone too.  Regenerate the golden with::

    PYTHONPATH=src python tests/test_scriptfile.py

A theorem's ``let`` names, which the parser reads ahead of its statement,
must give the records that the old reclassification after the parse gave
(``oracle_parse_scripts``), on every corpus file and on generated scripts.
The spec-file parser must read generated spec files as the reader that
placed every token first did (``oracle_parse_combinator_specs``), and its
errors are pinned by a table at the end.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trc.scriptfile import parse_combinator_specs, parse_scripts
from trc.terms import CombinatorSpec, ParseError, TokenStream, Var

from golden_runs import TOKEN_DELETIONS, blanked, deletion_outcomes
from oracles import oracle_parse_combinator_specs, oracle_parse_scripts

CORPUS = Path(__file__).resolve().parent.parent / "src" / "trc" / "corpus"


def test_blanking_keeps_the_other_positions():
    text = "ab cd\nef"
    assert blanked(text, 1, 4, 2) == "ab   \nef"
    ts = TokenStream(blanked(text, 1, 1, 2))
    assert [(t, *ts.place(i)) for i, t in enumerate(ts.texts)][:-1] == [("cd", 1, 4), ("ef", 2, 1)]


def test_token_deletions_match_golden():
    assert "".join(line + "\n" for line in deletion_outcomes()) == TOKEN_DELETIONS.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# let names are read ahead exactly as the old reclassification read them
# ---------------------------------------------------------------------------

def parsed(parse, text: str) -> object:
    """The scripts ``parse`` reads from ``text``, or the message of the ParseError it raises."""
    try:
        return parse(text, "<gen>")
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.trc") if p.name != "specs.trc"))
def test_corpus_files_parse_as_the_reclassifying_reference(name):
    text = (CORPUS / name).read_text()
    assert parse_scripts(text, name) == oracle_parse_scripts(text, name)


# let names: lowercase, uppercase, reserved script words and, one time in
# sixteen, names no term can write; the terms name them in and out of brackets
let_names = st.sampled_from(4 * ["t", "s", "_u", "y'", "T", "Foo", "by", "qed", "let", "with", "theorem"]
                            + ["P1", "k", "x.y"])
_SCRIPT_ATOMS = st.sampled_from(["t", "s", "_u", "y'", "x", "T", "Foo", "P1", "Eq", "I", "(by)", "(qed)",
                                 "(let)", "<with, t>", "k(theorem)"])
script_terms = st.recursive(_SCRIPT_ATOMS, lambda sub: st.one_of(
    st.builds("{} {}".format, sub, sub), st.builds("k({})".format, sub),
    st.builds("<{}, {}>".format, sub, sub), st.builds("({})".format, sub)), max_leaves=4)
lets = st.builds("let {} := {}".format, let_names, script_terms)
haves = st.builds("have h : {} = {} by chain [{}, {}]".format, script_terms, script_terms, script_terms,
                  script_terms)
# a label spelled let is no let
let_labels = st.builds("have f : false by contradiction let {}".format, let_names)
# a let in an inner block is an error, raised once the block parses
inner_blocks = st.builds("have c : false by contradiction as a {{ {} qed by chain [{}] }}".format,
                         st.sampled_from(["", "", "", "let t := s", "let P1 := s"]), script_terms)


@st.composite
def theorem(draw, ident: str, closed: bool) -> str:
    hypothesis = draw(st.sampled_from(["", " hypothesis M : M $x = <t, $x>\n"]))
    items = draw(st.lists(st.one_of(lets, lets, haves, let_labels, inner_blocks), max_size=5))
    return (f'theorem {ident} "t" {{\n{hypothesis} prove {draw(script_terms)} = {draw(script_terms)}\n'
            + "".join(f" {item}\n" for item in items) + f" qed by chain [{draw(script_terms)}]\n"
            + ("}\n" if closed else ""))


@st.composite
def script_texts(draw) -> str:
    # the first theorem may lack its closing brace before a second theorem
    first = draw(theorem("a", draw(st.sampled_from(5 * [True] + [False]))))
    return first + (draw(theorem("b", True)) if draw(st.booleans()) else "")


@settings(max_examples=300)
@given(script_texts())
def test_let_names_are_read_ahead_as_the_reference_reclassifies_them(text):
    assert parsed(parse_scripts, text) == parsed(oracle_parse_scripts, text)


# spec files: definitions, blank and comment lines, and lines of loose tokens
spec_bodies = st.one_of(
    *2 * [st.sampled_from(["x", "x y", "y (x y z)", "<x, y>", "k(x) y", "I x", "P1 x", "Foo x", "x y z", "z"])],
    st.lists(st.sampled_from(["x", "y", "I", "P1", "k(", "(", ")", "<", ",", ">", '"q"', "$x", "?", "="]),
             max_size=5).map(" ".join),
)
spec_definitions = st.builds(
    "{} {}{}= {}".format, st.sampled_from(["S", "T", "b", "x", "P1", "2"]),
    st.lists(st.sampled_from(["x", "y", "z", "X", "_x", "x-y", "k", "Eq"]), max_size=3).map(
        lambda ps: "".join(p + " " for p in ps)),
    st.sampled_from(["", " ", "  "]), spec_bodies)
spec_lines = st.builds(
    "{}{}".format,
    st.one_of(*3 * [spec_definitions], spec_bodies, st.sampled_from(["", "\t", "-- note"])),
    st.sampled_from(["", " ", "  -- c", "--c", "\r"]))


@settings(max_examples=300)
@given(st.lists(spec_lines, max_size=5).map("\n".join))
def test_spec_files_read_as_the_tokenizing_reference_reads_them(text):
    # the same definitions, or the same error at the same line and column
    def read(parse):
        try:
            return parse(text)
        except ParseError as exc:
            return str(exc), exc.line, exc.col

    assert read(parse_combinator_specs) == read(oracle_parse_combinator_specs)


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
    # the compiler knows no definition but I
    ("S = I\nT x = Foo x\n", "2:1: T: body uses undeclared names ['Foo']"),
    # placed on the file's line: a bad character before an earlier error, and
    # a missing body just past the '=', not at the comment after it
    ("S x = \n\nT x = x ?\n", "3:9: unexpected character '?'"),
    ("S x = x\n\nT x = -- no body\n", f"3:6: got 'EOF' {_NO_TERM}"),
])
def test_spec_file_errors_are_pinned(text, expected):
    # what ``trc compile`` prints after "error: ", or the definitions parsed
    try:
        result = parse_combinator_specs(text)
    except ParseError as exc:
        result = str(exc)
    assert result == expected


if __name__ == "__main__":
    TOKEN_DELETIONS.write_text("".join(line + "\n" for line in deletion_outcomes()), encoding="utf-8")
