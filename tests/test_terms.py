from __future__ import annotations

from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trc
from trc import scriptfile
from trc.mutate import _count_projections, _swap_projection
from trc.terms import (
    ABST, EQ, P1, P2,
    App, Defined, KWrap, Pair, ParseError, PatVar, PositionError, TokenStream, TrcError, Var,
    app, expand_defined, free_vars, fresh_vars, match_pattern, name_atom, nodes,
    parse, parse_pattern, parse_term_tokens, rebuild, render, replace_at, replace_defined,
    substitute, term_size, to_pattern,
)

from oracles import (
    OracleScriptTerms, OracleTokenStream, closed_terms, navigate, oracle_count_projections,
    oracle_expand_defined, oracle_free_vars, oracle_parse, oracle_parse_term_tokens, oracle_render,
    oracle_replace_defined, oracle_substitute, oracle_swap_projection, oracle_term_size,
    oracle_to_pattern, oracle_tokenize, subterms, term_trees, terms,
)

# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def test_parse_k_application():
    assert parse("k(x) y") == App(KWrap(Var("x")), Var("y"))


def test_parse_pair_of_projections():
    assert parse("<P1,P2>") == Pair(P1, P2)


def test_application_associates_left():
    t = parse("Abst x y z")
    assert t == App(App(App(ABST, Var("x")), Var("y")), Var("z"))


def test_k_and_pair_are_not_applications():
    t = parse("k(<x,y>)")
    assert t == KWrap(Pair(Var("x"), Var("y")))


def test_uppercase_names_are_declared_constants():
    assert parse("I") == Defined("I")
    assert parse("x") == Var("x")


def test_render_examples():
    assert render(App(KWrap(Var("x")), Var("y"))) == "k(x) y"
    assert render(Pair(P1, P2)) == "<P1,P2>"
    assert render(App(Var("x"), App(Var("y"), Var("z")))) == "x (y z)"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("k(x")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse("x )")
    with pytest.raises(ParseError):
        parse("")
    # a string token is named as written, with its quotes
    with pytest.raises(ParseError, match="""^1:3: trailing input '"q"'"""):
        parse('x "q"')
    with pytest.raises(ParseError, match="""^1:1: got '""'"""):
        parse('""')


def test_pattern_variables_rejected_outside_patterns():
    with pytest.raises(ParseError):
        parse("k($x) y")
    assert parse_pattern("k($x) $y") == App(KWrap(PatVar("$x")), PatVar("$y"))


@settings(max_examples=200)
@given(terms)
def test_round_trip(t):
    assert parse(render(t)) == t


# ---------------------------------------------------------------------------
# the front end against the character-at-a-time lexer and recursive parser
# ---------------------------------------------------------------------------
# The oracle is the front end the regex tokenizer and the explicit-stack
# parser replaced (tests/oracles.py); both must give the same tokens, the
# same term, or the same ParseError (text, line, column and expected tokens).

def outcome(fn, *args):
    """What ``fn(*args)`` returns, or every field of the ParseError it raises
    (a script can also fail later, on a hypothesis that does not bind)."""
    try:
        return fn(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col, exc.expected)
    except TrcError as exc:
        return (type(exc).__name__, str(exc))


# reserved script words, inside and outside brackets, next to term syntax
_FRONT_END_TOKENS = [
    "x", "y'", "_a", "I", "M", "P1", "P2", "Abst", "Eq", "k", "k(", "(", ")", "<", ",", ">",
    "$x", "$", "=", "!=", ":=", "let", "qed", "by", "theorem", "false", "k-injection",
    "2.4a", '"s"', '"', "@", "-- note\n", "--", "\n",
]
token_text = st.lists(
    st.tuples(st.sampled_from(_FRONT_END_TOKENS), st.sampled_from([" ", "", "\n", "\t"])),
    max_size=16,
).map(lambda parts: "".join(tok + sep for tok, sep in parts))


# the front end's edge cases: a comment at the end of the input, with and
# without a newline, a comment right after a word, a blank between k and its
# bracket, each bad character, and a carriage return before a newline
_FRONT_END_EDGES = ["-- note\n ", "x -- c", "x--y", "k (x)", "k", '"open', "$", "x\r\ny", "x\n\n  @"]


def edge_examples(test):
    for text in reversed(_FRONT_END_EDGES):
        test = example(text)(test)
    return test


@edge_examples
@settings(max_examples=300)
@given(st.one_of(token_text, st.text(alphabet=' \t\r\n"$-<>(),:=!|[]{};ab_Z09.\'@é', max_size=30)))
def test_tokenize_matches_the_character_lexer(text):
    # the parser's texts and kinds, from findall, and the places of the
    # tokens, from the regex's match offsets, name the same tokens
    assert outcome(placed_tokens, text) == outcome(oracle_tokenize, text)


def placed(ts, i):
    """(kind, text, line, column) of token ``i`` of a TokenStream."""
    return (ts.kinds[ts.texts[i]], ts.texts[i], *ts.place(i))


def placed_tokens(text):
    """(kind, text, line, column) of each token of a TokenStream."""
    ts = TokenStream(text)
    return [placed(ts, i) for i in range(len(ts.texts))]


@edge_examples
@settings(max_examples=500)
@given(token_text)
def test_term_parser_matches_the_recursive_parser(text):
    assert outcome(parse, text) == outcome(oracle_parse, text)
    assert outcome(parse_pattern, text) == outcome(oracle_parse, text, True)


@settings(max_examples=300)
@given(token_text, token_text)
def test_script_terms_match_the_recursive_parser(goal, hypothesis):
    # the goal's left side stops at a reserved word; brackets do not.  The
    # let makes _a a declared name in the goal, and not in the hypothesis
    text = (f'theorem t "g" {{\n hypothesis M : M $x = {hypothesis}\n'
            f' prove {goal} = x\n let _a := x\n qed by normalize\n}}\n')
    want = outcome(scriptfile.parse_scripts, text)
    oracle = OracleScriptTerms()
    with mock.patch.object(scriptfile, "TokenStream", oracle.stream), \
            mock.patch.object(scriptfile, "parse_term_tokens", oracle.parse_term_tokens):
        assert outcome(scriptfile.parse_scripts, text) == want


# Every token class after runs of blanks, on the first line and on a later
# one, then the end position after trailing blanks, a comment or a newline:
# each column comes from a group start, and a string's group starts after
# its quote.
_TOKEN_CLASSES = [
    "w0rd", "x'.y-z", "$x", "$9'.-", '"a b"', '""', "@", "é", "-", "$", '"open', '"a\nb"',
    ":=", "!=", "=>", "(", ")", "<", ">", ",", "[", "]", "{", "}", ":", ";", "=", "|",
]
_BLANK_RUNS = ["", " ", "   ", "\t", " \t\r ", "\r\r"]
_ENDINGS = ["", " ", "\t\r ", " -- note", "--", " -- note\n", "\n", "\n \t", " x"]


@pytest.mark.parametrize("token", _TOKEN_CLASSES)
def test_token_columns_match_the_character_lexer(token):
    for first in ("", "x\n", "\t y\r\n"):
        for blanks in _BLANK_RUNS:
            for ending in _ENDINGS:
                text = first + blanks + token + ending
                assert outcome(placed_tokens, text) == outcome(oracle_tokenize, text), repr(text)


@settings(max_examples=300)
@given(token_text, st.integers(0, 3), st.booleans())
def test_term_parser_leaves_the_stream_where_the_recursive_parser_does(text, start, pattern):
    try:
        ts = TokenStream(text)
    except ParseError:
        return
    tokens = oracle_tokenize(text)
    oracle_ts = OracleTokenStream(tokens)
    ts.i = oracle_ts.i = min(start, len(tokens) - 1)
    got = outcome(parse_term_tokens, ts, pattern, scriptfile.SCRIPT_RESERVED)
    want = outcome(oracle_parse_term_tokens, oracle_ts, pattern, scriptfile.SCRIPT_RESERVED)
    assert (got, ts.i, placed(ts, ts.i)) == (want, oracle_ts.i, oracle_ts.peek())


# single words: the constants, k, reserved script words, words that are no
# identifier, and any word the lexer reads as one token
_WORDS = ["k", "k1", "P1", "Eq", "Abst", "I", "let", "x.y", "a-b", "_x", "x'", "2", "2x", "a--b"]


@settings(max_examples=300)
@given(st.one_of(st.sampled_from(_WORDS), st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_.'-]{0,5}", fullmatch=True)))
def test_name_atom_reads_a_word_as_the_term_parser_does(word):
    assert TokenStream(word).texts == [word, ""]  # one WORD
    got = outcome(parse, word)
    assert name_atom(word) == (got if type(got) in (Var, Defined) else None)


def test_reserved_words_end_only_the_outermost_term():
    ts = TokenStream("x (let by) <qed, y> let")
    t = parse_term_tokens(ts, reserved=frozenset({"let", "by", "qed"}))
    assert t == app(Var("x"), App(Var("let"), Var("by")), Pair(Var("qed"), Var("y")))
    assert ts.texts[ts.i] == "let"
    with pytest.raises(ParseError, match="expected a term, got keyword 'let'"):
        parse_term_tokens(TokenStream("let"), reserved=frozenset({"let"}))


def test_accept_takes_only_the_word_or_punctuation_mark_asked_for():
    ts = TokenStream('fuel := "fuel" "STRING" $x')
    assert not ts.accept("with") and not ts.accept("=") and ts.i == 0
    assert ts.accept("fuel") and ts.accept(":=") and ts.i == 2
    assert not ts.accept("fuel") and not ts.accept("STRING") and ts.i == 2  # a string is never a keyword
    ts.i = 3
    assert not ts.accept("STRING") and not ts.accept("$x") and not ts.accept("PATVAR")
    ts.i = 5
    assert not ts.accept("") and not ts.accept("EOF") and ts.i == 5


def test_corpus_files_tokenize_as_before():
    root = Path(trc.__file__).parent / "corpus"
    files = sorted(root.iterdir())
    assert len(files) > 50
    for f in files:
        text = f.read_text()
        assert placed_tokens(text) == oracle_tokenize(text), f.name


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_simultaneous():
    t = parse("x x")
    assert substitute(t, {"x": parse("k(y)")}) == parse("k(y) k(y)")


def test_substitute_empty_is_identity():
    t = parse("Abst k(Eq) <M, k(P2)>")
    assert substitute(t, {}) == t


def test_substitute_inside_eq_pair():
    t = parse("Eq <x, P2>")
    assert substitute(t, {"x": parse("t' t'")}) == parse("Eq <t' t', P2>")


@settings(max_examples=100)
@given(terms, closed_terms, closed_terms)
def test_substitution_composition(t, a, b):
    sigma = {"x": a}
    rho = {"y": b}
    combined = {"x": substitute(a, rho), "y": b}
    assert substitute(substitute(t, sigma), rho) == substitute(t, combined)


@settings(max_examples=100)
@given(terms, closed_terms)
def test_substitution_size_bound(t, s):
    assert term_size(substitute(t, {"x": s})) <= term_size(t) * (1 + term_size(s))


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def test_match_binds_pattern_variables():
    got = match_pattern(parse_pattern("k($a) $b"), parse("k(P1) P2"))
    assert got == {"$a": P1, "$b": P2}


def test_match_requires_k_headed_argument():
    assert match_pattern(parse_pattern("u k($x)"), parse("u P1")) is None
    assert match_pattern(parse_pattern("u k($x)"), parse("u k(P1)")) == {"$x": P1}


def test_match_pair_application():
    got = match_pattern(parse_pattern("<$x,$y> $z"), parse("<k(a), b> c"))
    assert got == {"$x": parse("k(a)"), "$y": Var("b"), "$z": Var("c")}


def test_nonlinear_pattern_needs_identical_subterms():
    pat = parse_pattern("<P1 $x, P2 $x>")
    assert match_pattern(pat, parse("<P1 a, P2 a>")) == {"$x": Var("a")}
    assert match_pattern(pat, parse("<P1 a, P2 b>")) is None


def test_object_variables_match_literally():
    assert match_pattern(parse("x y"), parse("x y")) == {}
    assert match_pattern(parse("x y"), parse("z y")) is None


@settings(max_examples=200)
@given(terms)
def test_match_soundness(t):
    pattern = to_pattern(t)
    got = match_pattern(pattern, t)
    assert got is not None
    assert substitute(pattern, got) == t


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------

def test_navigate_examples():
    assert navigate(parse("k(x) y"), ("function", "k-body")) == Var("x")
    assert navigate(parse("<P1 x, P2 x>"), ("pair-right",)) == parse("P2 x")


def test_replace_at_example():
    t = parse("Eq <t' t', P2>")
    got = replace_at(t, ("argument", "pair-left"), Var("s"))
    assert got == parse("Eq <s, P2>")


def test_invalid_position_names_selector():
    with pytest.raises(PositionError) as err:
        navigate(parse("x y"), ("k-body",))
    assert err.value.selector == "k-body"
    with pytest.raises(PositionError) as err:
        replace_at(parse("x (y z)"), ("argument", "k-body"), Var("s"))
    assert (err.value.selector, err.value.at) == ("k-body", ("argument",))


@settings(max_examples=200)
@given(terms)
def test_positional_coherence(t):
    for pos, sub in subterms(t):
        assert replace_at(t, pos, navigate(t, pos)) == t
        assert navigate(t, pos) == sub


# ---------------------------------------------------------------------------
# free variables and freshness
# ---------------------------------------------------------------------------

def test_free_vars_ignores_declared_names():
    assert free_vars(parse("Abst k(Eq) <M, k(P2)>")) == set()


def test_free_vars_collects_occurrences():
    assert free_vars(parse("x (x y)")) == {"x", "y"}


def test_fresh_var_scheme():
    assert next(fresh_vars({"z"})) == "v0"
    assert next(fresh_vars({"v0", "v1"})) == "v2"
    assert list(islice(fresh_vars({"v1", "v3", "x"}), 4)) == ["v0", "v2", "v4", "v5"]


def test_expand_defined_recurses():
    defs = {"I": Pair(P1, P2), "J": App(Defined("I"), Defined("I"))}
    assert expand_defined(Defined("J"), defs) == App(Pair(P1, P2), Pair(P1, P2))


def test_term_size():
    assert term_size(parse("k(x) y")) == 4


# ---------------------------------------------------------------------------
# traversal: the walkers against plain recursive definitions
# ---------------------------------------------------------------------------

# variables, pattern variables and declared names share spellings, so a walker
# that replaces the wrong kind of atom is caught
def_names = st.sampled_from(["I", "M", "Zed"])
walker_terms = term_trees(
    st.builds(Var, st.sampled_from(["x", "y", "I"])),
    st.builds(PatVar, st.sampled_from(["$x", "$y"])),
    st.sampled_from([ABST, EQ, P1, P2]),
    st.builds(Defined, def_names),
    max_leaves=25,
)
small_terms = term_trees(
    st.builds(Var, st.sampled_from(["x", "y"])), st.sampled_from([P1, P2]), st.builds(Defined, def_names),
    max_leaves=4, formers=(App, KWrap),
)


@settings(max_examples=100)
@given(walker_terms, st.dictionaries(st.sampled_from(["x", "$x", "y", "I"]), small_terms))
def test_substitute_matches_recursive_definition(t, subst):
    assert substitute(t, subst) == oracle_substitute(t, subst)


@settings(max_examples=100)
@given(walker_terms, st.dictionaries(def_names, small_terms))
def test_definition_walkers_match_recursive_definitions(t, defs):
    assert to_pattern(t) == oracle_to_pattern(t)
    assert replace_defined(t, defs) == oracle_replace_defined(t, defs)
    try:
        want = oracle_expand_defined(t, defs)
    except TrcError as exc:  # a cyclic definition: the same name is reported
        with pytest.raises(TrcError) as err:
            expand_defined(t, defs)
        assert str(err.value) == str(exc)
    else:
        assert expand_defined(t, defs) == want


@settings(max_examples=100)
@given(walker_terms)
def test_queries_and_render_match_recursive_definitions(t):
    assert render(t) == oracle_render(t)
    assert term_size(t) == oracle_term_size(t)
    assert free_vars(t) == oracle_free_vars(t)
    assert list(nodes(t)) == [sub for _, sub in subterms(t)]
    assert rebuild(t, lambda a: a) is t
    count = _count_projections(t)
    assert count == oracle_count_projections(t)
    for i in range(count + 1):
        assert _swap_projection(t, i) == oracle_swap_projection(t, i)


def test_rebuild_shares_unchanged_subterms():
    t = parse("<k(P1 P2), x>")
    got = rebuild(t, lambda a: Var("y") if a == Var("x") else a)
    assert render(got) == "<k(P1 P2),y>"
    assert got.left is t.left


DEPTH = 10_000


def _spine():
    """``P1 x I x I ...``: a left-leaning application spine of DEPTH atoms."""
    args = [Var("x") if i % 2 == 0 else Defined("I") for i in range(DEPTH - 1)]
    text = " ".join(["P1"] + [render(a) for a in args])
    return app(P1, *args), text, 2 * DEPTH - 1


def _nest():
    """``k(k(...k(P1 <x,I>)...))``, DEPTH k-wrappers deep."""
    t = App(P1, Pair(Var("x"), Defined("I")))
    for _ in range(DEPTH):
        t = KWrap(t)
    return t, "k(" * DEPTH + "P1 <x,I>" + ")" * DEPTH, DEPTH + 5


# walker -> (what it computes, the expected value from the input's rendering
# and size); terms are compared by rendering, because term == recurses
DEEP_CASES = {
    "render": (render, lambda text, size: text),
    "substitute": (lambda t: render(substitute(t, {"x": Var("y")})),
                   lambda text, size: text.replace("x", "y")),
    "to_pattern": (lambda t: render(to_pattern(t)), lambda text, size: text.replace("x", "$x")),
    "replace_defined": (lambda t: render(replace_defined(t, {"I": P2})),
                        lambda text, size: text.replace("I", "P2")),
    "expand_defined": (lambda t: render(expand_defined(t, {"I": Pair(P1, P2)})),
                       lambda text, size: text.replace("I", "<P1,P2>")),
    "swap_projection": (lambda t: render(_swap_projection(t, 0)),
                        lambda text, size: text.replace("P1", "P2", 1)),
    "count_projections": (_count_projections, lambda text, size: text.count("P1")),
    "free_vars": (free_vars, lambda text, size: {"x"}),
    "term_size": (term_size, lambda text, size: size),
    "nodes": (lambda t: sum(1 for _ in nodes(t)), lambda text, size: size),
    "parse": (lambda t: render(parse(render(t))), lambda text, size: text),
}


@pytest.mark.parametrize("shape", [_spine, _nest], ids=["spine", "k-nest"])
@pytest.mark.parametrize("walker", sorted(DEEP_CASES))
def test_walkers_handle_deep_terms(shape, walker):
    t, text, size = shape()
    fn, expected = DEEP_CASES[walker]
    assert fn(t) == expected(text, size)


@pytest.mark.parametrize("text, rendered", [
    ("<" * DEPTH + "x" + ",x>" * DEPTH, None),
    ("<x," * DEPTH + "x" + ">" * DEPTH, None),
    ("x (" * DEPTH + "x x" + ")" * DEPTH, None),
    ("(" * DEPTH + "P1 x" + ")" * DEPTH + " y", "P1 x y"),
], ids=["left-pairs", "right-pairs", "right-applications", "parentheses"])
def test_parse_deep_nests(text, rendered):
    assert render(parse(text)) == (rendered or text)
