from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trc.terms import (
    ABST, EQ, P1, P2,
    App, Defined, KWrap, Pair, ParseError, PatVar, PositionError, Var,
    expand_defined, free_vars, fresh_var, match_pattern, navigate, parse,
    parse_pattern, render, replace_at, substitute, subterms, term_size,
    to_pattern,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

var_names = st.sampled_from(["x", "y", "z", "u", "v", "w'"])

terms = st.recursive(
    st.one_of(
        st.builds(Var, var_names),
        st.sampled_from([ABST, EQ, P1, P2]),
        st.builds(Defined, st.sampled_from(["I", "M", "Zed"])),
    ),
    lambda sub: st.one_of(
        st.builds(App, sub, sub),
        st.builds(KWrap, sub),
        st.builds(Pair, sub, sub),
    ),
    max_leaves=25,
)

closed_terms = st.recursive(
    st.sampled_from([ABST, EQ, P1, P2]),
    lambda sub: st.one_of(st.builds(App, sub, sub), st.builds(KWrap, sub), st.builds(Pair, sub, sub)),
    max_leaves=12,
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


def test_pattern_variables_rejected_outside_patterns():
    with pytest.raises(ParseError):
        parse("k($x) y")
    assert parse_pattern("k($x) $y") == App(KWrap(PatVar("$x")), PatVar("$y"))


@settings(max_examples=200)
@given(terms)
def test_round_trip(t):
    assert parse(render(t)) == t


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
    assert fresh_var({"z"}) == "v0"
    assert fresh_var({"v0", "v1"}) == "v2"


def test_expand_defined_recurses():
    defs = {"I": Pair(P1, P2), "J": App(Defined("I"), Defined("I"))}
    assert expand_defined(Defined("J"), defs) == App(Pair(P1, P2), Pair(P1, P2))


def test_term_size():
    assert term_size(parse("k(x) y")) == 4
