from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trc.corpus import BASE_DEFINITIONS, standard_context
from trc.engine import (
    EngineConfig, NormalizeResult, Rule, RuleError, TraceStep, core_rules,
    ext_equal, normalize, register_derived_rule, rewrite_at, rewrite_step,
    rule_match,
)
from trc.terms import (
    ABST, EQ, P1, P2, App, KWrap, Pair, PatVar, Var, free_vars, parse,
    parse_pattern, render, replace_at, substitute, subterms,
)

from test_terms import closed_terms, terms


def hyp_rule(name: str, lhs: str, rhs: str) -> Rule:
    return Rule(name, parse_pattern(lhs), parse_pattern(rhs), f"hypothesis:{name}")


# ---------------------------------------------------------------------------
# configuration and the core rule set
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(fuel=0)
    with pytest.raises(ValueError):
        EngineConfig(ext_depth=-1)


def test_default_rule_set_has_seven_rules(core):
    assert len(core.rules) == 7
    abst = next(r for r in core.rules if r.name == "Abst")
    assert render(abst.rhs) == "$x k($z) ($y $z)"


def test_printed_variant_rule_shapes():
    rs = core_rules(EngineConfig(corrected_axioms=False))
    abst = next(r for r in rs.rules if r.name == "Abst")
    assert render(abst.rhs) == "$x k($y) ($y $z)"
    pair = next(r for r in rs.rules if r.name == "pair-application")
    assert render(pair.rhs) == "<$x $y,$x $z>"


def test_surjective_pairing_toggle():
    rs = core_rules(EngineConfig(surjective_pairing=False))
    assert len(rs.rules) == 6
    assert all(r.name != "surjective-pairing" for r in rs.rules)


def test_eq_reflexivity_toggle(core):
    assert normalize(parse("Eq <x, x>"), core).result == P1
    rs = core_rules(EngineConfig(eq_reflexivity=False))
    assert normalize(parse("Eq <x, x>"), rs).result == parse("Eq <x, x>")


def test_no_rule_rewrites_eq_to_p2(core):
    # distinct components stay put: syntactic distinctness is not inequality
    assert normalize(parse("Eq <x, y>"), core).result == parse("Eq <x, y>")


def test_rule_rejects_unbound_rhs_pattern_vars():
    with pytest.raises(RuleError):
        Rule("bad", parse_pattern("$x"), parse_pattern("$x $y"), "axiom")


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_rewrite_step_k_rule(core):
    step = rewrite_step(parse("k(x) y"), core)
    assert step is not None and step.rule_name == "K" and step.position == ()
    assert step.after == Var("x")


def test_rewrite_step_projection(core):
    step = rewrite_step(parse("P1 <x, y>"), core)
    assert step is not None and step.after == Var("x")


def test_variable_is_normal(core):
    assert rewrite_step(Var("x"), core) is None


def test_leftmost_outermost_prefers_outer_position(core):
    # both the root and the inner k(a) b are K redexes; the root fires
    step = rewrite_step(parse("k(x) (k(a) b)"), core)
    assert step is not None and step.position == ()


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_abst_abst(core):
    got = normalize(parse("Abst Abst x y z"), core)
    assert render(got.result) == "y (x y z)"
    assert not got.exhausted


def test_normalize_constant_head(core):
    assert render(normalize(parse("Abst k(x) y z"), core).result) == "x (y z)"


def test_identity_normalizes(core):
    from trc.terms import expand_defined
    t = expand_defined(parse("I x"), BASE_DEFINITIONS)
    assert normalize(t, core).result == Var("x")


def test_exact_fuel_is_not_exhaustion(core):
    # the example needs exactly three steps; consuming all fuel while
    # reaching a normal form is a completed normalization
    got = normalize(parse("Abst Abst x y z"), core, fuel=3)
    assert render(got.result) == "y (x y z)"
    assert not got.exhausted
    assert normalize(parse("Abst Abst x y z"), core, fuel=2).exhausted


def test_self_application_hypothesis_exhausts(core):
    rs = core.extended([hyp_rule("hypothesis:M", "M $x", "$x $x")])
    t = parse("Abst k(Eq) <M, k(P2)> (Abst k(Eq) <M, k(P2)>)")
    got = normalize(t, rs, fuel=50)
    assert got.exhausted
    assert len(got.trace) == 50


def test_trace_replays(core):
    result = normalize(parse("Abst Abst x y z"), core)
    by_name = {r.name: r for r in core.rules}
    current = parse("Abst Abst x y z")
    for step in result.trace:
        assert step.before == current
        replayed = rewrite_at(current, step.position, by_name[step.rule_name])
        assert replayed == step.after
        current = replayed
    assert current == result.result


def test_normalize_deterministic(core):
    a = normalize(parse("Abst (Abst (Abst x)) y z"), core)
    b = normalize(parse("Abst (Abst (Abst x)) y z"), core)
    assert a.lines() == b.lines()
    assert a.lines()  # non-empty trace


@settings(max_examples=100, deadline=None)
@given(terms, closed_terms)
def test_stability_under_substitution(t, s):
    rs = core_rules()
    step = rewrite_step(t, rs)
    if step is None:
        return
    sigma = {name: s for name in free_vars(t)}
    rule = next(r for r in rs.rules if r.name == step.rule_name)
    got = rewrite_at(substitute(t, sigma), step.position, rule)
    assert got == substitute(step.after, sigma)


# ---------------------------------------------------------------------------
# the indexed, resuming redex finder against a naive full scan
# ---------------------------------------------------------------------------

def reference_step(t, rs):
    """Try every rule in order at every preorder position, from the root."""
    for pos, sub in subterms(t):
        for rule in rs.rules:
            subst = rule_match(rule, sub)
            if subst is not None:
                return TraceStep(pos, rule.name, t, replace_at(t, pos, substitute(rule.rhs, subst)))
    return None


def reference_normalize(t, rs, fuel):
    trace = []
    for _ in range(fuel):
        step = reference_step(t, rs)
        if step is None:
            return NormalizeResult(t, tuple(trace), False)
        trace.append(step)
        t = step.after
    return NormalizeResult(t, tuple(trace), reference_step(t, rs) is not None)


def _surjective(t):
    return Pair(App(P1, t), App(P2, t))


def _eq_same(t):
    return App(EQ, Pair(t, t))


def _projection(p, t, u):
    return App(p, Pair(t, u))


# terms dense in redexes, including the nonlinear surjective-pairing and Eq ones
redex_rich = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["x", "y", "z"])), st.sampled_from([ABST, EQ, P1, P2])),
    lambda sub: st.one_of(
        st.builds(App, sub, sub), st.builds(KWrap, sub), st.builds(Pair, sub, sub),
        st.builds(_surjective, sub), st.builds(_eq_same, sub),
        st.builds(_projection, st.sampled_from([P1, P2]), sub, sub),
        st.builds(App, st.builds(KWrap, sub), sub),
    ),
    max_leaves=20,
)


@pytest.fixture(scope="module")
def rule_sets():
    return {"core": core_rules(), "standard": standard_context()[1]}


@pytest.mark.parametrize("which", ["core", "standard"])
@settings(max_examples=150, deadline=None)
@given(t=st.one_of(terms, closed_terms, redex_rich), fuel=st.integers(1, 40))
def test_normalize_matches_reference_finder(rule_sets, which, t, fuel):
    rs = rule_sets[which]
    got = normalize(t, rs, fuel)
    assert got == reference_normalize(t, rs, fuel)
    assert rewrite_step(t, rs) == reference_step(t, rs)
    by_name = {r.name: r for r in rs.rules}
    current = t
    for step in got.trace:
        assert step.before == current
        assert rewrite_at(step.before, step.position, by_name[step.rule_name]) == step.after
        current = step.after
    assert current == got.result


@pytest.mark.parametrize("text, first, root_rule, result", [
    # the rewrite sits 3 levels below a root whose nonlinear left-hand side is 2 deep
    ("Eq <k(P1 <a,b>), k(a)>", (("argument", "pair-left", "k-body"), "P1-proj"), "Eq-refl", "P1"),
    ("<P1 k(k(x) y), P2 k(x)>", (("pair-left", "argument", "k-body"), "K"), "surjective-pairing",
     "k(x)"),
])
def test_deep_rewrite_makes_far_ancestor_a_redex(core, text, first, root_rule, result):
    got = normalize(parse(text), core)
    assert [(s.position, s.rule_name) for s in got.trace] == [first, ((), root_rule)]
    assert got.result == parse(result)
    assert got == reference_normalize(parse(text), core, core.config.fuel)


def test_candidates_keep_rule_order_and_wildcards(core):
    rs = core.extended([
        Rule("any", PatVar("$w"), PatVar("$w"), "fact"),
        Rule("any-app", parse_pattern("$f $x"), parse_pattern("$x"), "fact"),
    ])

    def names(text):
        return [r.name for r in rs.candidates(parse(text))]

    assert names("k(a) b") == ["K", "any", "any-app"]
    assert names("P1 <a,b>") == ["P1-proj", "any", "any-app"]
    assert names("Eq <a,b>") == ["Eq-refl", "any", "any-app"]
    assert names("<a,b> c") == ["pair-application", "any", "any-app"]
    assert names("Abst a b c") == ["Abst", "any", "any-app"]
    assert names("<a,b>") == ["surjective-pairing", "any"]
    assert names("a b") == ["any", "any-app"]
    assert names("k(a)") == ["any"]


# ---------------------------------------------------------------------------
# extensional equality
# ---------------------------------------------------------------------------

def test_ext_equal_abst_identity(full_rules):
    evidence = ext_equal(parse("Abst I"), parse("k(I)"), full_rules, defs=BASE_DEFINITIONS)
    assert evidence.equal


def test_ext_equal_triple_abstraction(core):
    evidence = ext_equal(parse("Abst (Abst (Abst x))"), parse("Abst x"), core)
    assert evidence.equal
    assert len(evidence.fresh_vars) == 2


def test_ext_equal_projections_unknown(core):
    assert not ext_equal(P1, P2, core).equal


def test_ext_equal_depth_zero_is_syntactic(core):
    assert ext_equal(parse("k(x) y"), Var("x"), core, ext_depth=0).equal
    assert not ext_equal(parse("Abst x"), parse("Abst (Abst (Abst x))"), core, ext_depth=0).equal


def test_evidence_replays(core):
    evidence = ext_equal(parse("Abst (Abst k(x))"), parse("k(x)"), core)
    assert evidence.equal
    final = evidence.levels[-1]
    assert final.left.result == final.right.result
    # every step of every level's trace validates against the rule set
    by_name = {r.name: r for r in core.rules}
    for level in evidence.levels:
        for side in (level.left, level.right):
            for step in side.trace:
                assert rewrite_at(step.before, step.position, by_name[step.rule_name]) == step.after


def test_fixed_point_refuter_shape(core):
    for text in ("P1", "k(Eq)", "<Abst, P2>"):
        t = parse(text)
        got = normalize(App(parse("<Eq, k(P2)>"), t), core).result
        assert isinstance(got, Pair) and got.right == P2
        assert isinstance(got.left, App) and got.left.fn.name == "Eq"


# ---------------------------------------------------------------------------
# derived-rule registration
# ---------------------------------------------------------------------------

class _FakeRecord:
    def __init__(self, theorem_id, lhs, rhs):
        self.theorem_id = theorem_id
        self._sides = (parse(lhs), parse(rhs))

    def equation_sides(self):
        return self._sides


def test_register_derived_rule_accepts_matching_statement(core):
    record = _FakeRecord("2.2c.1", "P1 x y", "P1 (x y)")
    rs = register_derived_rule(core, parse_pattern("P1 $x $y"), parse_pattern("P1 ($x $y)"), record)
    got = normalize(parse("P1 k(x) z"), rs)
    assert got.result == parse("P1 x")


def test_register_derived_rule_accepts_constant_collapse(core):
    record = _FakeRecord("2.1e", "Abst k(x) k(y)", "k(x y)")
    rs = register_derived_rule(core, parse_pattern("Abst k($x) k($y)"), parse_pattern("k($x $y)"), record)
    assert any(r.name == "2.1e" for r in rs.rules)


def test_register_derived_rule_rejects_mismatch(core):
    record = _FakeRecord("2.1e", "Abst k(x) k(y)", "k(x y)")
    with pytest.raises(RuleError):
        register_derived_rule(core, parse_pattern("k($x) $y"), parse_pattern("$y"), record)


def test_registered_rules_only_extend_reachability(core, full_rules):
    # anything the core proves, the extended set still proves
    evidence = ext_equal(parse("Abst k(x) k(y)"), parse("k(x y)"), core)
    richer = ext_equal(parse("Abst k(x) k(y)"), parse("k(x y)"), full_rules)
    assert evidence.equal and richer.equal


# ---------------------------------------------------------------------------
# erratum witness
# ---------------------------------------------------------------------------

def test_corrected_axioms_prove_projection_abstraction(full_rules):
    assert ext_equal(parse("Abst P1"), parse("k(P1)"), full_rules).equal


def test_printed_axioms_break_projection_abstraction():
    rs = core_rules(EngineConfig(corrected_axioms=False))
    got = normalize(parse("Abst P1 x y"), rs).result
    assert got != parse("P1 y")
    assert render(got) == "P1 k(x) (x y)"
