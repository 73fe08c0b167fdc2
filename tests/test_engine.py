from __future__ import annotations

import copy
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trc import engine
from trc.corpus import BASE_DEFINITIONS, standard_context
from trc.engine import (
    EngineConfig, NormalizeResult, Rule, RuleError, RuleSet,
    core_rules, ext_equal, lhs_fits, normalize, root_shape, rule_match,
)
from trc.terms import (
    ABST, EQ, P1, P2, App, Defined, KWrap, Pair, PatVar, Var, app, format_position, free_vars,
    parse, parse_pattern, pattern_vars, rebuild, render, substitute, term_size,
)

from oracles import (
    closed_terms, interpreted_match, interpreted_rewrite_at, redex_rich_terms, reference_normalize,
    reference_step, term_trees, terms,
)


def hyp_rule(name: str, lhs: str, rhs: str) -> Rule:
    return Rule(name, parse_pattern(lhs), parse_pattern(rhs))


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


@pytest.mark.parametrize("corrected, pairing, refl", list(product((True, False), repeat=3)))
def test_no_two_core_rules_match_at_one_root(corrected, pairing, refl):
    # so the order of the core rules never decides which one fires; the
    # derived rules overlap at a root by design (Abst and 2.1d at Abst k(x) y z)
    rules = core_rules(EngineConfig(corrected_axioms=corrected, surjective_pairing=pairing,
                                    eq_reflexivity=refl)).rules
    overlaps = [(r.name, s.name) for r in rules for s in rules
                if r is not s and lhs_fits(r.lhs, root_shape(s.lhs))]
    assert overlaps == []


@pytest.mark.parametrize("text, result", [
    # the nonlinear rules fire only on identical components
    ("<P1 a, P2 b>", "<P1 a, P2 b>"),
    ("Eq <a,b>", "Eq <a,b>"),
    ("<P1 (a b), P2 (a c)>", "<P1 (a b),P2 (a c)>"),
    ("<P1 a, P2 a>", "a"),
    ("Eq <a,a>", "P1"),
    ("Eq <k(a b), k(a b)>", "P1"),
])
def test_nonlinear_rules_need_identical_components(core, text, result):
    assert normalize(parse(text), core).result == parse(result)


def test_rule_reach_is_the_depth_of_the_deepest_non_variable_node(core):
    # a repeated pattern variable compares subterms at any depth, so its rule's reach is unbounded
    assert {r.name: r._reach for r in core.rules} == {
        "K": 1, "P1-proj": 1, "P2-proj": 1, "pair-application": 1, "Abst": 3,
        "surjective-pairing": None, "Eq-refl": None,
    }


def test_rule_rejects_unbound_rhs_pattern_vars():
    with pytest.raises(RuleError):
        Rule("bad", parse_pattern("$x"), parse_pattern("$x $y"))


def test_rule_set_rejects_a_repeated_rule_name(core):
    with pytest.raises(RuleError, match="rule names must be unique"):
        RuleSet((hyp_rule("K", "k($x) $y", "$x"), hyp_rule("K", "P1 <$x, $y>", "$x")), EngineConfig())
    with pytest.raises(RuleError, match="rule names must be unique"):
        core.extended([hyp_rule("Abst", "M $x", "$x")])


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def first_step(t, rs):
    """The first step of normalizing ``t``, or None when ``t`` is normal."""
    trace = normalize(t, rs, 1).trace
    return trace[0] if trace else None


def test_rewrite_step_k_rule(core):
    step = first_step(parse("k(x) y"), core)
    assert step is not None and step.rule_name == "K" and step.position == ()
    assert step.after == Var("x")


def test_rewrite_step_projection(core):
    step = first_step(parse("P1 <x, y>"), core)
    assert step is not None and step.after == Var("x")


def test_variable_is_normal(core):
    assert first_step(Var("x"), core) is None


def test_leftmost_outermost_prefers_outer_position(core):
    # both the root and the inner k(a) b are K redexes; the root fires
    step = first_step(parse("k(x) (k(a) b)"), core)
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
        replayed = interpreted_rewrite_at(current, step.position, by_name[step.rule_name])
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
    step = first_step(t, rs)
    if step is None:
        return
    sigma = {name: s for name in free_vars(t)}
    rule = next(r for r in rs.rules if r.name == step.rule_name)
    got = interpreted_rewrite_at(substitute(t, sigma), step.position, rule)
    assert got == substitute(step.after, sigma)


# ---------------------------------------------------------------------------
# compiled rules and the indexed, resuming redex finder against interpreted references
# ---------------------------------------------------------------------------

@st.composite
def buried_redexes(draw):
    """A redex ``r`` that contracts to ``u``, under three to ten levels of a
    context ``C`` of applications (some to ``F`` and ``G``), pairs and
    ``k(-)``, in ``Eq <C[r], C[u]>``, ``<P1 C[r], P2 C[u]>``, ``D <C[r], C[u]>``,
    ``D C[r] C[u]`` or alone.  Contracting ``r`` can make the nonlinear
    ancestor a redex; half the time ``r`` is ``k(G) b`` in
    ``F (G (G (r o)))``, whose contraction makes the deep-linear rule match
    four levels up."""
    a, b = draw(terms), draw(terms)
    head = draw(st.sampled_from([ABST, EQ, P1, P2, Defined("F"), Defined("G"), Defined("D")]))
    deep = draw(st.booleans())
    r, u = (App(KWrap(Defined("G")), b), Defined("G")) if deep else draw(st.sampled_from([
        (App(KWrap(a), b), a), (App(P1, Pair(a, b)), a), (App(P2, Pair(a, b)), b), (App(KWrap(head), b), head)]))
    wraps = {"fn": lambda x, o: App(x, o), "arg": lambda x, o: App(o, x), "k": lambda x, o: KWrap(x),
             "left": lambda x, o: Pair(x, o), "right": lambda x, o: Pair(o, x),
             "F": lambda x, o: App(Defined("F"), x), "G": lambda x, o: App(Defined("G"), x)}
    for name in ["fn", "G", "G", "F"] * deep + draw(st.lists(st.sampled_from(sorted(wraps)), min_size=3, max_size=6)):
        other = draw(closed_terms)
        r, u = wraps[name](r, other), wraps[name](u, other)
    return draw(st.sampled_from([App(EQ, Pair(r, u)), Pair(App(P1, r), App(P2, u)), App(Defined("D"), Pair(r, u)),
                                 App(App(Defined("D"), r), u), r]))


@pytest.fixture(scope="module")
def rule_sets():
    return {
        "core": core_rules(),
        "printed": core_rules(EngineConfig(corrected_axioms=False)),
        "standard": standard_context()[1],
        # nonterminating: fuel can run out in the middle of an ancestor re-check
        "self-application": core_rules().extended([hyp_rule("M", "M $x", "$x $x")]),
        # a linear rule that reaches deeper than Abst
        "deep-linear": core_rules().extended([hyp_rule("deep", "F (G (G (G $x)))", "$x")]),
        # a repeated pattern variable in a rule of its own
        "repeated": core_rules().extended([hyp_rule("D", "D $x $x", "P1")]),
        # atom left-hand sides: the scan must not skip these leaves
        "declared-name": core_rules().extended([hyp_rule("G1", "G", "P1")]),
        "object-variable": core_rules().extended([hyp_rule("Y", "y", "P2")]),
    }


@pytest.mark.parametrize("which", ["core", "printed", "standard", "self-application", "deep-linear", "repeated",
                                   "declared-name", "object-variable"])
@settings(max_examples=150, deadline=None)
@given(t=st.one_of(terms, closed_terms, redex_rich_terms(Defined("M"), Defined("F"), Defined("G"), Defined("D")),
                   buried_redexes()),
       fuel=st.integers(0, 40))
def test_normalize_matches_reference_finder(rule_sets, which, t, fuel):
    rs = rule_sets[which]
    got = normalize(t, rs, fuel)
    # at fuel 0 too: exhausted exactly when a redex exists
    assert got == reference_normalize(t, rs, fuel)
    assert first_step(t, rs) == reference_step(t, rs)
    by_name = {r.name: r for r in rs.rules}
    current = t
    for step in got.trace:
        assert interpreted_rewrite_at(current, step.position, by_name[step.rule_name]) == step.after
        current = step.after
    assert current == got.result


@pytest.mark.parametrize("text, exhausted", [("k(x) y", True), ("x (k(y))", False), ("<P1 x, P2 x>", True)])
def test_zero_fuel_reports_whether_a_redex_exists(core, text, exhausted):
    got = normalize(parse(text), core, 0)
    assert got == NormalizeResult(parse(text), (), exhausted)


pattern_names = st.sampled_from(["$x", "$y"])

# patterns with repeated pattern variables, object variables, declared names
# and constants; a draw without pattern variables is a ground pattern
patterns = term_trees(
    st.builds(PatVar, pattern_names),
    st.builds(Var, st.sampled_from(["x", "y"])),
    st.builds(Defined, st.sampled_from(["F", "G"])),
    st.sampled_from([ABST, EQ, P1, P2]),
    max_leaves=10,
)


@st.composite
def random_rules(draw):
    lhs = draw(patterns)
    rhs = draw(patterns)
    unbound = pattern_vars(rhs) - pattern_vars(lhs)
    rhs = substitute(rhs, {name: Var("w") for name in unbound})
    return Rule("random", lhs, rhs)


small_terms = term_trees(
    st.builds(Var, st.sampled_from(["x", "y"])), st.builds(Defined, st.just("F")), st.sampled_from([EQ, P1, P2]),
    max_leaves=4,
)


# two or three small terms that pattern variables are instantiated with
instances = st.lists(small_terms, min_size=2, max_size=3)


@st.composite
def subjects(draw, rule, small):
    """A term built from ``rule``'s left-hand side, so that it often matches:
    each pattern variable occurrence becomes one of ``small``, mostly the one
    an earlier occurrence became, and an atom is now and then replaced by one
    of them."""
    size = term_size(rule.lhs)
    picks = iter(draw(st.lists(st.integers(0, 19), min_size=size, max_size=size)))
    bindings = {}

    def leaf(a):
        pick = next(picks)
        other = small[pick % len(small)]
        if type(a) is PatVar:
            return bindings.setdefault(a.name, other) if pick < 14 else other
        return other if pick == 19 else a

    return rebuild(rule.lhs, leaf)


def assert_same_contractum(rule, t):
    assert rule_match(rule, t) == interpreted_match(rule, t)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rule=random_rules(), small=instances)
def test_compiled_rule_matches_interpreter_on_random_rules(data, rule, small):
    assert_same_contractum(rule, data.draw(subjects(rule, small)))
    assert_same_contractum(rule, data.draw(terms))


@pytest.mark.parametrize("which", ["core", "printed", "standard"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), small=instances)
def test_compiled_rule_matches_interpreter_on_rule_sets(rule_sets, which, data, small):
    for rule in rule_sets[which].rules:
        assert_same_contractum(rule, data.draw(subjects(rule, small)))


def test_rules_with_equal_spelling_share_a_compiled_function():
    lhs, rhs = parse_pattern("P1 $x"), parse_pattern("<$x, Zed>")
    first, second = Rule("a", lhs, rhs), Rule("b", parse_pattern("P1 $x"), rhs)
    assert rule_match(first, parse("P1 y")) == rule_match(second, parse("P1 y"))
    assert first._fire is second._fire
    # a variable and a declared name print alike but must not share one
    var_rule = Rule("v", App(Var("m"), PatVar("$x")), PatVar("$x"))
    name_rule = Rule("n", App(Defined("m"), PatVar("$x")), PatVar("$x"))
    assert render(var_rule.lhs) == render(name_rule.lhs)
    assert rule_match(var_rule, App(Var("m"), P1)) == P1
    assert rule_match(name_rule, App(Var("m"), P1)) is None
    assert rule_match(name_rule, App(Defined("m"), P1)) == P1


def test_compiled_rule_cache_is_cleared_when_full():
    # K-shaped rules over distinct declared names: each compiles once
    def k_rule(i):
        return Rule(f"K{i}", App(App(Defined(f"C{i}"), PatVar("$x")), PatVar("$y")), PatVar("$x"))

    full = engine._COMPILED_MAX
    engine._COMPILED.clear()
    try:
        rules = [k_rule(i) for i in range(full + 1)]
        sizes = []
        for rule in rules:
            assert rule._fire is not None
            sizes.append(len(engine._COMPILED))
        assert sizes == list(range(1, full + 1)) + [1]
        # compiled before the clear: the rule keeps its function, and a new
        # rule of the same spelling compiles again
        subject = App(App(Defined("C0"), P1), P2)
        assert rule_match(rules[0], subject) == P1
        assert rule_match(k_rule(0), subject) == P1
        assert len(engine._COMPILED) == 2
    finally:
        engine._COMPILED.clear()


def test_lazy_slots_answer_for_their_own_names_only(core):
    # ``Rule``, ``TraceStep`` and ``RuleSet`` fill a slot on first read
    # through ``__getattr__``; any other missing name, such as the
    # ``__deepcopy__`` that ``copy`` looks up, must stay missing
    rule = hyp_rule("h", "P1 $x", "<$x, $x>")
    step = normalize(parse("Abst Abst x y z"), core).trace[0]
    for record in (rule, step, core_rules()):
        assert copy.deepcopy(record) == record
        assert not hasattr(record, "other")


def test_compiled_rule_replaces_variables_as_substitute_does():
    # ``substitute`` also replaces an object variable named like a bound pattern variable
    rule = Rule("odd", PatVar("x"), App(Var("x"), PatVar("x")))
    assert rule_match(rule, P1) == interpreted_match(rule, P1) == App(P1, P1)


def _nest(depth, t):
    for _ in range(depth):
        t = KWrap(t)
    return t


def test_deep_rule_compiles_and_fires():
    # ``==`` on these nests recurses, so they are compared by rendering
    depth = 2000
    rule = Rule("deep", _nest(depth, PatVar("$x")), _nest(depth, App(P1, PatVar("$x"))))
    assert render(rule_match(rule, _nest(depth, Var("a")))) == render(_nest(depth, parse("P1 a")))
    assert rule_match(rule, _nest(depth - 1, Var("a"))) is None
    ground = Rule("ground", _nest(depth, Var("a")), _nest(depth, Var("b")))
    assert rule_match(ground, _nest(depth, Var("a"))) is ground.rhs
    got = normalize(_nest(depth, Var("a")), RuleSet((ground,), EngineConfig()))
    assert render(got.result) == render(_nest(depth, Var("b"))) and len(got.trace) == 1


def test_deep_rule_code_grows_linearly_with_its_depth():
    # each child is loaded into a local once; spelling out its path from the root at every use grows quadratically
    def code_size(depth):
        rule = Rule("deep", _nest(depth, PatVar("$x")), _nest(depth, App(P1, PatVar("$x"))))
        return len(rule._fire.__code__.co_code)

    assert code_size(400) <= 2.5 * code_size(200)


@pytest.mark.parametrize("text, first, root_rule, result", [
    # the rewrite sits 3 levels below a root whose nonlinear left-hand side is 2 deep
    ("Eq <k(P1 <a,b>), k(a)>", (("argument", "pair-left", "k-body"), "P1-proj"), "Eq-refl", "P1"),
    ("<P1 k(k(x) y), P2 k(x)>", (("pair-left", "argument", "k-body"), "K"), "surjective-pairing",
     "k(x)"),
    ("<P1 (f (g (k(x) y))), P2 (f (g x))>", (("pair-left", "argument", "argument", "argument"), "K"),
     "surjective-pairing", "f (g x)"),
])
def test_deep_rewrite_makes_far_ancestor_a_redex(core, text, first, root_rule, result):
    got = normalize(parse(text), core)
    assert [(s.position, s.rule_name) for s in got.trace] == [first, ((), root_rule)]
    assert got.result == parse(result)
    assert got == reference_normalize(parse(text), core, core.config.fuel)


def test_a_root_that_changed_shape_is_rechecked_far_above_a_rewrite(core):
    # the first step makes the root an Eq application; the second, four levels down, makes it Eq-refl's redex
    text = "k(Eq) P2 <f (g (k(x) y)), f (g x)>"
    got = normalize(parse(text), core)
    assert [(format_position(s.position), s.rule_name) for s in got.trace] == [
        ("function", "K"), ("argument.pair-left.argument.argument", "K"), ("root", "Eq-refl")]
    assert got.result == P1
    assert got == reference_normalize(parse(text), core, core.config.fuel)


def pair_spine(n):
    """<P1,P2> x1 ... xn"""
    return app(Pair(P1, P2), *(Var(f"x{i}") for i in range(1, n + 1)))


def abst_tower(n):
    """Abst Abst ... Abst x1 x2 x3, with n copies of Abst"""
    return app(ABST, *[ABST] * (n - 1), *(Var(f"x{i}") for i in range(1, 4)))


def attempts_per_step(monkeypatch, rs, family, sizes):
    """Rule attempts per rewrite step in normalizing ``family(n)`` under ``rs``, for each n."""
    # counted as the benchmark's tracer counts them: through the module's rule_match
    calls = []
    original = engine.rule_match
    monkeypatch.setattr(engine, "rule_match", lambda rule, t: calls.append(1) or original(rule, t))
    per_step = []
    for n in sizes:
        calls.clear()
        got = normalize(family(n), rs)
        assert got.trace and not got.exhausted
        per_step.append(len(calls) / len(got.trace))
    return per_step


@pytest.mark.parametrize("family", [pair_spine, abst_tower])
def test_rule_attempts_per_step_do_not_grow_with_the_term(core, monkeypatch, family):
    per_step = attempts_per_step(monkeypatch, core, family, (100, 800))
    assert per_step[1] <= 2 * per_step[0], per_step


@pytest.mark.parametrize("family", [pair_spine, abst_tower])
def test_rule_attempts_per_step_do_not_grow_under_derived_rules(monkeypatch, family):
    # derived rules reach 1 to 3 deep; at n = 800 term ``==`` overflows the stack under this set
    per_step = attempts_per_step(monkeypatch, standard_context()[1], family, (25, 200))
    assert per_step[1] <= 2 * per_step[0], per_step


def test_a_leaf_that_a_rule_fits_is_rewritten(core):
    got = normalize(parse("F G"), core.extended([hyp_rule("G1", "G", "P1")]))
    assert [(s.position, s.rule_name) for s in got.trace] == [(("argument",), "G1")]
    assert got.result == parse("F P1")


@pytest.mark.parametrize("extra, registered", [
    pytest.param([], 39, id="core"),  # the applications only: no core left-hand side is an atom
    pytest.param([hyp_rule("Y", "y", "P2")], 79, id="variable-lhs"),  # every subterm
])
def test_normalize_registers_only_subterms_a_rule_can_fit(core, monkeypatch, extra, registered):
    rs = core.extended(extra)
    spine = app(*(Var(f"x{i}") for i in range(1, 41)))  # x1 ... x40, normal under both sets
    assert normalize(spine, rs) == NormalizeResult(spine, (), False)  # builds the index entries it needs
    calls = []
    original = engine.root_shape
    monkeypatch.setattr(engine, "root_shape", lambda t: calls.append(1) or original(t))
    normalize(spine, rs)
    assert len(calls) == registered


def test_candidates_keep_rule_order_and_wildcards(core):
    rs = core.extended([
        Rule("any", PatVar("$w"), PatVar("$w")),
        Rule("any-app", parse_pattern("$f $x"), parse_pattern("$x")),
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
    assert sum(lv.fresh is not None for lv in evidence.levels) == 2


def test_ext_equal_projections_unknown(core):
    assert not ext_equal(P1, P2, core).equal


def test_ext_equal_depth_zero_is_syntactic(core):
    shallow = core_rules(EngineConfig(ext_depth=0))
    assert ext_equal(parse("k(x) y"), Var("x"), shallow).equal
    assert not ext_equal(parse("Abst x"), parse("Abst (Abst (Abst x))"), shallow).equal


def test_evidence_replays(core):
    evidence = ext_equal(parse("Abst (Abst k(x))"), parse("k(x)"), core)
    assert evidence.equal
    final = evidence.levels[-1]
    assert final.left.result == final.right.result
    # every step of every level's trace validates against the rule set,
    # from the level's input: the previous level's results applied to its fresh variable
    by_name = {r.name: r for r in core.rules}
    inputs = (parse("Abst (Abst k(x))"), parse("k(x)"))
    for level in evidence.levels:
        if level.fresh is not None:
            inputs = tuple(App(t, Var(level.fresh)) for t in inputs)
        for current, side in zip(inputs, (level.left, level.right)):
            for step in side.trace:
                current = interpreted_rewrite_at(current, step.position, by_name[step.rule_name])
                assert current == step.after
            assert current == side.result
        inputs = (level.left.result, level.right.result)


def test_fixed_point_refuter_shape(core):
    for text in ("P1", "k(Eq)", "<Abst, P2>"):
        t = parse(text)
        got = normalize(App(parse("<Eq, k(P2)>"), t), core).result
        assert isinstance(got, Pair) and got.right == P2
        assert isinstance(got.left, App) and got.left.fn.name == "Eq"


# ---------------------------------------------------------------------------
# derived-rule registration
# ---------------------------------------------------------------------------

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
