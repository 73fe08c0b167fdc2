from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trc.corpus import BASE_DEFINITIONS
from trc.engine import core_rules, rewrite_at
from trc.kernel import (
    ApplicationStep, CheckReport, Equal, NormalizeStep, NotEqual, ProofScript,
    Registry, RegistryError, TheoremStep, check_script, record_for,
)
from trc.scriptfile import parse_scripts
from trc.terms import P1, P2, ParseError, Var, parse, render, subterms

from test_engine import interpreted_rewrite_at, redex_rich


def check_text(text, registry, rules):
    (script,) = parse_scripts(text)
    return check_script(script, registry, rules, BASE_DEFINITIONS)


# ---------------------------------------------------------------------------
# script parsing
# ---------------------------------------------------------------------------

def test_parse_script_shape():
    (script,) = parse_scripts('''
        theorem demo "doubling is self-application" {
          hypothesis M : M $x = $x $x
          prove false
          let t := M M
          have e : t = M M by chain [t, M M]
          qed by theorem 2.6 with M := M
        }
    ''')
    assert script.theorem_id == "demo"
    assert script.hypothesis.constants == ("M",)
    assert script.lets[0][0] == "t"
    # let-bound names are declared constants even when lowercase
    assert script.lets[0][1] == parse("M M")
    assert render(script.body[0].terms[0]) == "t"


def test_parse_script_rejects_garbage():
    with pytest.raises(ParseError):
        parse_scripts('theorem x "t" { prove false qed }')
    with pytest.raises(ParseError):
        parse_scripts("")


def test_hypothesis_lhs_must_be_headed_by_constant():
    from trc.kernel import ScriptError
    with pytest.raises(ScriptError):
        parse_scripts('''
            theorem bad "x" {
              hypothesis M : $x M = $x
              prove false
              qed by theorem VIII
            }
        ''')


# ---------------------------------------------------------------------------
# step kinds
# ---------------------------------------------------------------------------

def test_chain_expansion_trick(core, registry):
    # the projection-of-application proof needs a right-to-left rule use
    report = check_text('''
        theorem exp "expansion" {
          prove P1 x y = P1 (x y)
          qed by chain [P1 x y, P1 <P1 x y, P2 x y>, P1 (<P1 x, P2 x> y), P1 (x y)]
        }
    ''', registry, core)
    assert report.ok


def test_chain_rejects_unrelated_links(core, registry):
    report = check_text('''
        theorem bad "gap" {
          prove P1 x y = P1 (x y)
          qed by chain [P1 x y, P1 (x y)]
        }
    ''', registry, core)
    assert not report.ok
    assert "no single rule" in report.reason


def test_chain_endpoints_must_match(core, registry):
    report = check_text('''
        theorem bad "endpoints" {
          prove k(x) y = x
          qed by chain [k(x) z, x]
        }
    ''', registry, core)
    assert not report.ok


def test_chain_link_rewriting_above_the_differing_position(core, registry):
    # the terms differ only under the argument, but P1-proj fires at the root
    # (used right to left here, an expansion step)
    report = check_text('''
        theorem up "expansion above the lowest differing position" {
          prove P1 c = P1 <P1 c, d>
          qed by chain [P1 c, P1 <P1 c, d>]
        }
    ''', registry, core)
    assert report.ok
    report = check_text('''
        theorem bad "no projection gives P1 c" {
          prove P1 c = P1 <P1 d, d>
          qed by chain [P1 c, P1 <P1 d, d>]
        }
    ''', registry, core)
    assert not report.ok


def test_chain_link_from_a_term_to_itself(core, registry):
    # the fact u = u rewrites u to itself inside k(u) w
    report = check_text('''
        theorem same "a link from a term to itself" {
          prove k(u) w = k(u) w
          have h : u = u by normalize
          qed by chain [k(u) w, k(u) w]
        }
    ''', registry, core)
    assert report.ok
    # no rule rewrites k(u) w to itself without that fact
    report = check_text('''
        theorem bare "no rule instance is the identity here" {
          prove k(u) w = k(u) w
          qed by chain [k(u) w, k(u) w]
        }
    ''', registry, core)
    assert not report.ok
    assert "no single rule" in report.reason


@pytest.mark.parametrize("left, right, ok", [
    ("<P1 a, P2 a>", "a", True),
    ("<P1 a, P2 b>", "a", False),
    ("Eq <a,a>", "P1", True),
    ("Eq <a,b>", "P1", False),
])
def test_chain_link_through_a_nonlinear_rule(core, registry, left, right, ok):
    report = check_text(f'''
        theorem nonlinear "one link through a nonlinear rule" {{
          prove {left} = {right}
          qed by chain [{left}, {right}]
        }}
    ''', registry, core)
    assert report.ok == ok
    if not ok:
        assert "no single rule" in report.reason


def reference_link(a, b, rules):
    """Whether one rule rewrites a to b, or b to a, at any one position,
    found by interpreting every rule at every position."""
    return any(
        interpreted_rewrite_at(x, pos, rule) == y
        for x, y in ((a, b), (b, a))
        for rule in rules.rules
        for pos, _ in subterms(x)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), a=redex_rich)
def test_chain_link_verdict_matches_reference(registry, data, a):
    rules = core_rules()
    rewrites = [
        got for pos, _ in subterms(a) for rule in rules.rules
        if (got := rewrite_at(a, pos, rule)) is not None
    ]
    b = data.draw(st.one_of(
        st.sampled_from(rewrites) if rewrites else st.nothing(),
        st.just(a),
        redex_rich,
    ))
    if data.draw(st.booleans()):
        a, b = b, a
    report = check_text(f'''
        theorem link "one chain link" {{
          prove {render(a)} = {render(b)}
          qed by chain [{render(a)}, {render(b)}]
        }}
    ''', registry, rules)
    assert report.ok == reference_link(a, b, rules)


def test_normalize_step(core, registry):
    report = check_text('''
        theorem norm "normalization" {
          prove Abst Abst x y z = y (x y z)
          qed by normalize
        }
    ''', registry, core)
    assert report.ok


def test_ext_step_arity(core, registry):
    ok = check_text('''
        theorem e2 "triple collapse" {
          prove Abst (Abst (Abst x)) = Abst x
          qed by ext 2
        }
    ''', registry, core)
    assert ok.ok
    short = check_text('''
        theorem e1 "triple collapse, too shallow" {
          prove Abst (Abst (Abst x)) = Abst x
          qed by ext 1
        }
    ''', registry, core)
    assert not short.ok


def test_cases_classicality(core, registry):
    # identical scrutinees: branch one plus the auto-fact suffices
    report = check_text('''
        theorem refl "equality test is reflexive" {
          prove Eq <x, x> = P1
          qed by cases Eq <x, x> as (c, d) {
            p1 => { qed by c }
          }
        }
    ''', registry, core)
    assert report.ok


def test_cases_requires_second_branch_for_distinct_terms(core, registry):
    report = check_text('''
        theorem half "missing branch" {
          prove Eq <x, y> = Eq <x, y>
          qed by cases Eq <x, y> as (c, d) {
            p1 => { qed by chain [Eq <x, y>] }
          }
        }
    ''', registry, core)
    assert not report.ok
    assert "both branches" in report.reason


def test_k_injection_positive(core, registry):
    report = check_text('''
        theorem inj "distinct constants stay distinct under k" {
          prove k(P1) != k(P2)
          qed by contradiction as h {
            have j : P1 = P2 by k-injection h
            have v : P1 != P2 by theorem VIII
            qed by contradiction j v
          }
        }
    ''', registry, core)
    assert report.ok


def test_k_injection_requires_k_wrapped_fact(core, registry):
    report = check_text('''
        theorem inj2 "k-injection guards its source" {
          prove P1 != P2
          qed by contradiction as h {
            have j : P1 = P2 by k-injection h
            have v : P1 != P2 by theorem VIII
            qed by contradiction j v
          }
        }
    ''', registry, core)
    assert not report.ok
    assert "k-wrapped" in report.reason


def test_application_step(core, registry):
    script = ProofScript(
        "appneq", "k(P1) and k(P2) differ", None,
        NotEqual(parse("k(P1)"), parse("k(P2)")),
        lets=(),
        body=(
            NormalizeStep("a", Equal(parse("k(P1) z"), P1)),
            NormalizeStep("b", Equal(parse("k(P2) z"), P2)),
            TheoremStep("w", NotEqual(P1, P2), "VIII", ()),
            ApplicationStep("goal", NotEqual(parse("k(P1)"), parse("k(P2)")),
                            (Var("z"),), "a", "b", "w"),
        ),
    )
    report = check_script(script, registry, core, BASE_DEFINITIONS)
    assert report.ok


def test_application_step_rejects_wrong_args(core, registry):
    script = ProofScript(
        "appneq2", "bad application facts", None,
        NotEqual(parse("k(P1)"), parse("k(P2)")),
        lets=(),
        body=(
            NormalizeStep("a", Equal(parse("k(P1) u"), P1)),
            NormalizeStep("b", Equal(parse("k(P2) z"), P2)),
            TheoremStep("w", NotEqual(P1, P2), "VIII", ()),
            ApplicationStep("goal", NotEqual(parse("k(P1)"), parse("k(P2)")),
                            (Var("z"),), "a", "b", "w"),
        ),
    )
    assert not check_script(script, registry, core, BASE_DEFINITIONS).ok


def test_contradiction_and_falsum(core, registry):
    report = check_text('''
        theorem neq "constant functions at distinct constants differ" {
          prove k(P1) x != k(P2) x
          qed by contradiction as h {
            have e : P1 = P2 by chain [P1, k(P1) x, k(P2) x, P2]
            have v : P1 != P2 by theorem VIII
            qed by contradiction e v
          }
        }
    ''', registry, core)
    assert report.ok


def test_statement_forms_are_guarded(core, registry):
    (script,) = parse_scripts('''
        theorem bad "false without hypotheses" {
          prove false
          qed by theorem VIII
        }
    ''')
    report = check_script(script, registry, core, BASE_DEFINITIONS)
    assert not report.ok
    assert "hypotheses" in report.reason


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def test_instantiate_axiom_viii(registry):
    assert registry.instantiate("VIII", {}) == NotEqual(P1, P2)


def test_instantiate_2_4c_at_self_application(registry):
    got = registry.instantiate("2.4c", {"x": parse("x x")})
    assert got == NotEqual(parse("<Eq (x x), P2>"), parse("x x"))


def test_instantiate_2_4a(registry):
    got = registry.instantiate("2.4a", {"x": Var("s")})
    assert got == NotEqual(parse("Eq <s, P2>"), Var("s"))


def test_instantiate_rejects_stray_variables(registry):
    with pytest.raises(RegistryError):
        registry.instantiate("2.4a", {"zz": P1})


def test_registry_dependency_order():
    fresh = Registry()
    (script,) = parse_scripts('''
        theorem t1 "triple" { prove Abst (Abst (Abst x)) = Abst x qed by ext 2 }
    ''')
    from trc.engine import core_rules
    report = check_script(script, fresh, core_rules(), BASE_DEFINITIONS)
    assert report.ok
    with pytest.raises(RegistryError):
        fresh.register(record_for(script, ("nonexistent",)), report)
    fresh.register(record_for(script, ()), report)
    assert "t1" in fresh


def test_registry_id_conflict(registry):
    (script,) = parse_scripts('''
        theorem 2.4a "an imposter" { prove P1 x = P1 x qed by chain [P1 x, P1 x] }
    ''')
    report = CheckReport("2.4a", True)
    with pytest.raises(RegistryError):
        registry.snapshot().register(record_for(script, ()), report)


def test_registry_rejects_failing_report(registry):
    (script,) = parse_scripts('''
        theorem nope "unproved" { prove P1 x = P2 x qed by chain [P1 x, P2 x] }
    ''')
    report = CheckReport("nope", False, 1, "no")
    with pytest.raises(RegistryError):
        registry.snapshot().register(record_for(script, ()), report)


# ---------------------------------------------------------------------------
# corpus-script behaviors pinned by example
# ---------------------------------------------------------------------------

def test_corrupted_self_application_script_fails_at_falsum(core, registry, corpus_report):
    # mismatched pair in the closing contradiction is rejected there
    context_registry, context_rules = corpus_report.contexts["2.6"]
    report = check_text('''
        theorem 2.6x "corrupted closing step" {
          hypothesis M : M $x = $x $x
          prove false
          let t := Abst k(Eq) <M, k(P2)>
          let s := t t
          have e : s = Eq <s, P2> by chain [s, t t, Abst k(Eq) <M, k(P2)> t, Eq (<M, k(P2)> t), Eq <M t, P2>, Eq <t t, P2>, Eq <s, P2>]
          have v : P1 != P2 by theorem VIII
          qed by contradiction e v
        }
    ''', context_registry, context_rules)
    assert not report.ok
    assert "same pair of terms" in report.reason


def test_hypothesis_fires_only_on_matching_shape(core, registry):
    # the guarded-argument hypothesis u k(x) = x k(x) must not fire on u P1
    report = check_text('''
        theorem guard "hypothesis shape guard" {
          hypothesis U0 : U0 k($x) = $x k($x)
          prove false
          have e : U0 P1 = P1 k(P1) by normalize
          qed by theorem VIII
        }
    ''', registry, core)
    assert not report.ok
    assert "normal forms differ" in report.reason


def test_refutation_replay_of_transposition(corpus_report):
    # replaying the J reduction: J I I x y = y x, then the T refutation applies
    context_registry, context_rules = corpus_report.contexts["3-J"]
    report = check_text('''
        theorem demo-J "J builds the transposition" {
          hypothesis J : J $x $y $z $w = $x $y ($x $w $z)
          prove false
          have f : J I I x y = y x by normalize
          qed by theorem 3-T with T := J I I
        }
    ''', context_registry, context_rules)
    assert report.ok
