from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trc.corpus import BASE_DEFINITIONS
from trc.engine import Rule, RuleError, core_rules, normalize
from trc.kernel import (
    FALSUM, ApplicationStep, CasesStep, ChainStep, CheckReport, ContradictionStep,
    Equal, ExtStep, FalsumStep, HypEquation, Hypothesis, KInjectStep, NormalizeStep, NotEqual,
    ProofScript, RefStep, Registry, RegistryError, ScriptError, Step, TheoremRecord, TheoremStep,
    _Checker, check_script, judgment_vars, map_terms, record_for,
)
from trc.scriptfile import parse_scripts
from trc.terms import (
    ABST, EQ, P1, P2, App, Defined, KWrap, Pair, ParseError, PatVar, Var,
    free_vars, parse, parse_pattern, render, substitute, subterms,
)

from oracles import (
    interpreted_rewrite_at, justifications, redex_rich, reference_link, term_trees, two_pass_canonical,
)


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


@pytest.mark.parametrize("tail, error", [
    # the error points at the block's first let, not at the brace after the block
    ("    qed by chain [a]\n  }\n}\n", "5:5: let is only allowed at theorem top level"),
    ("    qed by chain [a]\n}\n", "5:5: let is only allowed at theorem top level"),
    # a fault later in the block still comes first
    ("    qed by chain [a\n  }\n}\n", "8:3: got '}' (expected one of: ])"),
])
def test_a_let_in_an_inner_block_is_placed_at_the_let(tail, error):
    text = ('theorem t "t" {\n  prove a != b\n  qed by contradiction as h {\n'
            '    have e : a = a by chain [a]\n    let c := a\n    let d := b\n' + tail)
    with pytest.raises(ParseError) as err:
        parse_scripts(text)
    assert str(err.value) == error


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


# One script shape holding every justification source: the core rules, the
# hypothesis equation of M, the definition I and the let-bound t, and the
# equalities in scope of a contradiction assumption or of a cases branch.
LINK_HYPOTHESIS = Hypothesis(("M",), (HypEquation("M", parse_pattern("M $x"), parse_pattern("$x $x")),))
LINK_DEFS = {**BASE_DEFINITIONS, "t": Pair(P2, P1)}

link_terms = term_trees(
    st.builds(Var, st.sampled_from(["x", "y"])),
    st.sampled_from([ABST, EQ, P1, P2, Defined("I"), Defined("t"), Defined("M")]),
    max_leaves=12,
    extra=lambda sub: (st.builds(App, st.just(Defined("M")), sub),),
)

def link_facts(scope, left, right):
    """The equalities in scope of the link, one list per branch it runs in."""
    if scope == "contradiction":
        return [[("H", Equal(left, right))]]
    if scope == "cases":
        eq = App(EQ, Pair(left, right))
        return [[("C", Equal(eq, P1)), ("D", Equal(left, right))], [("C", Equal(eq, P2))]]
    return [[]]


def link_script(a, b, scope, left, right):
    """A refutation script whose step ``link`` is the chain link a = b, run
    in a scope of the kind ``scope``.  The script fails at that step, or
    later: its blocks never conclude their goals."""
    link = ChainStep("link", Equal(a, b), (a, b))
    if scope == "contradiction":
        body = (ContradictionStep("outer", NotEqual(left, right), "H", (link,)),)
    elif scope == "cases":
        body = (CasesStep("outer", Equal(a, b), left, right, "C", "D", (link,), (link,)),)
    else:
        body = (link,)
    return ProofScript("link", "one chain link", LINK_HYPOTHESIS, FALSUM, (("t", LINK_DEFS["t"]),), body)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), a=st.one_of(link_terms, redex_rich),
       scope=st.sampled_from(["none", "contradiction", "cases"]))
def test_chain_link_verdict_matches_reference(registry, data, a, scope):
    rules = core_rules()
    (hyp,) = LINK_HYPOTHESIS.equations
    with_hyp = rules.extended([Rule("hypothesis:M.0", hyp.lhs, hyp.rhs)])
    # a fact about a subterm of a, so facts fire
    left = data.draw(st.one_of(st.sampled_from([sub for _, sub in subterms(a)]), link_terms))
    right = data.draw(link_terms)
    fact_sets = link_facts(scope, left, right)
    # the one-step rewrites of a by each kind of justification, so that
    # rare kinds (definitions, facts, the hypothesis) are drawn as often as rules
    rewrites: dict[str, list] = {}
    candidates = justifications(with_hyp, LINK_DEFS, [fact for facts in fact_sets for fact in facts])
    for pos, _ in subterms(a):
        for rule in candidates:
            got = interpreted_rewrite_at(a, pos, rule)
            if got is not None:
                rewrites.setdefault(rule.name.split(":")[0], []).append(got)
    b = data.draw(st.one_of(
        st.sampled_from(sorted(rewrites)).flatmap(lambda kind: st.sampled_from(rewrites[kind]))
        if rewrites else st.nothing(),
        st.just(a),
        link_terms,
    ))
    if data.draw(st.booleans()):
        a, b = b, a
    report = check_script(link_script(a, b, scope, left, right), registry, rules, BASE_DEFINITIONS)
    accepted = "(link): no single rule instance" not in report.reason
    assert accepted == all(reference_link(a, b, with_hyp, LINK_DEFS, facts) for facts in fact_sets)


def test_a_fact_holding_a_pattern_variable_is_matched_literally(core, registry):
    # a hand-built fact $x = P1 would rewrite any term to P1 if matched as a
    # schema; the kernel compares facts with the link literally
    def script(a):
        link = ChainStep("l", Equal(a, P1), (a, P1))
        goal = NotEqual(PatVar("$x"), P1)
        return ProofScript("literal", "a fact with a pattern variable", None, goal, (),
                           (ContradictionStep("c", goal, "H", (link,)),))
    report = check_script(script(Var("u")), registry, core, BASE_DEFINITIONS)
    assert "(l): no single rule instance" in report.reason
    report = check_script(script(PatVar("$x")), registry, core, BASE_DEFINITIONS)
    assert "(l): no single rule instance" not in report.reason
    assert "block concludes" in report.reason


def test_a_rule_set_extends_by_a_hypothesis_once(core):
    built = []

    def rules():
        built.append(1)
        return LINK_HYPOTHESIS.rules()

    one = core.extended_once(LINK_HYPOTHESIS, rules)
    assert [r.name for r in one.rules[len(core.rules):]] == ["hypothesis:M.0"]
    # an equal hypothesis built apart is the same key
    equal = Hypothesis(("M",), (HypEquation("M", parse_pattern("M $x"), parse_pattern("$x $x")),))
    assert core.extended_once(equal, rules) is one
    assert len(built) == 1
    other = Hypothesis(("M",), (HypEquation("M", parse_pattern("M $x"), parse_pattern("$x")),))
    assert core.extended_once(other, other.rules).rules[-1].rhs == parse_pattern("$x")
    # another rule set, equal or not, keeps its own
    assert core_rules().extended_once(LINK_HYPOTHESIS, rules) is not one
    assert len(built) == 2


def test_checks_under_one_hypothesis_share_its_rule_set(core, registry, monkeypatch):
    calls = []
    rules = Hypothesis.rules
    monkeypatch.setattr(Hypothesis, "rules", lambda self: calls.append(self) or rules(self))
    script = link_script(Defined("t"), Pair(P2, P1), "none", P1, P2)
    for _ in range(3):
        assert "block concludes" in check_script(script, registry, core, BASE_DEFINITIONS).reason
    assert len(calls) == 1


def test_an_extended_rule_set_dies_with_its_base():
    base = core_rules()
    extended = weakref.ref(base.extended_once(LINK_HYPOTHESIS, LINK_HYPOTHESIS.rules))
    gc.collect()
    assert extended() is not None
    del base
    gc.collect()
    assert extended() is None


@pytest.mark.parametrize("text", [
    'theorem g "goal" { prove $x = P1 qed by normalize }',
    'theorem g "chain term" { prove P1 = P1 qed by chain [P1, $x, P1] }',
    'theorem g "instantiation" { prove P1 = P1 have e : P1 = P1 by theorem 2.4a with x := $x qed by e }',
])
def test_goals_chain_terms_and_instantiations_are_ground(text):
    # facts are built from these, which is what lets the kernel compare a
    # fact with a link literally
    with pytest.raises(ParseError, match="pattern variables"):
        parse_scripts(text)


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


def test_ext_arguments_skip_the_free_names_of_the_sides(core, registry):
    report = check_text('theorem e3 "fresh names" { prove v0 = v2 qed by ext 3 }', registry, core)
    assert report.reason == "step 1 (_qed1): applied normal forms differ: v0 v1 v3 v4 vs v2 v1 v3 v4"


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
    report = check_script(script, registry, core, BASE_DEFINITIONS)
    assert report.reason == "step 4 (goal): application facts do not apply the stated sides to the arguments"


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
# malformed scripts and rejected steps
# ---------------------------------------------------------------------------

def theorem_text(goal, body, hypothesis=""):
    return f'theorem a "t" {{ {hypothesis} prove {goal} {body} }}'


@pytest.mark.parametrize("goal, body, error", [
    ("X = X", "qed by chain [X]", "a: undeclared names ['X']"),
    ("k(P1) != k(P2)",
     "qed by contradiction as h { have e : X = X by chain [X] qed by contradiction h e }",
     "a: undeclared names ['X']"),
    ("a = a", "let t := X qed by chain [a]", "let t uses undeclared names ['X']"),
    ("a = a", "let I := P1 qed by chain [a]", "let I shadows an existing definition"),
    ("a = a", "have e : a = a by chain [a] have e : b = b by chain [b] qed by e",
     "duplicate label 'e'"),
])
def test_malformed_scripts_raise(core, registry, goal, body, error):
    with pytest.raises(ScriptError) as info:
        check_text(theorem_text(goal, body), registry, core)
    assert str(info.value) == error


# facts for an application step proving k(P1) != k(P2)
APPLIED = "have l : k(P1) z = P1 by normalize have r : k(P2) z = P2 by normalize "


@pytest.mark.parametrize("goal, body, line", [
    ("a = a", "qed by h", "FAIL 1 step 1 (_qed1): unknown label 'h'"),
    ("a = a", "have h : b = b by chain [b] qed by h", "FAIL 2 step 2 (_qed1): h states b = b, not a = a"),
    ("a != b", "qed by chain [a, b]", "FAIL 1 step 1 (_qed1): chain proves equalities only"),
    ("a != b", "qed by normalize", "FAIL 1 step 1 (_qed1): normalize proves equalities only"),
    ("a != b", "qed by ext 1", "FAIL 1 step 1 (_qed1): ext proves equalities only"),
    ("a = a", "qed by ext 0", "FAIL 1 step 1 (_qed1): ext arity must be >= 1"),
    ("a = a", "qed by theorem nope", "FAIL 1 step 1 (_qed1): unknown theorem 'nope'"),
    ("P1 != P2", "qed by theorem VIII with q := a",
     "FAIL 1 step 1 (_qed1): substitution binds variables ['q'] not free in VIII"),
    ("a = a", "qed by theorem 2.6 with M := a", "FAIL 1 step 1 (_qed1): 2.6 is a refutation; it concludes false"),
    ("a = a", "qed by contradiction as h { qed by h }",
     "FAIL 1 step 1 (_qed1): contradiction blocks prove disequalities"),
    ("k(P1) != k(P2)", "qed by contradiction as h { have e : a = a by chain [a] qed by contradiction h e }",
     "FAIL 3 step 1 (_qed1): step 3 (_qed2): falsum needs an equality and a disequality"),
    ("k(P1) z = P1", "have l : k(P1) z = P1 by normalize fuel 0 qed by l",
     "FAIL 1 step 1 (l): normalize fuel must be >= 1"),
    ("k(k(P1) x) y = P1", "have l : k(k(P1) x) y = P1 by normalize fuel 1 qed by l",
     "FAIL 1 step 1 (l): normalization exhausted its fuel"),
    ("a = a", "qed by application [z] (l, r, w)", "FAIL 1 step 1 (_qed1): application proves disequalities"),
    ("k(P1) != k(P2)", APPLIED + "qed by application [z] (r, l, r)",
     "FAIL 3 step 3 (_qed1): application needs two equalities and a disequality"),
    ("k(P1) != k(P2)", APPLIED + "have w : P1 != P2 by theorem VIII qed by application [z] (w, l, w)",
     "FAIL 4 step 4 (_qed1): application needs two equalities and a disequality"),
    ("k(P1) != k(P2)",
     "have l : k(P1) z = k(P1) z by chain [k(P1) z] have r : k(P2) z = k(P2) z by chain [k(P2) z] "
     "have w : P1 != P2 by theorem VIII qed by application [z] (l, r, w)",
     "FAIL 4 step 4 (_qed1): the disequality is not about the two application results"),
    # contradiction EQ NEQ proves false, and a step proves only what it states
    ("a = a", "qed by cases Eq <P1, P2> as (C, D) { p1 => { have v : P1 != P2 by theorem VIII"
     " have z : a = b by contradiction D v qed by chain [a] } p2 => { qed by chain [a] } }",
     "FAIL 3 step 1 (_qed1): step 3 (z): contradiction EQ NEQ proves false only"),
])
def test_a_rejected_step_is_named_with_its_reason(core, registry, goal, body, line):
    assert check_text(theorem_text(goal, body), registry, core).line() == "THEOREM a " + line


@pytest.mark.parametrize("hypothesis, goal, body, line", [
    ("hypothesis M : M $x = $x $x", "false", "qed by theorem 2.6",
     "FAIL 1 step 1 (_qed1): instantiation must bind hypothesized constants ['M']"),
    ("hypothesis M : M $x = $x $x", "a = a", "qed by chain [a]",
     "FAIL 0 scripts with hypotheses must prove false"),
])
def test_a_rejected_refutation_is_named_with_its_reason(core, registry, hypothesis, goal, body, line):
    assert check_text(theorem_text(goal, body, hypothesis), registry, core).line() == "THEOREM a " + line


@pytest.mark.parametrize("body, line", [
    ("qed by cases Eq <a, b> as (C, D) { p1 => { qed by chain [a] } }",
     "FAIL 1 step 1 (_qed1): cases over distinct terms needs both branches"),
    ("qed by cases Eq <P1, P2> as (C, D) { p1 => { have v : P1 != P2 by theorem VIII"
     " qed by contradiction D v } p2 => { qed by chain [a] } }",
     "FAIL 3 step 1 (_qed1): step 3 (_qed2): contradiction EQ NEQ proves false only"),
])
def test_failed_step_is_the_step_its_reason_names(core, registry, body, line):
    assert check_text(theorem_text("a = a", body), registry, core).line() == "THEOREM a " + line


@pytest.mark.parametrize("goal, body, outcome", [
    # a branch may reuse an outer label, and reads its own fact under it
    ("a = a", "have e : b = b by chain [b] qed by cases Eq <a, a> as (C, D) {"
     " p1 => { have e : a = a by chain [a] qed by e } }", "THEOREM a PASS"),
    # after the block the outer fact is read again
    ("a = a", "have e : a = a by chain [a] have f : b = b by cases Eq <b, b> as (C, D) {"
     " p1 => { have e : b = b by chain [b] qed by e } } qed by e", "THEOREM a PASS"),
    # a fact of one branch is not read in the other
    ("a = a", "qed by cases Eq <a, b> as (C, D) { p1 => { have e : a = a by chain [a] qed by e }"
     " p2 => { qed by e } }", "THEOREM a FAIL 4 step 1 (_qed1): step 4 (_qed3): unknown label 'e'"),
    # one scope adds a label at most once
    ("a = a", "qed by cases Eq <a, a> as (C, C) { p1 => { qed by chain [a] } }",
     "ScriptError: duplicate label 'C'"),
    ("k(P1) != k(P2)", "qed by contradiction as h { have h : a = a by chain [a] qed by h }",
     "ScriptError: duplicate label 'h'"),
])
def test_labels_are_scoped_to_their_block(core, registry, goal, body, outcome):
    try:
        got = check_text(theorem_text(goal, body), registry, core).line()
    except ScriptError as exc:
        got = f"ScriptError: {exc}"
    assert got == outcome


def test_a_block_that_concludes_another_goal_fails_at_its_step(core, registry):
    # a parsed block always ends in a qed stating its goal; a built one need
    # not.  The failure is the cases step's own, not that of the last step
    # its branch ran
    a, b = Var("a"), Var("b")
    branch = (ChainStep("s", Equal(b, b), (b,)),)
    script = ProofScript("a", "a branch proving another goal", None, Equal(a, a), (),
                         (CasesStep("_qed1", Equal(a, a), a, a, "C", "D", branch, None),))
    report = check_script(script, registry, core, BASE_DEFINITIONS)
    assert report.line() == "THEOREM a FAIL 1 step 1 (_qed1): block concludes b = b but its goal is a = a"


A, B = Var("a"), Var("b")


@pytest.mark.parametrize("body, message", [
    # library-only fallbacks: the script parser builds none of these
    ((Step("s", Equal(A, A)),), "ScriptError: unknown step Step("),
    ((), "ScriptError: empty proof block"),
    ((ContradictionStep("c", NotEqual(A, B), "h", ()),), "ScriptError: empty proof block"),
    ((ChainStep("c", Equal(A, A), ()),), "step 1 (c): chain needs at least one term"),
])
def test_library_only_fallbacks(core, registry, body, message):
    goal = body[0].goal if body else Equal(A, A)
    script = ProofScript("lib", "built by a library caller", None, goal, (), body)
    try:
        got = check_script(script, registry, core, BASE_DEFINITIONS).reason
    except ScriptError as exc:
        got = f"ScriptError: {exc}"
    assert got.startswith(message)


def test_application_needs_an_argument(core, registry):
    # the script syntax cannot spell an empty argument list
    script = ProofScript(
        "appneq0", "no arguments", None, NotEqual(parse("k(P1)"), parse("k(P2)")), lets=(),
        body=(ApplicationStep("goal", NotEqual(parse("k(P1)"), parse("k(P2)")), (), "a", "b", "w"),),
    )
    report = check_script(script, registry, core, BASE_DEFINITIONS)
    assert report.reason == "step 1 (goal): application needs at least one argument"


@pytest.mark.parametrize("goal, body", [
    ("k(P1) != k(P2)", APPLIED + "have w : P1 != P2 by theorem VIII qed by application [z] (l, r, w)"),
    # the disequality may state the two results in either order
    ("k(P1) != k(P2)", APPLIED + "have w : P2 != P1 by contradiction as h {"
     " have e : P1 = P2 by chain [P1, P2] have v : P1 != P2 by theorem VIII qed by contradiction e v }"
     " qed by application [z] (l, r, w)"),
    ("k(P1) z = P1", "have l : k(P1) z = P1 by normalize fuel 1 qed by l"),
    ("Abst k(P1) k(P2) = k(P1 P2)", "qed by theorem 2.1e with x := P1, y := P2"),
])
def test_script_syntax_checks_end_to_end(core, registry, goal, body):
    report = check_text(theorem_text(goal, body), registry, core)
    assert report.ok, report.line()


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


def test_instantiate_rejects_a_refutation(registry):
    with pytest.raises(RegistryError, match="2.6 is a refutation; it has no instantiable statement"):
        registry.instantiate("2.6", {})


def registered(theorem_id, statement):
    """A fresh registry holding ``statement`` under ``theorem_id``."""
    fresh = Registry()
    fresh.register(TheoremRecord(theorem_id, statement, None), CheckReport(theorem_id))
    return fresh


def test_instantiate_a_hypothesis_free_falsum():
    # no script registers such a record, so only a library caller reaches
    # the Falsum case of judgment_vars: false has no variables to bind
    fresh = registered("bottom", FALSUM)
    assert fresh.instantiate("bottom", {}) == FALSUM
    with pytest.raises(RegistryError, match=r"binds variables \['x'\] not free in bottom"):
        fresh.instantiate("bottom", {"x": P1})


def test_derived_rule_rewrites_by_the_registered_equality(core):
    rs = registered("2.2c.1", Equal(parse("P1 x y"), parse("P1 (x y)"))).derived_rule(core, "2.2c.1")
    rule = rs.rules[-1]
    assert (rule.name, rule.lhs, rule.rhs) == ("2.2c.1", parse_pattern("P1 $x $y"), parse_pattern("P1 ($x $y)"))
    assert normalize(parse("P1 k(x) z"), rs).result == parse("P1 x")


def test_derived_rule_is_named_for_its_theorem(core):
    rs = registered("2.1e", Equal(parse("Abst k(x) k(y)"), parse("k(x y)"))).derived_rule(core, "2.1e")
    assert [r.name for r in rs.rules[len(core.rules):]] == ["2.1e"]


def test_derived_rule_refuses_a_statement_that_is_not_an_equality(core):
    with pytest.raises(RuleError, match="not an equality"):
        registered("2.4a", NotEqual(parse("Eq <x, P2>"), Var("x"))).derived_rule(core, "2.4a")
    with pytest.raises(RegistryError):
        Registry().derived_rule(core, "2.1e")


def test_registry_registers_a_checked_script(core):
    fresh = Registry()
    (script,) = parse_scripts('''
        theorem t1 "triple" { prove Abst (Abst (Abst x)) = Abst x qed by ext 2 }
    ''')
    report = check_script(script, fresh, core, BASE_DEFINITIONS)
    assert report.ok
    fresh.register(record_for(script), report)
    assert "t1" in fresh


def test_registry_id_conflict(registry):
    (script,) = parse_scripts('''
        theorem 2.4a "an imposter" { prove P1 x = P1 x qed by chain [P1 x, P1 x] }
    ''')
    report = CheckReport("2.4a")
    with pytest.raises(RegistryError):
        registry.snapshot().register(record_for(script), report)
    # the same statement again is a no-op: the first record stays
    copy = registry.snapshot()
    first = copy.get("2.4a")
    copy.register(TheoremRecord("2.4a", first.statement, first.hypothesis), report)
    assert copy.get("2.4a") is first and copy.ids() == registry.ids()


def test_registry_rejects_failing_report(registry):
    (script,) = parse_scripts('''
        theorem nope "unproved" { prove P1 x = P2 x qed by chain [P1 x, P2 x] }
    ''')
    # a report passes exactly when it names no failed step, step 0 included
    for report in (CheckReport("nope", 1, "no"), CheckReport("nope", 0)):
        assert not report.ok
        with pytest.raises(RegistryError, match="report is not a pass for it"):
            registry.snapshot().register(record_for(script), report)


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


# ---------------------------------------------------------------------------
# generalization: a fact is universal except in its fixed variables
# ---------------------------------------------------------------------------

# Each script proves a false disequality by discharging 2.6's hypothesis
# M $x = $x $x with a fact that holds only for particular values: one
# instance whose variable shares the name of a pattern variable's
# placeholder, a variable fixed by a contradiction, by a cases branch, or by
# a contradiction whose assumption mentions it only through a let.
UNSOUND = {
    "bad": '''theorem bad "P1 differs from itself" {
      prove P1 != P1
      have e : k(x_inst x_inst) x_inst = x_inst x_inst by chain [k(x_inst x_inst) x_inst, x_inst x_inst]
      qed by contradiction as H { have f : false by theorem 2.6 with M := k(x_inst x_inst)  qed by f }
    }''',
    "bad2": '''theorem bad2 "self-application is never P1" {
      prove _m0 _m0 != P1
      qed by contradiction as H {
        have e : k(P1) y = _m0 _m0 by chain [k(P1) y, P1, _m0 _m0]
        have f : false by theorem 2.6 with M := k(P1)  qed by f }
    }''',
    "bad3": '''theorem bad3 "self-application is never P1, by cases" {
      prove y y != P1
      qed by cases Eq <k(P1) y, y y> as (C, D) {
        p1 => { have f : false by theorem 2.6 with M := k(P1)  qed by contradiction as H { qed by f } }
        p2 => { qed by contradiction as H {
                  have e : k(P1) y = y y by chain [k(P1) y, P1, y y]  qed by contradiction e D } }
      }
    }''',
    "bad4": '''theorem bad4 "self-application is never P1, through a let" {
      prove s != P1
      let s := y y
      qed by contradiction as H {
        have e : k(P1) y = s by chain [k(P1) y, P1, s]
        have f : false by theorem 2.6 with M := k(P1)  qed by f }
    }''',
}
# bad and bad2 spelled with ordinary variable names
CONTROLS = [UNSOUND["bad"].replace("x_inst", "y"), UNSOUND["bad2"].replace("_m0", "z")]


@pytest.mark.parametrize("name", sorted(UNSOUND))
def test_a_fact_about_fixed_values_does_not_discharge_a_hypothesis(registry, full_rules, name):
    report = check_text(UNSOUND[name], registry, full_rules)
    assert not report.ok
    assert "(f): hypothesis of 2.6 not discharged: need k(" in report.reason


def test_a_fact_stays_general_inside_a_block_that_fixes_its_variables(core, registry):
    # e is proved where x is free, so it discharges 2.6's M $x = $x $x with
    # M := N P1 even in a branch that fixes x
    report = check_text('''
        theorem general "a fact keeps the fixed set it was proved under" {
          hypothesis N : N $y $x = $x $x
          prove false
          have e : N P1 x = x x by normalize
          qed by cases Eq <x, x> as (C, D) {
            p1 => { have f : false by theorem 2.6 with M := N P1  qed by f } }
        }
    ''', registry, core)
    assert report.ok, report.line()


def map_script(script, fn):
    """``script`` with ``fn`` applied to every term it states."""
    statement, lets, body = map_terms((script.statement, script.lets, script.body), fn)
    return script.replace(statement=statement, lets=lets, body=body)


def script_vars(script):
    found = set()
    map_script(script, lambda t: found.update(free_vars(t)) or t)
    return found


def bind_cited_variables(step, registry):
    """``step`` with every citation of a registered statement also binding
    the statement's unbound variables to themselves, so that renaming the
    script's variables renames those too."""
    if isinstance(step, TheoremStep) and registry.get(step.theorem_id).hypothesis is None:
        unbound = judgment_vars(registry.get(step.theorem_id).statement) - dict(step.subst).keys()
        return step.replace(subst=step.subst + tuple((v, Var(v)) for v in sorted(unbound)))
    if isinstance(step, ContradictionStep):
        return step.replace(body=tuple(bind_cited_variables(s, registry) for s in step.body))
    if isinstance(step, CasesStep):
        branch2 = step.branch_not_equal
        return step.replace(
            branch_equal=tuple(bind_cited_variables(s, registry) for s in step.branch_equal),
            branch_not_equal=None if branch2 is None else tuple(bind_cited_variables(s, registry) for s in branch2))
    return step


RENAMING_POOL = ["_m0", "_m1", "x_inst", "y_inst", "x_hyp", "v0"]
names = st.one_of(st.sampled_from(RENAMING_POOL), st.from_regex(r"[a-z_][a-z0-9_']{0,5}", fullmatch=True))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_renaming_variables_never_changes_a_verdict(corpus, corpus_report, registry, full_rules, data):
    checks = [(parse_scripts(text)[0], registry, full_rules, False) for text in CONTROLS]
    for entry in corpus.entries:
        if not entry.source.startswith("spec:"):
            context_registry, context_rules = corpus_report.contexts[entry.ident]
            for script in corpus.scripts[entry.ident]:
                script = script.replace(
                    body=tuple(bind_cited_variables(s, context_registry) for s in script.body))
                checks.append((script, context_registry, context_rules, True))
    old = sorted(set().union(*(script_vars(script) for script, *_ in checks)))
    new = data.draw(st.lists(names, min_size=len(old), max_size=len(old), unique=True))
    renaming = {a: Var(b) for a, b in zip(old, new)}
    for script, context_registry, context_rules, ok in checks:
        renamed = map_script(script, lambda t: substitute(t, renaming))
        report = check_script(renamed, context_registry, context_rules, BASE_DEFINITIONS)
        assert report.ok == ok, (script.theorem_id, renaming, report.reason)


# ---------------------------------------------------------------------------
# map_terms, and the one-pass canonical form against its two-pass definition
# ---------------------------------------------------------------------------

def test_map_terms_maps_every_term_of_every_step_kind_and_keeps_the_rest():
    a, b, c, d = (Var(n) for n in "abcd")
    k = KWrap
    inner, k_inner = (ChainStep("i", Equal(c, d), (c, d)),), (ChainStep("i", Equal(k(c), k(d)), (k(c), k(d))),)
    before_after = [
        (ChainStep("s", Equal(a, b), (a, c, b)), ChainStep("s", Equal(k(a), k(b)), (k(a), k(c), k(b)))),
        (NormalizeStep("s", Equal(a, b), 7), NormalizeStep("s", Equal(k(a), k(b)), 7)),
        (ExtStep("s", Equal(a, b), 2), ExtStep("s", Equal(k(a), k(b)), 2)),
        (TheoremStep("s", Equal(a, b), "2.4a", (("x", c),)),
         TheoremStep("s", Equal(k(a), k(b)), "2.4a", (("x", k(c)),))),
        (ContradictionStep("s", NotEqual(a, b), "h", inner),
         ContradictionStep("s", NotEqual(k(a), k(b)), "h", k_inner)),
        (CasesStep("s", Equal(a, b), c, d, "C", "D", inner, None),
         CasesStep("s", Equal(k(a), k(b)), k(c), k(d), "C", "D", k_inner, None)),
        (CasesStep("s", Equal(a, b), c, d, "C", "D", inner, inner),
         CasesStep("s", Equal(k(a), k(b)), k(c), k(d), "C", "D", k_inner, k_inner)),
        (KInjectStep("s", Equal(a, b), "e"), KInjectStep("s", Equal(k(a), k(b)), "e")),
        (ApplicationStep("s", NotEqual(a, b), (c, d), "l", "r", "n"),
         ApplicationStep("s", NotEqual(k(a), k(b)), (k(c), k(d)), "l", "r", "n")),
        (FalsumStep("s", FALSUM, "e", "n"), FalsumStep("s", FALSUM, "e", "n")),
        (RefStep("s", Equal(a, b), "e"), RefStep("s", Equal(k(a), k(b)), "e")),
    ]
    assert {type(step) for step, _ in before_after} == set(Step.__subclasses__())
    before, after = zip(*before_after)
    lets = (("t", a), ("u", d))
    assert map_terms((before, lets), KWrap) == (after, (("t", k(a)), ("u", k(d))))


# placeholder-named pattern variables, and definitions that hold variables
canonical_terms = term_trees(
    st.builds(Var, st.sampled_from(["x", "y", "z"])), st.builds(PatVar, st.sampled_from(["$x", "$0", "$1"])),
    st.sampled_from([P1, Defined("I"), Defined("t")]),
    max_leaves=12,
)
CANONICAL_DEFS = {**BASE_DEFINITIONS, "t": Pair(Var("y"), App(Defined("I"), Var("x")))}


@settings(max_examples=200, deadline=None)
@given(canonical_terms, canonical_terms, st.frozensets(st.sampled_from(["x", "y", "z"])))
def test_canonical_agrees_with_its_two_pass_definition(lhs, rhs, fixed):
    script = ProofScript("c", "", None, Equal(P1, P1), (), ())
    checker = _Checker(script, Registry(), core_rules(), CANONICAL_DEFS)
    eq = Equal(lhs, rhs)
    assert checker.canonical(eq, fixed) == two_pass_canonical(checker, eq, fixed)
