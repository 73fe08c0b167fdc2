from __future__ import annotations

import collections
import random
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trc.stratify as stratify_module
from trc.corpus import BASE_DEFINITIONS
from trc.engine import EngineConfig, core_rules, ext_equal, rule_match
from trc.stratify import (
    _HEAD_RULES, IDENTITY, CombinatorSpec, CompileError, Constraint, NotAbstractable, StratifyResult,
    abstract, abstraction_levels, compile_combinator, optimize, replay_conflict, stratify, term_constraints,
)
from trc.terms import (
    ABST, EQ, P1, P2, App, Defined, KWrap, Pair, Var, TrcError, app, free_vars, parse, pattern_vars, render,
    substitute, term_size,
)

from oracles import (
    oracle_abstract, oracle_abstraction_levels, oracle_stratify, oracle_term_constraints, random_term,
    solved_levels, term_trees,
)


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------

def test_stratify_nested_application():
    got = stratify(parse("y (x y z)"))
    assert got.assignment == {"z": 0, "y": 1, "x": 2}


def test_stratify_double_use():
    got = stratify(parse("x y (y z)"))
    assert got.assignment == {"z": 0, "y": 1, "x": 2}


def test_stratify_self_application_cycle():
    got = stratify(parse("x (y x)"))
    assert not got.satisfiable
    assert got.conflict is not None
    assert replay_conflict(got.conflict) != 0


def test_stratify_assignment_satisfies_constraints():
    for text in ("y (x y z)", "x y (y z)", "x (x y)", "k(x) y", "<x, y> z", "Eq <x, x>"):
        t = parse(text)
        got = stratify(t)
        assert got.satisfiable, text
        assert solved_levels(t, got.assignment) is not None, text
        assert min(got.assignment.values(), default=0) == 0


def test_stratify_conflict_walk_is_connected():
    got = stratify(parse("x x"))
    assert not got.satisfiable
    closing = got.conflict[-1]
    assert replay_conflict(got.conflict) != 0
    assert closing.offset != 0 or len(got.conflict) > 1


@pytest.mark.parametrize("cycle, message", [
    ((Constraint("a", "b", 1, ()), Constraint("c", "d", 0, ())), "conflict walk is not connected"),
    ((Constraint("a", "b", 1, ()), Constraint("a", "c", 0, ())),
     "conflict walk does not reach the closing constraint"),
], ids=["disconnected", "open"])
def test_replay_conflict_refuses_a_walk_that_is_not_a_cycle(cycle, message):
    with pytest.raises(TrcError, match=f"^{message}$"):
        replay_conflict(cycle)


_CONSTANTS = (ABST, EQ, P1, P2, IDENTITY, Defined("B"))
stratify_terms = term_trees(st.builds(Var, st.sampled_from(["x", "y", "z"])), st.sampled_from(_CONSTANTS),
                            max_leaves=24)
# a subterm that holds a variable, used twice at levels one apart: always
# unsatisfiable, so that most draws below have a conflict to compare
_holding_var = st.builds(lambda u, v, left: Pair(v, u) if left else App(u, v),
                         stratify_terms, st.builds(Var, st.sampled_from(["x", "y", "z"])),
                         st.booleans())
stratify_doubles = st.one_of(
    _holding_var.map(lambda u: App(u, u)),
    _holding_var.map(lambda u: Pair(u, KWrap(u))),
)


@settings(max_examples=400)
@given(st.one_of(stratify_terms, stratify_doubles))
@example(parse("x (y x)"))
@example(parse("x x"))
@example(parse("P1"))
@example(parse("y (x y z)"))
@example(parse("<x, k(x)>"))
@example(parse("k(B x) <I, y x>"))
def test_level_walk_matches_the_union_find(t):
    got, want = stratify(t), oracle_stratify(t)
    assert got.assignment == want.assignment
    assert got.conflict == want.conflict


# how a variable leaf at a given level is named: by its level (stratified),
# fresh (stratified), by its level but now and then one off (a conflict
# somewhere inside), or from three names (a conflict near the start)
_NAMINGS = {
    "by-level": lambda rng, level, n: f"v{level}",
    "fresh": lambda rng, level, n: f"u{n}",
    "one-off": lambda rng, level, n: f"v{level + (rng.random() < 0.01)}",
    "three": lambda rng, level, n: rng.choice("xyz"),
}


def _random_term(rng, leaves, naming):
    """A term of ``leaves`` leaves built top down, about a fifth of them constants."""
    count = iter(range(leaves))

    def build(leaves, level):
        if leaves == 1:
            if rng.random() < 0.2:
                return rng.choice(_CONSTANTS)
            return Var(naming(rng, level, next(count)))
        kind = rng.choice("apk")
        if kind == "k":
            return KWrap(build(leaves, level - 1))
        split = rng.randint(1, leaves - 1)
        if kind == "a":
            return App(build(split, level + 1), build(leaves - split, level))
        return Pair(build(split, level), build(leaves - split, level))

    return build(leaves, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(200, 400), st.sampled_from(sorted(_NAMINGS)))
def test_level_walk_matches_the_union_find_on_large_terms(seed, leaves, naming):
    t = _random_term(random.Random(seed), leaves, _NAMINGS[naming])
    got, want = stratify(t), oracle_stratify(t)
    assert got.assignment == want.assignment
    assert got.conflict == want.conflict


def _spine(n):
    """``x1 x2 ... xn``."""
    return app(*(Var(f"x{i}") for i in range(1, n + 1)))


def _pair_tree(n):
    """A balanced tree of pairs over the leaves ``y0 ... y(n-1)``, n a power of 2."""
    level = [Var(f"y{i}") for i in range(n)]
    while len(level) > 1:
        level = [Pair(a, b) for a, b in zip(level[::2], level[1::2])]
    return level[0]


@pytest.mark.parametrize("t, want", [
    # xn is the argument at level 0, and each x_i sits n - i above it
    (_spine(288), {f"x{i}": 288 - i for i in range(1, 289)}),
    # every leaf at the root's level
    (_pair_tree(512), {f"y{i}": 0 for i in range(512)}),
], ids=["spine-288", "pair-tree-512"])
def test_stratify_matches_closed_forms_at_benchmark_sizes(t, want):
    assert stratify(t) == StratifyResult(want, None)


@settings(max_examples=300)
@given(st.one_of(stratify_terms, stratify_doubles))
@example(parse("x (y x)"))
@example(parse("k(B x) <I, y x>"))
def test_term_constraints_match_the_per_subterm_definition(t):
    assert term_constraints(t) == oracle_term_constraints(t)


def _nest(names, bottom):
    """``n0 (n1 (... (nk bottom)))`` over the variables named."""
    for name in reversed(names):
        bottom = App(Var(name), bottom)
    return bottom


_FS = [f"f{i}" for i in range(2_000)]


@pytest.mark.parametrize("t, length", [
    (_nest(_FS, App(Var("x"), Var("x"))), 3),  # the conflict at the bottom, closed there
    (App(Var("x"), _nest(_FS[1:], Var("x"))), 2_002),  # closed through the root
], ids=["short", "long"])
def test_deep_conflict_cycles_match_the_union_find(t, length):
    got = stratify(t).conflict
    assert got == oracle_stratify(t).conflict
    assert len(got) == length and replay_conflict(got) == 1


@pytest.fixture
def builds(monkeypatch):
    """How many numbered constraints (``_Edge``) and ``Constraint`` records
    are built, counted through the module's names."""
    counts = collections.Counter()
    for name in ("_Edge", "Constraint"):
        def counted(*args, _name=name, _build=getattr(stratify_module, name)):
            counts[_name] += 1
            return _build(*args)
        monkeypatch.setattr(stratify_module, name, counted)
    return counts


def test_a_conflict_near_the_root_builds_the_same_whatever_follows(builds):
    seen = []
    for n in (100, 800):
        builds.clear()
        got = stratify(App(App(Var("x"), Var("x")), _nest(_FS[:n], Var("y"))))
        assert len(got.conflict) == 3
        seen.append(dict(builds))
    assert seen[0] == seen[1] == {"_Edge": 6, "Constraint": 3}


@pytest.mark.parametrize("make", [
    lambda n: _nest(_FS[:n], App(Var("x"), Var("x"))),
    lambda n: App(Var("x"), _nest(_FS[1:n], Var("x"))),
], ids=["short", "long"])
def test_a_conflict_at_the_bottom_builds_in_proportion_to_the_output(builds, make):
    # a unit of output: one constraint of the cycle or one selector of its positions
    per_unit = []
    for n in (100, 800):
        builds.clear()
        cycle = stratify(make(n)).conflict
        assert builds["Constraint"] == len(cycle)
        per_unit.append(builds["_Edge"] / sum(1 + len(c.at) for c in cycle))
    assert per_unit[1] <= 2 * per_unit[0], per_unit


# ---------------------------------------------------------------------------
# abstraction levels
# ---------------------------------------------------------------------------

def test_levels_single_occurrence():
    assert abstraction_levels("x", Var("x")) == {(): 0}


def test_levels_example_values():
    levels = abstraction_levels("y", parse("x (x y)"))
    assert levels[()] == 0
    assert levels[("argument",)] == 0
    assert levels[("argument", "argument")] == 0
    assert levels[("function",)] == 1
    assert levels[("argument", "function")] == 1


def test_levels_reject_function_position():
    with pytest.raises(NotAbstractable) as err:
        abstraction_levels("x", parse("x y"))
    assert err.value.reason == "x-at-nonzero-level"


def test_levels_reject_negative():
    with pytest.raises(NotAbstractable) as err:
        abstraction_levels("x", parse("y k(x)"))
    assert err.value.reason == "negative-level"


def test_levels_ignore_other_variables():
    # subterms without the abstraction variable may sit below zero
    levels = abstraction_levels("x", parse("k(k(y)) x"))
    assert levels[("function", "k-body", "k-body")] == -1
    assert levels[("argument",)] == 0


# ---------------------------------------------------------------------------
# abstraction
# ---------------------------------------------------------------------------

def test_abstract_variable_is_identity():
    assert abstract("x", Var("x")) == Defined("I")


def test_abstract_frozen_example():
    assert render(abstract("y", parse("x (x y)"))) == "Abst k(x) (Abst k(x) I)"


def test_abstract_constant_body():
    assert abstract("x", parse("k(t')")) == parse("k(k(t'))")


def test_abstract_removes_the_variable():
    for text in ("y x", "x (x y)", "g k(w x) h", "<y x, k(z x)> u"):
        for var in ("x", "y"):
            t = parse(text)
            if var not in free_vars(t):
                continue
            try:
                lam = abstract(var, t)
            except NotAbstractable:
                continue
            assert var not in free_vars(lam)


def test_abstract_iterated_yields_self_composition(full_rules):
    inner = abstract("y", parse("x (x y)"))
    outer = abstract("x", inner)
    applied = app(outer, Var("x"), Var("y"))
    assert ext_equal(applied, parse("x (x y)"), full_rules, defs=BASE_DEFINITIONS).equal
    assert ext_equal(outer, parse("Abst Abst I"), full_rules, defs=BASE_DEFINITIONS).equal


def test_abstract_contract_on_fixed_cases(full_rules):
    cases = [("x", "y x"), ("y", "x (x y)"), ("x", "g k(w x) h"), ("x", "g k(y x) <x, u>")]
    for var, text in cases:
        t = parse(text)
        lam = abstract(var, t)
        s = parse("k(P1)")
        lhs = App(lam, s)
        rhs = substitute(t, {var: s})
        assert ext_equal(lhs, rhs, full_rules, defs=BASE_DEFINITIONS).equal, text


def test_package_attribute_is_the_module():
    import trc.stratify as m

    assert isinstance(m, types.ModuleType)
    assert m.abstract is abstract and m.stratify is stratify


def outcome(fn, *args):
    """The result, or the position, reason and message of the NotAbstractable."""
    try:
        return fn(*args)
    except NotAbstractable as exc:
        return exc.position, exc.reason, str(exc)


open_terms = term_trees(
    st.builds(Var, st.sampled_from(["x", "y"])), st.sampled_from([ABST, EQ, P1, P2]), st.just(IDENTITY),
    max_leaves=20,
)
# x in function position (level 1) or under k(...) at level 0 (body at -1)
violations = st.one_of(
    st.builds(App, st.just(Var("x")), open_terms),
    st.builds(KWrap, st.builds(App, open_terms, st.just(Var("x")))),
)
several_violations = st.builds(
    App, open_terms, st.builds(Pair, violations, st.builds(App, open_terms, violations)))
_shared = parse("y x")
_shared_without_x = parse("y z")


@settings(max_examples=300)
@given(st.one_of(open_terms, several_violations), st.sampled_from(["x", "y"]))
@example(parse("(x y) k(x)"), "x")
@example(parse("<x y, k(x y)>"), "x")
@example(parse("k(x) (x (y k(x)))"), "x")
@example(Pair(_shared, KWrap(_shared)), "x")
@example(App(_shared, _shared), "x")
# a negative subterm without x, walked (right first) before the violation
@example(parse("<x x, k(k(y))>"), "x")
# a negative subterm holding x, and x itself at a negative level
@example(parse("k(k(y x))"), "x")
@example(parse("k(x)"), "x")
# one object both inside a clear negative subterm and at a nonnegative level
@example(Pair(App(_shared_without_x, Var("x")), KWrap(KWrap(_shared_without_x))), "x")
def test_level_walk_matches_two_pass_definition(t, x):
    assert outcome(abstraction_levels, x, t) == outcome(oracle_abstraction_levels, x, t)
    assert outcome(abstract, x, t) == outcome(oracle_abstract, x, t)


@pytest.fixture
def examined(monkeypatch):
    """How many subterms the module examines.  The level walk, the scan for
    ``x`` and the fold of ``abstract`` each call ``type`` once per subterm, so
    a counting ``type`` in the module's namespace counts them."""
    counts = collections.Counter()

    def counted(obj):
        counts["subterms"] += 1
        return type(obj)

    monkeypatch.setattr(stratify_module, "type", counted, raising=False)
    return counts


@pytest.mark.parametrize("fn, oracle", [
    (abstraction_levels, oracle_abstraction_levels),
    (abstract, oracle_abstract),
], ids=["abstraction_levels", "abstract"])
@pytest.mark.parametrize("bottom", ["x", "y"], ids=["x-at-the-bottom", "no-x"])
def test_the_level_walk_examines_k_nests_in_linear_work(examined, fn, oracle, bottom):
    # k(k(...k(bottom))): every k-body is negative, but only the outermost is scanned
    seen = []
    for depth in (100, 800):
        t = Var(bottom)
        for _ in range(depth):
            t = KWrap(t)
        examined.clear()
        got = outcome(fn, "x", t)
        seen.append(examined["subterms"])
        assert got == outcome(oracle, "x", t)
    assert 0 < seen[1] <= 8 * seen[0], seen


DEPTH = 10_000


def _chain(n):
    """``y (y (... (y x)))`` with n applications."""
    return _nest(["y"] * n, Var("x"))


def test_abstract_deep_chain():
    want = IDENTITY
    for _ in range(DEPTH):
        want = App(App(ABST, KWrap(Var("y"))), want)
    got = abstract("x", _chain(DEPTH))
    assert free_vars(got) == {"y"}
    assert render(got) == render(want)


def test_abstract_deep_pair_nest():
    t, want = Var("x"), IDENTITY
    for _ in range(DEPTH):
        t, want = Pair(t, Var("y")), Pair(want, KWrap(Var("y")))
    got = abstract("x", t)
    assert free_vars(got) == {"y"}
    assert render(got) == render(want)


def test_stratify_deep_chain():
    # f0 (f1 (... (f9999 y))): every function at level 1, y at 0
    t = _nest([f"f{i}" for i in range(DEPTH)], Var("y"))
    want = {f"f{i}": 1 for i in range(DEPTH)}
    want["y"] = 0
    assert stratify(t).assignment == want


def test_stratify_deep_k_nest():
    # k(<v0, k(<v1, ... k(<v9999, x>) ...>)>): v_i at level -(i+1), x with the last
    t = Var("x")
    for i in reversed(range(DEPTH)):
        t = KWrap(Pair(Var(f"v{i}"), t))
    want = {f"v{i}": DEPTH - 1 - i for i in range(DEPTH)}
    want["x"] = 0
    assert stratify(t).assignment == want


def test_stratify_deep_pair_nest():
    t = Var("x")
    for i in range(DEPTH):
        t = Pair(t, Var(f"y{i}"))
    want = {f"y{i}": 0 for i in range(DEPTH)}
    want["x"] = 0
    assert stratify(t).assignment == want


def test_abstraction_levels_deep_chain():
    depth = 2_000
    levels = abstraction_levels("x", _chain(depth))
    assert len(levels) == 2 * depth + 1
    assert levels[("argument",) * depth] == 0
    assert levels[("argument",) * (depth - 1) + ("function",)] == 1
    assert set(levels.values()) == {0, 1}


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def spec(name, params, body):
    return CombinatorSpec(name, tuple(params.split()), parse(body))


def test_compile_rejects_distinct_param_violations():
    with pytest.raises(ValueError):
        CombinatorSpec("bad", ("x", "x"), parse("x"))
    with pytest.raises(ValueError):
        CombinatorSpec("bad", ("x",), parse("x y"))


def test_compile_stratified_examples(full_rules):
    b = compile_combinator(spec("b", "x y z", "y (x y z)"), full_rules, BASE_DEFINITIONS)
    assert ext_equal(b, parse("Abst Abst"), full_rules, defs=BASE_DEFINITIONS).equal
    d = compile_combinator(spec("d", "x y z", "x y (y z)"), full_rules, BASE_DEFINITIONS)
    assert ext_equal(d, parse("Abst (Abst Abst)"), full_rules, defs=BASE_DEFINITIONS).equal
    c = compile_combinator(spec("c", "x y", "x (x y)"), full_rules, BASE_DEFINITIONS)
    assert ext_equal(c, parse("Abst Abst I"), full_rules, defs=BASE_DEFINITIONS).equal


def test_compile_rejects_self_application(full_rules):
    with pytest.raises(NotAbstractable) as err:
        compile_combinator(spec("m", "x", "x x"), full_rules, BASE_DEFINITIONS)
    assert err.value.variable == "x"


def test_compile_self_test_rejects_under_the_printed_axioms():
    # b abstracts, but with the misprinted rules its compiled term applied
    # to fresh variables never reaches the body's normal form
    printed = core_rules(EngineConfig(corrected_axioms=False))
    with pytest.raises(CompileError) as err:
        compile_combinator(spec("b", "x y z", "y (x y z)"), printed, BASE_DEFINITIONS)
    compiled = abstract("x", abstract("y", abstract("z", parse("y (x y z)"))))
    last = ext_equal(app(compiled, Var("x"), Var("y"), Var("z")), parse("y (x y z)"), printed,
                     defs=BASE_DEFINITIONS).levels[-1]
    assert render(last.right.result) == "y (x y z) v0 v1 v2 v3"
    assert last.left.result != last.right.result
    assert err.value.diagnostics == (
        f"applied form normalizes to {render(last.left.result)}, body to {render(last.right.result)}")


def test_compiled_output_is_closed(full_rules):
    c = compile_combinator(spec("c", "x y", "x (x y)"), full_rules, BASE_DEFINITIONS)
    assert free_vars(c) == set()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimize_constant_collapse():
    assert optimize(parse("Abst k(P1) k(P2)")) == parse("k(P1 P2)")


def test_optimize_double_abstraction_of_constant():
    assert optimize(parse("Abst (Abst k(x))")) == parse("k(x)")


def test_optimize_identity_rules():
    assert optimize(parse("Abst I")) == parse("k(I)")
    assert optimize(parse("Abst k(I)")) == Defined("I")
    assert optimize(parse("Abst P1")) == parse("k(P1)")
    assert optimize(parse("Abst k(P2)")) == P2


def test_optimize_rewrites_a_head_its_children_made():
    # the inner Abst I becomes k(I), which turns the whole term into Abst k(I)
    assert optimize(parse("Abst (Abst I)")) == Defined("I")


def test_optimize_distributes_abst_over_a_pair_when_that_shrinks():
    # the pair's halves collapse once Abst is pushed into them
    assert render(optimize(parse("Abst <Abst k(I),k(P1)> k(z)"))) == "<k(I),P1> k(z)"


@pytest.mark.parametrize("rule", _HEAD_RULES, ids=lambda rule: rule.name)
def test_each_head_rule_is_sound_and_matches_alone(full_rules, rule):
    # its left-hand side with object variables for the pattern variables
    t = substitute(rule.lhs, {v: Var(v[1:]) for v in pattern_vars(rule.lhs)})
    assert [r for r in _HEAD_RULES if rule_match(r, t) is not None] == [rule]
    assert ext_equal(t, rule_match(rule, t), full_rules, defs=BASE_DEFINITIONS).equal
    # ``optimize`` never grows a term because each head rule shrinks it
    assert term_size(rule.rhs) < term_size(rule.lhs)


spec_bodies = term_trees(st.builds(Var, st.sampled_from(["x", "y", "z"])), st.sampled_from([ABST, EQ, P1, P2]),
                         max_leaves=12)


@settings(max_examples=300)
@given(spec_bodies)
def test_every_spec_compiles_or_is_refused(full_rules, body):
    # combinatorial completeness: a spec over its body's free variables either
    # compiles and passes its self-test, or is refused as not abstractable
    try:
        compile_combinator(CombinatorSpec("c", tuple(sorted(free_vars(body))), body), full_rules, BASE_DEFINITIONS)
    except NotAbstractable:
        pass


def test_optimize_never_grows(full_rules):
    cases = ["Abst <x, y>", "Abst (Abst (Abst x))", "Abst k(k(x))",
             "Abst <P1, P2>", "k(Abst I) x", "Abst k(x) (Abst k(x) I)"]
    for text in cases:
        t = parse(text)
        out = optimize(t)
        assert term_size(out) <= term_size(t), text
        assert ext_equal(out, t, full_rules, defs=BASE_DEFINITIONS).equal, text


def test_optimize_soundness_on_compiled_terms(full_rules):
    for params, body in [("x y z", "y (x y z)"), ("x y", "x (x y)")]:
        t = compile_combinator(spec("c", params, body), full_rules, BASE_DEFINITIONS)
        out = optimize(t)
        assert term_size(out) <= term_size(t)
        assert ext_equal(out, t, full_rules, defs=BASE_DEFINITIONS).equal


def test_eta_contraction_is_off_by_default():
    # optimize has no eta rule: Abst k(u) I stays as it is
    t = parse("Abst k(u) I")
    assert optimize(t) == t


def test_x_freeness_property(full_rules):
    rng = random.Random(11)
    found = 0
    while found < 50:
        t = random_term(rng, 5)
        if "x" not in free_vars(t):
            continue
        try:
            lam = abstract("x", t)
        except NotAbstractable:
            continue
        found += 1
        assert free_vars(lam) == free_vars(t) - {"x"}
