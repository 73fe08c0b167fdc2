"""A small trusted checker for equational and refutational proofs.

Judgments are equalities, disequalities, and falsum.  A proof script is
checked step by step; the checker either accepts every step (pass) or
pinpoints the first unjustifiable one (fail).  Checking never raises for
mathematical failure, only for malformed scripts.

Generalization has one rule: a fact holds for all values of its variables
except those fixed by an open assumption.  A ``contradiction as`` block, and
each branch of ``cases``, fixes the variables of its assumption's sides,
counted after ``let`` expansion, for as long as it is open.  The one place
facts are generalized is the discharge of a cited refutation's hypothesis
equations, which compares them with facts up to renaming every variable that
is not fixed (see ``_Checker._variant``).

Each proof step is a ``Step`` record: the ``label`` that names what it
proves and its ``goal`` judgment, followed by the fields of its kind.  A step
proves exactly its stated goal: a check raises or returns nothing, and a step
that passes adds its goal to the scope under its label.  Step repertoire:

* ``chain``: adjacent terms must be related by one rule instance (core rule,
  registered derived rule, hypothesis equation, definition, or an in-scope
  equality) applied at one position, in either direction.  Expansion steps
  (right-to-left rule use) are allowed.  Rules are tried only on the root
  path down to the lowest position covering every difference between the
  two terms, and at each such site only the rules the rule set's index
  offers for it.  A definition is looked up by the name at the site; an
  in-scope equality, which is ground, justifies exactly the site it states.
* ``normalize``: both sides reach one normal form within fuel (``fuel N``, N >= 1).
* ``ext K``: both sides applied to K fresh variables reach one normal form
  (1 <= K <= 100000).
* ``cases Eq <a,b>``: classical dichotomy; branch one assumes a = b and
  ``Eq <a,b> = P1``, branch two assumes a != b and ``Eq <a,b> = P2``; both
  branches must prove the goal, and both fix the variables of a and b.  With
  syntactically equal arguments the second branch may be omitted.
* ``theorem ID``: instantiate a registered statement; for a registered
  refutation, the instantiated hypothesis equations must be discharged by
  facts already proved (or by the script's own hypothesis), and the
  conclusion is falsum.
* ``contradiction as H { ... }``: proves a disequality by deriving falsum
  from the assumed equality, whose variables the block fixes.
* ``contradiction EQ NEQ``: falsum from an equality and a disequality over
  the same pair of terms; the step must state ``false``.
* ``k-injection A``: from k(s) = k(t) conclude s = t.
* ``application [u...] (A, B, N)``: to prove s != t, exhibit arguments and
  proofs s u... = a, t u... = b, a != b.

The registry holds checked theorems; it is append-only, a record exists only
alongside a passing report, and a script can cite only theorems registered
before it is checked.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Iterator, Mapping, Optional, Union

from .engine import NormalizeResult, Rule, RuleSet, RuleError, normalize, rule_match
from .terms import (
    EQ, P1, P2,
    App, Defined, KWrap, Pair, PatVar, Record, Term, TrcError, Var,
    app, defined_names, expand_defined, free_vars, fresh_vars, nodes,
    pattern_vars, render, replace_defined, substitute, to_pattern,
)


class ScriptError(TrcError):
    """A malformed proof script (not a mathematical failure)."""


class RegistryError(TrcError):
    pass


# ---------------------------------------------------------------------------
# Judgments
# ---------------------------------------------------------------------------

class _Sides(Record):
    """A judgment between two terms, printed with the class's ``sign``."""

    lhs: Term
    rhs: Term

    def render(self) -> str:
        return f"{render(self.lhs)} {self.sign} {render(self.rhs)}"


class Equal(_Sides):
    sign = "="


class NotEqual(_Sides):
    sign = "!="


class Falsum(Record):
    def render(self) -> str:
        return "false"


FALSUM = Falsum()
Judgment = Union[Equal, NotEqual, Falsum]


def judgment_vars(j: Judgment) -> set[str]:
    if isinstance(j, Falsum):
        return set()
    return free_vars(j.lhs) | free_vars(j.rhs)


# ---------------------------------------------------------------------------
# Hypotheses and scripts
# ---------------------------------------------------------------------------

class HypEquation(Record):
    """Schematic defining equation of a hypothesized combinator."""

    constant: str
    lhs: Term  # pattern headed by the constant
    rhs: Term

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        head = self.lhs
        while isinstance(head, App):
            head = head.fn
        if not (isinstance(head, Defined) and head.name == self.constant):
            raise ScriptError(f"hypothesis equation for {self.constant} is not headed by it")
        if pattern_vars(self.rhs) - pattern_vars(self.lhs):
            raise ScriptError(f"hypothesis for {self.constant}: rhs has unbound pattern variables")


class Hypothesis(Record):
    constants: tuple[str, ...]
    equations: tuple[HypEquation, ...]

    def rules(self) -> tuple[Rule, ...]:
        return tuple(Rule(f"hypothesis:{eq.constant}.{i}", eq.lhs, eq.rhs) for i, eq in enumerate(self.equations))


# Proof steps ---------------------------------------------------------------

class Step(Record):
    """A proof step: it proves ``goal`` and names the result ``label``."""

    label: str
    goal: Judgment


class ChainStep(Step):
    terms: tuple[Term, ...]


class NormalizeStep(Step):
    fuel: Optional[int] = None


class ExtStep(Step):
    arity: int


class TheoremStep(Step):
    theorem_id: str
    subst: tuple[tuple[str, Term], ...] = ()


class ContradictionStep(Step):  # goal: NotEqual
    assume_label: str
    body: "Block"


class CasesStep(Step):
    left: Term
    right: Term
    case_label: str   # Eq <a,b> = P_i in each branch
    dicho_label: str  # a = b in branch one, a != b in branch two
    branch_equal: "Block"
    branch_not_equal: Optional["Block"]


class KInjectStep(Step):
    source: str


class ApplicationStep(Step):  # goal: NotEqual
    args: tuple[Term, ...]
    left_label: str
    right_label: str
    neq_label: str


class FalsumStep(Step):  # goal: Falsum
    eq_label: str
    neq_label: str


class RefStep(Step):
    """Restates an already-proved fact (the ``qed by LABEL`` form)."""

    source: str


Block = tuple[Step, ...]


class ProofScript(Record):
    theorem_id: str
    title: str
    hypothesis: Optional[Hypothesis]
    statement: Judgment
    lets: tuple[tuple[str, Term], ...]
    body: Block
    source: str = ""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TheoremRecord(Record):
    theorem_id: str
    statement: Judgment
    hypothesis: Optional[Hypothesis]


class CheckReport(Record):
    theorem_id: str
    failed_step: Optional[int] = None  # None exactly when every step passed
    reason: str = ""
    steps_checked: int = 0
    wall_time: float = 0.0
    # (step label, left result, right result) of each normalize and ext check
    normalizations: tuple[tuple[str, NormalizeResult, NormalizeResult], ...] = ()

    @property
    def ok(self) -> bool:
        return self.failed_step is None

    def line(self) -> str:
        if self.ok:
            return f"THEOREM {self.theorem_id} PASS"
        return f"THEOREM {self.theorem_id} FAIL {self.failed_step} {self.reason}"

    @property
    def trace_lines(self) -> tuple[str, ...]:
        """Each side's normal form and rewrite steps, per normalization."""
        return tuple(f"{label} {side} {line}" for label, *results in self.normalizations
                     for side, result in zip(("lhs", "rhs"), results)
                     for line in [render(result.result), *result.lines()])


AXIOM_NEQ_ID = "VIII"


class Registry:
    """Append-only map of checked theorems; seeded with the primitive fact P1 != P2."""

    def __init__(self) -> None:
        seed = TheoremRecord(AXIOM_NEQ_ID, NotEqual(P1, P2), None)
        self._records: dict[str, TheoremRecord] = {AXIOM_NEQ_ID: seed}

    def __contains__(self, theorem_id: str) -> bool:
        return theorem_id in self._records

    def ids(self) -> list[str]:
        return list(self._records)

    def get(self, theorem_id: str) -> TheoremRecord:
        try:
            return self._records[theorem_id]
        except KeyError:
            raise RegistryError(f"unknown theorem {theorem_id!r}") from None

    def register(self, record: TheoremRecord, report: CheckReport) -> None:
        if not report.ok or report.theorem_id != record.theorem_id:
            raise RegistryError(f"refusing to register {record.theorem_id}: report is not a pass for it")
        existing = self._records.get(record.theorem_id)
        if existing is not None:
            if existing.statement != record.statement or existing.hypothesis != record.hypothesis:
                raise RegistryError(f"id-conflict: {record.theorem_id} already registered with a different statement")
            return
        self._records[record.theorem_id] = record

    def snapshot(self) -> "Registry":
        copy = Registry()
        copy._records = dict(self._records)
        return copy

    def instantiate(self, theorem_id: str, subst: Mapping[str, Term]) -> Judgment:
        """Instantiate a registered universally-quantified statement."""
        record = self.get(theorem_id)
        if record.hypothesis is not None:
            raise RegistryError(f"{theorem_id} is a refutation; it has no instantiable statement")
        stray = set(subst) - judgment_vars(record.statement)
        if stray:
            raise RegistryError(f"substitution binds variables {sorted(stray)} not free in {theorem_id}")
        statement = record.statement
        if isinstance(statement, Falsum):  # a library may register one
            return statement
        return type(statement)(substitute(statement.lhs, subst), substitute(statement.rhs, subst))

    def derived_rule(self, rs: RuleSet, theorem_id: str) -> RuleSet:
        """``rs`` extended by the registered equality ``theorem_id``, oriented
        left to right, as a rule named ``theorem_id``.  Registered equalities
        are the only source of derived rules."""
        record = self.get(theorem_id)
        eq = record.statement
        if record.hypothesis is not None or not isinstance(eq, Equal):
            raise RuleError(f"theorem {theorem_id} is not an equality")
        return rs.extended([Rule(theorem_id, to_pattern(eq.lhs), to_pattern(eq.rhs))])


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

class _Scope:
    """Labelled facts, each with the variables fixed where it was proved, and
    the variables fixed while this scope is open.  A child starts from a copy
    of the facts, so its labels shadow outer ones and reach neither its parent
    nor a sibling; ``own`` holds the labels added in this scope."""

    def __init__(self, facts: Optional[Mapping[str, tuple[Judgment, frozenset[str]]]] = None,
                 fixed: frozenset[str] = frozenset()):
        self.facts = dict(facts or {})
        self.fixed = fixed
        self.own: set[str] = set()

    def child(self, fixing: set[str]) -> "_Scope":
        """A scope inside this one that also fixes the variables ``fixing``."""
        return _Scope(self.facts, self.fixed | fixing)

    def add(self, label: str, judgment: Judgment) -> None:
        if label in self.own:
            raise ScriptError(f"duplicate label {label!r}")
        self.own.add(label)
        self.facts[label] = (judgment, self.fixed)

    def equalities(self) -> Iterator[tuple[Equal, frozenset[str]]]:
        """Each equality in scope, with the variables fixed where it was proved."""
        return ((fact, fixed) for fact, fixed in self.facts.values() if isinstance(fact, Equal))


def _link_sites(a: Term, b: Term) -> list[tuple[Term, Term]]:
    """The (a, b) subterm pairs at every position where rewriting ``a`` once
    can give ``b``.

    A rewrite at one position leaves everything outside it unchanged, so it
    must sit on the root path down to the lowest position covering every
    difference between ``a`` and ``b``; there the rewritten subterm of ``a``
    has to equal that of ``b``.  When ``a`` and ``b`` are equal, every
    position qualifies.  Below the root, ``a`` and ``b`` differ, so at a
    node with two children, when one child pair is equal the other is not.
    """
    if a == b:
        return [(sub, sub) for sub in nodes(a)]
    sites = [(a, b)]
    while type(a) is type(b):
        cls = type(a)
        if cls is KWrap:
            a, b = a.body, b.body
        elif cls is App or cls is Pair:
            s, t, u, v = (a.fn, b.fn, a.arg, b.arg) if cls is App else (a.left, b.left, a.right, b.right)
            if s == t:
                a, b = u, v
            elif u == v:
                a, b = s, t
            else:
                break
        else:
            break
        sites.append((a, b))
    return sites


# An ``ext`` step names its arguments before anything is compared, so its
# arity is bounded first.  Term equality already gives up (exit 2) on spines
# a few hundred arguments long, so the bound refuses no passing step.
MAX_EXT_ARITY = 100_000


class _StepFailure(Exception):
    def __init__(self, reason: str, step: Optional[int] = None):
        self.reason = reason
        self.step = step  # index of the innermost failed step, set by the first run_step it leaves
        super().__init__(reason)


class _Checker:
    def __init__(self, script: ProofScript, registry: Registry, rs: RuleSet,
                 defs: Mapping[str, Term] | None):
        self.script = script
        self.registry = registry
        self.defs: dict[str, Term] = dict(defs or {})
        self.unfolded: dict[str, Term] = {}  # each definition unfolded once, on first use, by ``expand``
        hyp_consts = set(script.hypothesis.constants) if script.hypothesis else set()
        declared = set(self.defs) | hyp_consts
        for name, body in script.lets:
            if name in declared:
                raise ScriptError(f"let {name} shadows an existing definition")
            loose = defined_names(body) - declared
            if loose:
                raise ScriptError(f"let {name} uses undeclared names {sorted(loose)}")
            self.defs[name] = body
            declared.add(name)
        self.declared = declared
        hyp = script.hypothesis
        # every check under one hypothesis, each mutant of a refutation
        # included, shares one extended rule set and its index
        self.rules = rs.extended_once(hyp, hyp.rules) if hyp else rs
        self.step_counter = 0
        self.normalizations: list[tuple[str, NormalizeResult, NormalizeResult]] = []

    def check_declared(self, t: Term) -> None:
        declared = self.declared
        for sub in nodes(t):  # the set of names is built only for the error
            if type(sub) is Defined and sub.name not in declared:
                loose = sorted(defined_names(t) - declared)
                raise ScriptError(f"{self.script.theorem_id}: undeclared names {loose}")

    # -- helpers

    def expand(self, t: Term) -> Term:
        return expand_defined(t, self.defs, memo=self.unfolded)

    def fixing(self, *sides: Term) -> set[str]:
        """The variables an assumption about ``sides`` fixes: those of the
        sides with definitions unfolded, read from each unfolding in place."""
        found: set[str] = set()
        for t in sides:
            for sub in nodes(t):
                if type(sub) is Var:
                    found.add(sub.name)
                elif type(sub) is Defined and sub.name in self.defs:
                    found |= free_vars(self.expand(sub))
        return found

    def _variant(self, lhs: Term, rhs: Term, fixed: frozenset[str], want: Equal) -> bool:
        """Whether the fact ``lhs = rhs``, whose variables in ``fixed`` stay
        as they are, states ``want`` up to renaming.  Both are walked side by
        side, lhs first, with definitions unfolded: each pattern variable or
        unfixed variable of the fact must meet a pattern variable or variable
        of ``want``, the i-th distinct one always the i-th distinct one (their
        first occurrences numbered alike), and any other atom its equal."""
        defs, seen, met = self.defs, {}, {}
        todo = [(rhs, want.rhs), (lhs, want.lhs)]
        while todo:
            a, b = todo.pop()
            if type(a) is Defined and a.name in defs:
                a = self.expand(a)
            if type(b) is Defined and b.name in defs:
                b = self.expand(b)
            cls = type(a)
            if cls is PatVar or cls is Var and a.name not in fixed:
                if type(b) is not PatVar and type(b) is not Var:
                    return False
                if seen.setdefault(a, len(seen)) != met.setdefault(b, len(met)):
                    return False
            elif cls is not type(b) or cls is Var:  # a fixed variable never meets a renamed one
                return False
            elif cls is App:
                todo += ((a.arg, b.arg), (a.fn, b.fn))
            elif cls is Pair:
                todo += ((a.right, b.right), (a.left, b.left))
            elif cls is KWrap:
                todo.append((a.body, b.body))
            elif a.name != b.name:
                return False
        return True

    def fact(self, scope: _Scope, label: str) -> Judgment:
        if label not in scope.facts:
            raise _StepFailure(f"unknown label {label!r}")
        return scope.facts[label][0]

    # -- chain link justification

    def _one_step(self, sites: list[tuple[Term, Term]], facts: list[Equal]) -> bool:
        """Whether one justification rewrites some source site into its target."""
        for sub, want in sites:
            for rule in self.rules.candidates(sub):
                if rule_match(rule, sub) == want:
                    return True
            if type(sub) is Defined and self.defs.get(sub.name) == want:
                return True
            # facts are ground: one rewrites exactly its left-hand side
            if any(eq.lhs == sub and eq.rhs == want for eq in facts):
                return True
        return False

    def justify_link(self, a: Term, b: Term, facts: list[Equal]) -> None:
        sites = _link_sites(a, b)
        if not (self._one_step(sites, facts)
                or self._one_step([(t, s) for s, t in sites], facts)):
            raise _StepFailure(f"no single rule instance relates {render(a)} and {render(b)}")

    # -- step execution

    def run_block(self, block: Block, scope: _Scope, goal: Judgment) -> None:
        if not block:
            raise ScriptError("empty proof block")
        for step in block:
            self.run_step(step, scope)
        if block[-1].goal != goal:
            raise _StepFailure(
                f"block concludes {block[-1].goal.render()} but its goal is {goal.render()}"
            )

    def run_step(self, step: Step, scope: _Scope) -> None:
        self.step_counter += 1
        index = self.step_counter
        try:
            self._dispatch(step, scope)
        except _StepFailure as exc:
            raise _StepFailure(f"step {index} ({step.label}): {exc.reason}", exc.step or index) from None
        scope.add(step.label, step.goal)

    def _dispatch(self, step: Step, scope: _Scope) -> None:
        if not isinstance(step.goal, Falsum):
            self.check_declared(step.goal.lhs)
            self.check_declared(step.goal.rhs)
        if isinstance(step, ChainStep):
            self._chain(step, scope)
        elif isinstance(step, NormalizeStep):
            self._normalize(step)
        elif isinstance(step, ExtStep):
            self._ext(step)
        elif isinstance(step, TheoremStep):
            self._theorem(step, scope)
        elif isinstance(step, ContradictionStep):
            self._contradiction(step, scope)
        elif isinstance(step, CasesStep):
            self._cases(step, scope)
        elif isinstance(step, KInjectStep):
            self._k_inject(step, scope)
        elif isinstance(step, ApplicationStep):
            self._application(step, scope)
        elif isinstance(step, FalsumStep):
            self._falsum(step, scope)
        elif isinstance(step, RefStep):
            fact = self.fact(scope, step.source)
            if fact != step.goal:
                raise _StepFailure(f"{step.source} states {fact.render()}, not {step.goal.render()}")
        else:
            raise ScriptError(f"unknown step {step!r}")

    def _chain(self, step: ChainStep, scope: _Scope) -> None:
        goal = step.goal
        if not isinstance(goal, Equal):
            raise _StepFailure("chain proves equalities only")
        terms = step.terms
        if len(terms) < 1:
            raise _StepFailure("chain needs at least one term")
        if terms[0] != goal.lhs or terms[-1] != goal.rhs:
            raise _StepFailure("chain endpoints do not match the stated equality")
        for t in terms[1:-1]:
            self.check_declared(t)
        facts = [fact for fact, _ in scope.equalities()]
        for i in range(len(terms) - 1):
            self.justify_link(terms[i], terms[i + 1], facts)

    def _same_normal_form(self, label: str, lhs: Term, rhs: Term, fuel: Optional[int], what: str) -> None:
        """Normalize both sides and record the results; fail unless both
        reach one normal form within fuel."""
        left = normalize(lhs, self.rules, fuel)
        right = normalize(rhs, self.rules, fuel)
        self.normalizations.append((label, left, right))
        if left.exhausted or right.exhausted:
            raise _StepFailure("normalization exhausted its fuel")
        if left.result != right.result:
            raise _StepFailure(f"{what} differ: {render(left.result)} vs {render(right.result)}")

    def _normalize(self, step: NormalizeStep) -> None:
        goal = step.goal
        if not isinstance(goal, Equal):
            raise _StepFailure("normalize proves equalities only")
        if step.fuel is not None and step.fuel < 1:
            raise _StepFailure("normalize fuel must be >= 1")
        self._same_normal_form(step.label, self.expand(goal.lhs), self.expand(goal.rhs),
                               step.fuel, "normal forms")

    def _ext(self, step: ExtStep) -> None:
        goal = step.goal
        if not isinstance(goal, Equal):
            raise _StepFailure("ext proves equalities only")
        if step.arity < 1:
            raise _StepFailure("ext arity must be >= 1")
        if step.arity > MAX_EXT_ARITY:
            raise _StepFailure(f"ext arity must be <= {MAX_EXT_ARITY}")
        lhs, rhs = self.expand(goal.lhs), self.expand(goal.rhs)
        fresh = [Var(name) for name in islice(fresh_vars(free_vars(lhs) | free_vars(rhs)), step.arity)]
        self._same_normal_form(step.label, app(lhs, *fresh), app(rhs, *fresh), None, "applied normal forms")

    def _theorem(self, step: TheoremStep, scope: _Scope) -> None:
        try:
            record = self.registry.get(step.theorem_id)
        except RegistryError as exc:
            raise _StepFailure(str(exc)) from None
        subst = dict(step.subst)
        for t in subst.values():
            self.check_declared(t)
        if record.hypothesis is None:
            try:
                judgment = self.registry.instantiate(step.theorem_id, subst)
            except RegistryError as exc:
                raise _StepFailure(str(exc)) from None
            if judgment != step.goal:
                raise _StepFailure(
                    f"{step.theorem_id} instantiates to {judgment.render()}, not {step.goal.render()}"
                )
            return
        # refutation: discharge its hypothesis equations, conclude falsum
        if not isinstance(step.goal, Falsum):
            raise _StepFailure(f"{step.theorem_id} is a refutation; it concludes false")
        missing = set(record.hypothesis.constants) - set(subst)
        if missing:
            raise _StepFailure(f"instantiation must bind hypothesized constants {sorted(missing)}")
        constants = {c: subst[c] for c in record.hypothesis.constants}
        for eq in record.hypothesis.equations:
            want = Equal(replace_defined(eq.lhs, constants), replace_defined(eq.rhs, constants))
            if not self._discharged(want, scope):
                raise _StepFailure(
                    f"hypothesis of {step.theorem_id} not discharged: need {want.render()}"
                )

    def _discharged(self, want: Equal, scope: _Scope) -> bool:
        """Whether the script's hypothesis or a fact in scope states ``want``
        for all values of every variable: up to renaming, with none fixed."""
        hyp = self.script.hypothesis.equations if self.script.hypothesis else ()
        return (any(self._variant(eq.lhs, eq.rhs, frozenset(), want) for eq in hyp)
                or any(self._variant(fact.lhs, fact.rhs, fixed, want) for fact, fixed in scope.equalities()))

    def _contradiction(self, step: ContradictionStep, scope: _Scope) -> None:
        goal = step.goal
        if not isinstance(goal, NotEqual):
            raise _StepFailure("contradiction blocks prove disequalities")
        inner = scope.child(self.fixing(goal.lhs, goal.rhs))
        inner.add(step.assume_label, Equal(goal.lhs, goal.rhs))
        self.run_block(step.body, inner, FALSUM)

    def _cases(self, step: CasesStep, scope: _Scope) -> None:
        a, b = step.left, step.right
        self.check_declared(a)
        self.check_declared(b)
        eq_term = App(EQ, Pair(a, b))
        fixing = self.fixing(a, b)
        branch1 = scope.child(fixing)
        branch1.add(step.case_label, Equal(eq_term, P1))
        branch1.add(step.dicho_label, Equal(a, b))
        self.run_block(step.branch_equal, branch1, step.goal)
        if step.branch_not_equal is None:
            if a != b:
                raise _StepFailure("cases over distinct terms needs both branches")
            return
        branch2 = scope.child(fixing)
        branch2.add(step.case_label, Equal(eq_term, P2))
        branch2.add(step.dicho_label, NotEqual(a, b))
        self.run_block(step.branch_not_equal, branch2, step.goal)

    def _k_inject(self, step: KInjectStep, scope: _Scope) -> None:
        fact = self.fact(scope, step.source)
        if not (isinstance(fact, Equal) and isinstance(fact.lhs, KWrap) and isinstance(fact.rhs, KWrap)):
            raise _StepFailure(f"{step.source} is not an equality of k-wrapped terms")
        got = Equal(fact.lhs.body, fact.rhs.body)
        if got != step.goal:
            raise _StepFailure(f"k-injection yields {got.render()}, not {step.goal.render()}")

    def _application(self, step: ApplicationStep, scope: _Scope) -> None:
        goal = step.goal
        if not isinstance(goal, NotEqual):
            raise _StepFailure("application proves disequalities")
        if not step.args:
            raise _StepFailure("application needs at least one argument")
        for t in step.args:
            self.check_declared(t)
        left_fact = self.fact(scope, step.left_label)
        right_fact = self.fact(scope, step.right_label)
        neq_fact = self.fact(scope, step.neq_label)
        if not (isinstance(left_fact, Equal) and isinstance(right_fact, Equal)
                and isinstance(neq_fact, NotEqual)):
            raise _StepFailure("application needs two equalities and a disequality")
        if left_fact.lhs != app(goal.lhs, *step.args) or right_fact.lhs != app(goal.rhs, *step.args):
            raise _StepFailure("application facts do not apply the stated sides to the arguments")
        if (neq_fact.lhs, neq_fact.rhs) not in ((left_fact.rhs, right_fact.rhs), (right_fact.rhs, left_fact.rhs)):
            raise _StepFailure("the disequality is not about the two application results")

    def _falsum(self, step: FalsumStep, scope: _Scope) -> None:
        if not isinstance(step.goal, Falsum):
            raise _StepFailure("contradiction EQ NEQ proves false only")
        eq = self.fact(scope, step.eq_label)
        neq = self.fact(scope, step.neq_label)
        if not isinstance(eq, Equal) or not isinstance(neq, NotEqual):
            raise _StepFailure("falsum needs an equality and a disequality")
        same = (eq.lhs, eq.rhs) in ((neq.lhs, neq.rhs), (neq.rhs, neq.lhs))
        if not same:
            raise _StepFailure(
                f"{eq.render()} and {neq.render()} are not about the same pair of terms"
            )


def check_script(
    script: ProofScript,
    registry: Registry,
    rs: RuleSet,
    defs: Mapping[str, Term] | None = None,
) -> CheckReport:
    """Check every step of ``script``; returns a report, never raises for math."""
    start = time.perf_counter()
    if script.hypothesis is not None and not isinstance(script.statement, Falsum):
        return CheckReport(script.theorem_id, 0, "scripts with hypotheses must prove false")
    if script.hypothesis is None and isinstance(script.statement, Falsum):
        return CheckReport(script.theorem_id, 0, "false is only provable under hypotheses")
    checker = _Checker(script, registry, rs, defs)
    try:
        checker.run_block(script.body, _Scope(), script.statement)
        failed_step, reason = None, ""
    except _StepFailure as exc:
        failed_step, reason = exc.step or checker.step_counter, exc.reason
    return CheckReport(script.theorem_id, failed_step, reason, checker.step_counter,
                       time.perf_counter() - start, tuple(checker.normalizations))


def record_for(script: ProofScript) -> TheoremRecord:
    return TheoremRecord(script.theorem_id, script.statement, script.hypothesis)
