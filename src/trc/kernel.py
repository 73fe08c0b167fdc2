"""A small trusted checker for equational and refutational proofs.

Judgments are equalities, disequalities, and falsum, implicitly universally
quantified over their free variables.  A proof script is checked step by
step; the checker either accepts every step (pass) or pinpoints the first
unjustifiable one (fail).  Checking never raises for mathematical failure,
only for malformed scripts.

Step repertoire:

* ``chain``: adjacent terms must be related by one rule instance (core rule,
  registered derived rule, hypothesis equation, definition, or an in-scope
  equality) applied at one position, in either direction.  Expansion steps
  (right-to-left rule use) are allowed.  Rules are tried only on the root
  path down to the lowest position covering every difference between the
  two terms.
* ``normalize``: both sides reach one normal form within fuel.
* ``ext K``: both sides applied to K fresh variables reach one normal form.
* ``cases Eq <a,b>``: classical dichotomy; branch one assumes a = b and
  ``Eq <a,b> = P1``, branch two assumes a != b and ``Eq <a,b> = P2``; both
  branches must prove the goal.  With syntactically identical arguments the
  second branch may be omitted.
* ``theorem ID``: instantiate a registered statement; for a registered
  refutation, the instantiated hypothesis equations must be discharged by
  facts already proved, and the conclusion is falsum.
* ``contradiction as H { ... }``: proves a disequality by deriving falsum
  from the assumed equality.  Variables of the assumption are fixed (not
  generalizable) inside the block.
* ``falsum A B``: falsum from an equality and a disequality over the same
  pair of terms.
* ``k-injection A``: from k(s) = k(t) conclude s = t.
* ``application [u...] (A, B, N)``: to prove s != t, exhibit arguments and
  proofs s u... = a, t u... = b, a != b.

The registry holds checked theorems; it is append-only, a record exists only
alongside a passing report, and its dependency graph is acyclic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from .engine import (
    Rule, RuleSet, RuleError,
    lhs_fits, normalize, register_derived_rule, root_shape, rule_match,
)
from .terms import (
    EQ, P1, P2,
    App, Defined, KWrap, Pair, PatVar, Term, TrcError, Var,
    children, defined_names, expand_defined, free_vars, fresh_var, nodes,
    pattern_vars, render, replace_defined, substitute, to_pattern,
)


class ScriptError(TrcError):
    """A malformed proof script (not a mathematical failure)."""


class RegistryError(TrcError):
    pass


# ---------------------------------------------------------------------------
# Judgments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Equal:
    lhs: Term
    rhs: Term

    def render(self) -> str:
        return f"{render(self.lhs)} = {render(self.rhs)}"


@dataclass(frozen=True)
class NotEqual:
    lhs: Term
    rhs: Term

    def render(self) -> str:
        return f"{render(self.lhs)} != {render(self.rhs)}"


@dataclass(frozen=True)
class Falsum:
    def render(self) -> str:
        return "false"


FALSUM = Falsum()
Judgment = Union[Equal, NotEqual, Falsum]


def judgment_vars(j: Judgment) -> set[str]:
    if isinstance(j, Falsum):
        return set()
    return free_vars(j.lhs) | free_vars(j.rhs)


def substitute_judgment(j: Judgment, subst: Mapping[str, Term]) -> Judgment:
    return map_judgment(j, lambda t: substitute(t, subst))


# ---------------------------------------------------------------------------
# Hypotheses and scripts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypEquation:
    """Schematic defining equation of a hypothesized combinator."""

    constant: str
    lhs: Term  # pattern headed by the constant
    rhs: Term

    def __post_init__(self) -> None:
        head = self.lhs
        while isinstance(head, App):
            head = head.fn
        if not (isinstance(head, Defined) and head.name == self.constant):
            raise ScriptError(f"hypothesis equation for {self.constant} is not headed by it")
        if pattern_vars(self.rhs) - pattern_vars(self.lhs):
            raise ScriptError(f"hypothesis for {self.constant}: rhs has unbound pattern variables")

    def rule(self, index: int) -> Rule:
        return Rule(f"hypothesis:{self.constant}.{index}", self.lhs, self.rhs, f"hypothesis:{self.constant}")


@dataclass(frozen=True)
class Hypothesis:
    constants: tuple[str, ...]
    equations: tuple[HypEquation, ...]


# Proof steps ---------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    label: str
    goal: Judgment
    terms: tuple[Term, ...]
    citations: Optional[tuple[Optional[str], ...]] = None  # one per link when given


@dataclass(frozen=True)
class NormalizeStep:
    label: str
    goal: Judgment
    fuel: Optional[int] = None


@dataclass(frozen=True)
class ExtStep:
    label: str
    goal: Judgment
    arity: int


@dataclass(frozen=True)
class TheoremStep:
    label: str
    goal: Judgment
    theorem_id: str
    subst: tuple[tuple[str, Term], ...] = ()


@dataclass(frozen=True)
class ContradictionStep:
    label: str
    goal: Judgment  # NotEqual
    assume_label: str
    body: "Block"


@dataclass(frozen=True)
class CasesStep:
    label: str
    goal: Judgment
    left: Term
    right: Term
    case_label: str   # Eq <a,b> = P_i in each branch
    dicho_label: str  # a = b in branch one, a != b in branch two
    branch_equal: "Block"
    branch_not_equal: Optional["Block"]


@dataclass(frozen=True)
class KInjectStep:
    label: str
    goal: Judgment
    source: str


@dataclass(frozen=True)
class ApplicationStep:
    label: str
    goal: Judgment  # NotEqual
    args: tuple[Term, ...]
    left_label: str
    right_label: str
    neq_label: str


@dataclass(frozen=True)
class FalsumStep:
    label: str
    goal: Judgment  # Falsum
    eq_label: str
    neq_label: str


@dataclass(frozen=True)
class RefStep:
    """Restates an already-proved fact (the ``qed by LABEL`` form)."""

    label: str
    goal: Judgment
    source: str


Step = Union[
    ChainStep, NormalizeStep, ExtStep, TheoremStep, ContradictionStep,
    CasesStep, KInjectStep, ApplicationStep, FalsumStep, RefStep,
]
Block = tuple[Step, ...]


def map_judgment(j: Judgment, fn) -> Judgment:
    if isinstance(j, Falsum):
        return j
    return type(j)(fn(j.lhs), fn(j.rhs))


def map_step(step: Step, fn) -> Step:
    """Rebuild ``step`` with ``fn`` applied to every embedded term."""
    goal = map_judgment(step.goal, fn)
    if isinstance(step, ChainStep):
        return ChainStep(step.label, goal, tuple(fn(t) for t in step.terms), step.citations)
    if isinstance(step, NormalizeStep):
        return NormalizeStep(step.label, goal, step.fuel)
    if isinstance(step, ExtStep):
        return ExtStep(step.label, goal, step.arity)
    if isinstance(step, TheoremStep):
        return TheoremStep(step.label, goal, step.theorem_id,
                           tuple((k, fn(v)) for k, v in step.subst))
    if isinstance(step, ContradictionStep):
        return ContradictionStep(step.label, goal, step.assume_label,
                                 tuple(map_step(s, fn) for s in step.body))
    if isinstance(step, CasesStep):
        branch2 = None
        if step.branch_not_equal is not None:
            branch2 = tuple(map_step(s, fn) for s in step.branch_not_equal)
        return CasesStep(step.label, goal, fn(step.left), fn(step.right),
                         step.case_label, step.dicho_label,
                         tuple(map_step(s, fn) for s in step.branch_equal), branch2)
    if isinstance(step, KInjectStep):
        return KInjectStep(step.label, goal, step.source)
    if isinstance(step, ApplicationStep):
        return ApplicationStep(step.label, goal, tuple(fn(t) for t in step.args),
                               step.left_label, step.right_label, step.neq_label)
    if isinstance(step, FalsumStep):
        return FalsumStep(step.label, goal, step.eq_label, step.neq_label)
    if isinstance(step, RefStep):
        return RefStep(step.label, goal, step.source)
    raise ScriptError(f"unknown step {step!r}")


@dataclass(frozen=True)
class ProofScript:
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

@dataclass(frozen=True)
class TheoremRecord:
    theorem_id: str
    statement: Judgment
    hypothesis: Optional[Hypothesis]
    dependencies: tuple[str, ...]
    source: str = ""

    def equation_sides(self) -> Optional[tuple[Term, Term]]:
        if self.hypothesis is None and isinstance(self.statement, Equal):
            return self.statement.lhs, self.statement.rhs
        return None


@dataclass
class CheckReport:
    theorem_id: str
    ok: bool
    failed_step: Optional[int] = None
    reason: str = ""
    steps_checked: int = 0
    wall_time: float = 0.0
    trace_lines: tuple[str, ...] = ()

    def line(self) -> str:
        if self.ok:
            return f"THEOREM {self.theorem_id} PASS"
        return f"THEOREM {self.theorem_id} FAIL {self.failed_step or 0} {self.reason}"


AXIOM_NEQ_ID = "VIII"


class Registry:
    """Append-only map of checked theorems; seeded with the primitive fact P1 != P2."""

    def __init__(self) -> None:
        self._records: dict[str, TheoremRecord] = {}
        seed = TheoremRecord(AXIOM_NEQ_ID, NotEqual(P1, P2), None, (), source="builtin")
        self._records[AXIOM_NEQ_ID] = seed

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
        missing = [d for d in record.dependencies if d not in self._records]
        if missing:
            raise RegistryError(f"dependency-missing for {record.theorem_id}: {missing}")
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
        return substitute_judgment(record.statement, subst)

    def derived_rule(self, rs: RuleSet, theorem_id: str) -> RuleSet:
        """Register the statement of ``theorem_id`` as an oriented rewrite rule."""
        record = self.get(theorem_id)
        sides = record.equation_sides()
        if sides is None:
            raise RuleError(f"theorem {theorem_id} is not an equality")
        return register_derived_rule(rs, to_pattern(sides[0]), to_pattern(sides[1]), record)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

@dataclass
class _Fact:
    judgment: Judgment
    fixed: frozenset[str]  # variables not generalizable (fixed by an assumption)
    rule: Optional[Rule] = None  # an equality as a chain-link rule, built on first use


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.facts: dict[str, _Fact] = {}
        self.fixed: frozenset[str] = parent.fixed if parent else frozenset()

    def child(self) -> "_Scope":
        return _Scope(self)

    def lookup(self, label: str) -> Optional[_Fact]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if label in scope.facts:
                return scope.facts[label]
            scope = scope.parent
        return None

    def add(self, label: str, judgment: Judgment, fixed: frozenset[str]) -> None:
        if label in self.facts:
            raise ScriptError(f"duplicate label {label!r}")
        self.facts[label] = _Fact(judgment, fixed)

    def iter_equalities(self) -> Iterator[tuple[str, _Fact]]:
        seen: set[str] = set()
        scope: Optional[_Scope] = self
        while scope is not None:
            for label, fact in scope.facts.items():
                if label not in seen and isinstance(fact.judgment, Equal):
                    seen.add(label)
                    yield label, fact
            scope = scope.parent


def _link_sites(a: Term, b: Term) -> list[tuple[Term, Term]]:
    """The (a, b) subterm pairs at every position where rewriting ``a`` once
    can give ``b``.

    A rewrite at one position leaves everything outside it unchanged, so it
    must sit on the root path down to the lowest position covering every
    difference between ``a`` and ``b``; there the rewritten subterm of ``a``
    has to equal that of ``b``.  When ``a`` and ``b`` are identical, every
    position qualifies.
    """
    if a == b:
        return [(sub, sub) for sub in nodes(a)]
    sites = [(a, b)]
    while type(a) is type(b):
        differing = [(s, t) for (_, s), (_, t) in zip(children(a), children(b)) if s != t]
        if len(differing) != 1:
            break
        a, b = differing[0]
        sites.append((a, b))
    return sites


class _StepFailure(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class _Checker:
    def __init__(self, script: ProofScript, registry: Registry, rs: RuleSet,
                 defs: Mapping[str, Term] | None):
        self.script = script
        self.registry = registry
        self.defs: dict[str, Term] = dict(defs or {})
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
        hyp_rules: list[Rule] = []
        if script.hypothesis:
            for i, eq in enumerate(script.hypothesis.equations):
                hyp_rules.append(eq.rule(i))
        self.rules = rs.extended(hyp_rules) if hyp_rules else rs
        self.definition_rules = tuple(
            Rule(f"definition:{name}", Defined(name), body, "fact") for name, body in self.defs.items()
        )
        self.step_counter = 0
        self.traces: list[str] = []

    def _record_trace(self, label: str, side: str, result) -> None:
        self.traces.append(f"{label} {side} {render(result.result)}")
        self.traces.extend(f"{label} {side} {line}" for line in result.lines())

    def check_declared(self, t: Term) -> None:
        loose = defined_names(t) - self.declared
        if loose:
            raise ScriptError(f"{self.script.theorem_id}: undeclared names {sorted(loose)}")

    # -- helpers

    def expand(self, t: Term) -> Term:
        return expand_defined(t, self.defs)

    def canonical(self, j: Judgment, fixed: frozenset[str]) -> Judgment:
        """Expand definitions and rename generalizable variables to a fixed scheme."""
        if isinstance(j, Falsum):
            return j
        lhs = self.expand(j.lhs)
        rhs = self.expand(j.rhs)
        mapping: dict[str, Term] = {}
        for t in (lhs, rhs):
            for sub in nodes(t):
                if isinstance(sub, (Var, PatVar)) and sub.name not in mapping:
                    if isinstance(sub, Var) and sub.name in fixed:
                        continue
                    mapping[sub.name] = Var(f"_m{len(mapping)}")
        return type(j)(substitute(lhs, mapping), substitute(rhs, mapping))

    def fact(self, scope: _Scope, label: str) -> _Fact:
        fact = scope.lookup(label)
        if fact is None:
            raise _StepFailure(f"unknown label {label!r}")
        return fact

    # -- chain link justification

    def _link_rules(self, scope: _Scope) -> Iterator[Rule]:
        """All candidate link justifications, as (possibly ground) rules."""
        yield from self.rules.rules
        yield from self.definition_rules
        for label, fact in scope.iter_equalities():
            if fact.rule is None:
                eq = fact.judgment
                assert isinstance(eq, Equal)
                fact.rule = Rule(f"fact:{label}", eq.lhs, eq.rhs, "fact")
            yield fact.rule

    def _one_step(self, sites: list[tuple[Term, Term]], scope: _Scope,
                  citation: Optional[str]) -> Optional[str]:
        """Name of a justification rewriting one source site into its target."""
        shaped = [(root_shape(sub), sub, want) for sub, want in sites]
        for rule in self._link_rules(scope):
            name = rule.name
            if citation is not None and name != citation and name.split(":", 1)[-1] != citation:
                continue
            for shape, sub, want in shaped:
                if not lhs_fits(rule.lhs, shape):
                    continue
                got = rule_match(rule, sub)
                if got is not None and substitute(rule.rhs, got) == want:
                    return name
        return None

    def justify_link(self, a: Term, b: Term, scope: _Scope, citation: Optional[str]) -> str:
        sites = _link_sites(a, b)
        found = self._one_step(sites, scope, citation)
        if found is not None:
            return found
        found = self._one_step([(t, s) for s, t in sites], scope, citation)
        if found is not None:
            return found + " (reversed)"
        raise _StepFailure(f"no single rule instance relates {render(a)} and {render(b)}")

    # -- step execution

    def run_block(self, block: Block, scope: _Scope, goal: Judgment) -> Judgment:
        if not block:
            raise ScriptError("empty proof block")
        concluded: Optional[Judgment] = None
        for step in block:
            concluded = self.run_step(step, scope)
        assert concluded is not None
        if concluded != goal:
            raise _StepFailure(
                f"block concludes {concluded.render()} but its goal is {goal.render()}"
            )
        return concluded

    def run_step(self, step: Step, scope: _Scope) -> Judgment:
        self.step_counter += 1
        index = self.step_counter
        try:
            judgment = self._dispatch(step, scope)
        except _StepFailure as exc:
            raise _StepFailure(f"step {index} ({step.label}): {exc.reason}") from None
        scope.add(step.label, judgment, scope.fixed)
        return judgment

    def _dispatch(self, step: Step, scope: _Scope) -> Judgment:
        if not isinstance(step.goal, Falsum):
            self.check_declared(step.goal.lhs)
            self.check_declared(step.goal.rhs)
        if isinstance(step, ChainStep):
            return self._chain(step, scope)
        if isinstance(step, NormalizeStep):
            return self._normalize(step)
        if isinstance(step, ExtStep):
            return self._ext(step)
        if isinstance(step, TheoremStep):
            return self._theorem(step, scope)
        if isinstance(step, ContradictionStep):
            return self._contradiction(step, scope)
        if isinstance(step, CasesStep):
            return self._cases(step, scope)
        if isinstance(step, KInjectStep):
            return self._k_inject(step, scope)
        if isinstance(step, ApplicationStep):
            return self._application(step, scope)
        if isinstance(step, FalsumStep):
            return self._falsum(step, scope)
        if isinstance(step, RefStep):
            fact = self.fact(scope, step.source).judgment
            if fact != step.goal:
                raise _StepFailure(f"{step.source} states {fact.render()}, not {step.goal.render()}")
            return fact
        raise ScriptError(f"unknown step {step!r}")

    def _chain(self, step: ChainStep, scope: _Scope) -> Judgment:
        goal = step.goal
        if not isinstance(goal, Equal):
            raise _StepFailure("chain proves equalities only")
        terms = step.terms
        if len(terms) < 1:
            raise _StepFailure("chain needs at least one term")
        if terms[0] != goal.lhs or terms[-1] != goal.rhs:
            raise _StepFailure("chain endpoints do not match the stated equality")
        citations = step.citations or (None,) * (len(terms) - 1)
        if len(citations) != len(terms) - 1:
            raise _StepFailure("one citation per chain link is required when citing")
        for i in range(len(terms) - 1):
            self.justify_link(terms[i], terms[i + 1], scope, citations[i])
        return goal

    def _normalize(self, step: NormalizeStep) -> Judgment:
        goal = step.goal
        if not isinstance(goal, Equal):
            raise _StepFailure("normalize proves equalities only")
        left = normalize(self.expand(goal.lhs), self.rules, step.fuel)
        right = normalize(self.expand(goal.rhs), self.rules, step.fuel)
        self._record_trace(step.label, "lhs", left)
        self._record_trace(step.label, "rhs", right)
        if left.exhausted or right.exhausted:
            raise _StepFailure("normalization exhausted its fuel")
        if left.result != right.result:
            raise _StepFailure(
                f"normal forms differ: {render(left.result)} vs {render(right.result)}"
            )
        return goal

    def _ext(self, step: ExtStep) -> Judgment:
        goal = step.goal
        if not isinstance(goal, Equal):
            raise _StepFailure("ext proves equalities only")
        if step.arity < 1:
            raise _StepFailure("ext arity must be >= 1")
        lhs, rhs = self.expand(goal.lhs), self.expand(goal.rhs)
        avoid = free_vars(lhs) | free_vars(rhs)
        applied_l, applied_r = lhs, rhs
        for _ in range(step.arity):
            name = fresh_var(avoid)
            avoid.add(name)
            applied_l = App(applied_l, Var(name))
            applied_r = App(applied_r, Var(name))
        left = normalize(applied_l, self.rules)
        right = normalize(applied_r, self.rules)
        self._record_trace(step.label, "lhs", left)
        self._record_trace(step.label, "rhs", right)
        if left.exhausted or right.exhausted:
            raise _StepFailure("normalization exhausted its fuel")
        if left.result != right.result:
            raise _StepFailure(
                f"applied normal forms differ: {render(left.result)} vs {render(right.result)}"
            )
        return goal

    def _theorem(self, step: TheoremStep, scope: _Scope) -> Judgment:
        if step.theorem_id not in self.registry:
            raise _StepFailure(f"unknown theorem {step.theorem_id!r}")
        record = self.registry.get(step.theorem_id)
        subst = dict(step.subst)
        if record.hypothesis is None:
            try:
                judgment = self.registry.instantiate(step.theorem_id, subst)
            except RegistryError as exc:
                raise _StepFailure(str(exc)) from None
            if judgment != step.goal:
                raise _StepFailure(
                    f"{step.theorem_id} instantiates to {judgment.render()}, not {step.goal.render()}"
                )
            return judgment
        # refutation: discharge its hypothesis equations, conclude falsum
        if not isinstance(step.goal, Falsum):
            raise _StepFailure(f"{step.theorem_id} is a refutation; it concludes false")
        missing = set(record.hypothesis.constants) - set(subst)
        if missing:
            raise _StepFailure(f"instantiation must bind hypothesized constants {sorted(missing)}")
        constants = {c: subst[c] for c in record.hypothesis.constants}
        for eq in record.hypothesis.equations:
            inst_lhs = replace_defined(eq.lhs, constants)
            inst_rhs = replace_defined(eq.rhs, constants)
            patvars = sorted(pattern_vars(inst_lhs) | pattern_vars(inst_rhs))
            renaming = {pv: Var(pv.lstrip("$") + "_inst") for pv in patvars}
            want = Equal(substitute(inst_lhs, renaming), substitute(inst_rhs, renaming))
            if not self._discharged(want, scope):
                raise _StepFailure(
                    f"hypothesis of {step.theorem_id} not discharged: need {want.render()}"
                )
        return FALSUM

    def _discharged(self, want: Equal, scope: _Scope) -> bool:
        want_c = self.canonical(want, frozenset())
        if self.script.hypothesis:
            for eq in self.script.hypothesis.equations:
                pv = sorted(pattern_vars(eq.lhs) | pattern_vars(eq.rhs))
                renaming = {p: Var(p.lstrip("$") + "_hyp") for p in pv}
                have = Equal(substitute(eq.lhs, renaming), substitute(eq.rhs, renaming))
                if self.canonical(have, frozenset()) == want_c:
                    return True
        for _, fact in scope.iter_equalities():
            if self.canonical(fact.judgment, fact.fixed) == want_c:
                return True
        return False

    def _contradiction(self, step: ContradictionStep, scope: _Scope) -> Judgment:
        goal = step.goal
        if not isinstance(goal, NotEqual):
            raise _StepFailure("contradiction blocks prove disequalities")
        inner = scope.child()
        assumed = Equal(goal.lhs, goal.rhs)
        inner.fixed = scope.fixed | frozenset(judgment_vars(assumed))
        inner.add(step.assume_label, assumed, inner.fixed)
        self.run_block(step.body, inner, FALSUM)
        return goal

    def _cases(self, step: CasesStep, scope: _Scope) -> Judgment:
        a, b = step.left, step.right
        eq_term = App(EQ, Pair(a, b))
        branch1 = scope.child()
        branch1.add(step.case_label, Equal(eq_term, P1), branch1.fixed)
        branch1.add(step.dicho_label, Equal(a, b), branch1.fixed)
        self.run_block(step.branch_equal, branch1, step.goal)
        if step.branch_not_equal is None:
            if a != b:
                raise _StepFailure("cases over distinct terms needs both branches")
            return step.goal
        branch2 = scope.child()
        branch2.add(step.case_label, Equal(eq_term, P2), branch2.fixed)
        branch2.add(step.dicho_label, NotEqual(a, b), branch2.fixed)
        self.run_block(step.branch_not_equal, branch2, step.goal)
        return step.goal

    def _k_inject(self, step: KInjectStep, scope: _Scope) -> Judgment:
        fact = self.fact(scope, step.source).judgment
        if not (isinstance(fact, Equal) and isinstance(fact.lhs, KWrap) and isinstance(fact.rhs, KWrap)):
            raise _StepFailure(f"{step.source} is not an equality of k-wrapped terms")
        got = Equal(fact.lhs.body, fact.rhs.body)
        if got != step.goal:
            raise _StepFailure(f"k-injection yields {got.render()}, not {step.goal.render()}")
        return got

    def _application(self, step: ApplicationStep, scope: _Scope) -> Judgment:
        goal = step.goal
        if not isinstance(goal, NotEqual):
            raise _StepFailure("application proves disequalities")
        if not step.args:
            raise _StepFailure("application needs at least one argument")
        left_fact = self.fact(scope, step.left_label).judgment
        right_fact = self.fact(scope, step.right_label).judgment
        neq_fact = self.fact(scope, step.neq_label).judgment
        if not (isinstance(left_fact, Equal) and isinstance(right_fact, Equal)):
            raise _StepFailure("application needs two equalities and a disequality")
        if not isinstance(neq_fact, NotEqual):
            raise _StepFailure("application needs two equalities and a disequality")
        want_left = goal.lhs
        want_right = goal.rhs
        for u in step.args:
            want_left = App(want_left, u)
            want_right = App(want_right, u)
        if left_fact.lhs != want_left or right_fact.lhs != want_right:
            raise _StepFailure("application facts do not apply the stated sides to the arguments")
        if {neq_fact.lhs, neq_fact.rhs} != {left_fact.rhs, right_fact.rhs} and (
            (neq_fact.lhs, neq_fact.rhs) != (left_fact.rhs, right_fact.rhs)
        ):
            raise _StepFailure("the disequality is not about the two application results")
        return goal

    def _falsum(self, step: FalsumStep, scope: _Scope) -> Judgment:
        eq = self.fact(scope, step.eq_label).judgment
        neq = self.fact(scope, step.neq_label).judgment
        if not isinstance(eq, Equal) or not isinstance(neq, NotEqual):
            raise _StepFailure("falsum needs an equality and a disequality")
        same = (eq.lhs, eq.rhs) in ((neq.lhs, neq.rhs), (neq.rhs, neq.lhs))
        if not same:
            raise _StepFailure(
                f"{eq.render()} and {neq.render()} are not about the same pair of terms"
            )
        return FALSUM


def check_script(
    script: ProofScript,
    registry: Registry,
    rs: RuleSet,
    defs: Mapping[str, Term] | None = None,
) -> CheckReport:
    """Check every step of ``script``; returns a report, never raises for math."""
    start = time.perf_counter()
    if script.hypothesis is not None and not isinstance(script.statement, Falsum):
        return CheckReport(script.theorem_id, False, 0, "scripts with hypotheses must prove false")
    if script.hypothesis is None and isinstance(script.statement, Falsum):
        return CheckReport(script.theorem_id, False, 0, "false is only provable under hypotheses")
    checker = _Checker(script, registry, rs, defs)
    scope = _Scope()
    try:
        checker.run_block(script.body, scope, script.statement)
    except _StepFailure as exc:
        return CheckReport(
            script.theorem_id, False, checker.step_counter, exc.reason,
            checker.step_counter, time.perf_counter() - start, tuple(checker.traces),
        )
    return CheckReport(
        script.theorem_id, True, None, "",
        checker.step_counter, time.perf_counter() - start, tuple(checker.traces),
    )


def record_for(script: ProofScript, dependencies: tuple[str, ...]) -> TheoremRecord:
    return TheoremRecord(
        script.theorem_id, script.statement, script.hypothesis, dependencies, script.source,
    )
