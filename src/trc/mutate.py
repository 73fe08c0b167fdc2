"""Single-fault mutations of proof scripts, for kill-rate testing.

Every mutant differs from its source script by exactly one corruption:

* a projection constant flipped (P1 to P2 or back) somewhere in a chain
  term, a cases scrutinee, an instantiation value, or the statement;
* a chain with one element dropped;
* an instantiation value replaced outright;
* the two branches of a cases step exchanged.

A sound checker must reject every mutant of a passing script.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from .kernel import (
    CasesStep, ChainStep, ContradictionStep, Falsum, Judgment, ProofScript,
    Step, TheoremStep,
)
from .terms import App, Const, P1, P2, Term, nodes, rebuild


def _count_projections(t: Term) -> int:
    return sum(1 for sub in nodes(t) if type(sub) is Const and sub.name in ("P1", "P2"))


def _swap_projection(t: Term, index: int) -> Term:
    """Copy of ``t`` with the index-th projection occurrence flipped."""
    seen = -1

    def leaf(a: Term) -> Term:
        nonlocal seen
        if type(a) is Const and a.name in ("P1", "P2"):
            seen += 1
            if seen == index:
                return P2 if a.name == "P1" else P1
        return a

    return rebuild(t, leaf)


def _term_mutants(t: Term) -> Iterator[tuple[str, Term]]:
    for i in range(_count_projections(t)):
        yield f"projection {i} flipped", _swap_projection(t, i)


def _step_mutants(step: Step) -> Iterator[tuple[str, Step]]:
    if isinstance(step, ChainStep):
        if len(step.terms) >= 2:
            for i in range(len(step.terms)):
                dropped = step.terms[:i] + step.terms[i + 1 :]
                yield (f"chain element {i} dropped",
                       ChainStep(step.label, step.goal, dropped, None))
        for i, term in enumerate(step.terms):
            for desc, mutated in _term_mutants(term):
                terms = step.terms[:i] + (mutated,) + step.terms[i + 1 :]
                yield (f"chain term {i}: {desc}",
                       ChainStep(step.label, step.goal, terms, step.citations))
    elif isinstance(step, TheoremStep):
        for i, (name, value) in enumerate(step.subst):
            for desc, mutated in _term_mutants(value):
                subst = step.subst[:i] + ((name, mutated),) + step.subst[i + 1 :]
                yield (f"instantiation {name}: {desc}",
                       TheoremStep(step.label, step.goal, step.theorem_id, subst))
            wrong = P1 if value != P1 else P2
            subst = step.subst[:i] + ((name, wrong),) + step.subst[i + 1 :]
            yield (f"instantiation {name} replaced",
                   TheoremStep(step.label, step.goal, step.theorem_id, subst))
    elif isinstance(step, CasesStep):
        for desc, mutated in _term_mutants(step.left):
            yield (f"cases left scrutinee: {desc}",
                   CasesStep(step.label, step.goal, mutated, step.right,
                             step.case_label, step.dicho_label,
                             step.branch_equal, step.branch_not_equal))
        for desc, mutated in _term_mutants(step.right):
            yield (f"cases right scrutinee: {desc}",
                   CasesStep(step.label, step.goal, step.left, mutated,
                             step.case_label, step.dicho_label,
                             step.branch_equal, step.branch_not_equal))
        if step.branch_not_equal is not None:
            yield ("cases branches swapped",
                   CasesStep(step.label, step.goal, step.left, step.right,
                             step.case_label, step.dicho_label,
                             step.branch_not_equal, step.branch_equal))
        for i, sub in enumerate(step.branch_equal):
            for desc, mutated in _step_mutants(sub):
                block = step.branch_equal[:i] + (mutated,) + step.branch_equal[i + 1 :]
                yield (f"p1 branch step {i}: {desc}",
                       CasesStep(step.label, step.goal, step.left, step.right,
                                 step.case_label, step.dicho_label, block,
                                 step.branch_not_equal))
        if step.branch_not_equal is not None:
            for i, sub in enumerate(step.branch_not_equal):
                for desc, mutated in _step_mutants(sub):
                    block = step.branch_not_equal[:i] + (mutated,) + step.branch_not_equal[i + 1 :]
                    yield (f"p2 branch step {i}: {desc}",
                           CasesStep(step.label, step.goal, step.left, step.right,
                                     step.case_label, step.dicho_label,
                                     step.branch_equal, block))
    elif isinstance(step, ContradictionStep):
        for i, sub in enumerate(step.body):
            for desc, mutated in _step_mutants(sub):
                body = step.body[:i] + (mutated,) + step.body[i + 1 :]
                yield (f"contradiction step {i}: {desc}",
                       ContradictionStep(step.label, step.goal, step.assume_label, body))


def enumerate_mutations(script: ProofScript) -> Iterator[tuple[str, ProofScript]]:
    """All single-fault corruptions of ``script``."""
    for i, step in enumerate(script.body):
        for desc, mutated in _step_mutants(step):
            body = script.body[:i] + (mutated,) + script.body[i + 1 :]
            yield (f"step {i}: {desc}",
                   ProofScript(script.theorem_id, script.title, script.hypothesis,
                               script.statement, script.lets, body, script.source))
    # statement-level projection flips, propagated into step goals that
    # restate the statement (the whole script now claims something false)
    if not isinstance(script.statement, Falsum):
        joined = App(script.statement.lhs, script.statement.rhs)
        for i in range(_count_projections(joined)):
            swapped = _swap_projection(joined, i)
            assert isinstance(swapped, App)
            mutated_j: Judgment = type(script.statement)(swapped.fn, swapped.arg)
            body = tuple(
                dataclasses.replace(s, goal=mutated_j) if s.goal == script.statement else s
                for s in script.body
            )
            yield (f"statement projection {i} flipped",
                   ProofScript(script.theorem_id, script.title, script.hypothesis,
                               mutated_j, script.lets, body, script.source))
