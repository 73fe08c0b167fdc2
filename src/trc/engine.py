"""Oriented rewrite rules and fuel-bounded normalization for TRC terms.

The core rule set houses the calculus' equations as left-to-right rewrite
rules.  Normalization is deterministic: at each step the leftmost-outermost
position where any rule applies is rewritten with the first matching rule in
rule-set order.  Nontermination is a normal, reportable outcome (the fuel
bound), never a hang.

Redexes are found through a per-rule-set index keyed by a term's root shape
(its constructor and, for an application, the head of its function side), so
only rules whose left-hand side can match are tried at a position.  After a
rewrite at position p the search resumes there instead of at the root: the
ancestors of p are re-checked top-down, then p's subtree and the subtrees to
the right of the path are scanned.  The subtrees to the left of the path are
unchanged and were already found redex-free.

Two of the core rules exist in a corrected and an uncorrected variant (see
``EngineConfig.corrected_axioms``): the pair-application rule
``<x,y> z -> <x z, y z>`` and the abstraction rule
``Abst x y z -> x k(z) (y z)``.  The uncorrected spellings
(``<x,y> z -> <x y, x z>`` and ``Abst x y z -> x k(y) (y z)``) reproduce a
documented misprint and are kept behind the flag purely for regression tests;
they are inconsistent with the corrected theory's own derivations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Protocol

from .terms import (
    ABST, ARG, EQ, FN, KBODY, LEFT, P1, P2, RIGHT,
    App, KWrap, Pair, PatVar, Term, TrcError, Var,
    expand_defined, format_position, free_vars, fresh_var, match_pattern,
    navigate, pattern_vars, render, replace_at, substitute, to_pattern,
    with_child, Position,
)


class RuleError(TrcError):
    """Raised when a rule or rule registration is malformed."""


@dataclass(frozen=True)
class EngineConfig:
    fuel: int = 10000
    ext_depth: int = 4
    corrected_axioms: bool = True
    surjective_pairing: bool = True
    eq_reflexivity: bool = True

    def __post_init__(self) -> None:
        if self.fuel < 1:
            raise ValueError("fuel must be >= 1")
        if self.ext_depth < 0:
            raise ValueError("ext_depth must be >= 0")


@dataclass(frozen=True)
class Rule:
    """Oriented schematic equation.

    ``identical`` names two pattern variables that must bind syntactically
    identical subterms for the rule to fire (only used by the Eq rule).
    """

    name: str
    lhs: Term
    rhs: Term
    provenance: str  # "axiom", "derived:<id>", "hypothesis:<id>", "fact"
    identical: Optional[tuple[str, str]] = None

    def __post_init__(self) -> None:
        extra = pattern_vars(self.rhs) - pattern_vars(self.lhs)
        if extra:
            raise RuleError(f"rule {self.name}: rhs pattern variables {sorted(extra)} not bound by lhs")


def root_shape(t: Term) -> object:
    """Index key of ``t``: its constructor, or for an application the
    constructor (and name, for an atom) of its function side."""
    if type(t) is not App:
        return type(t)
    head = t.fn
    return type(head), getattr(head, "name", None)


def lhs_fits(lhs: Term, key: object) -> bool:
    """Whether a left-hand side can match some term whose shape is ``key``."""
    if type(lhs) is PatVar:
        return True
    if type(lhs) is not App:
        return key is type(lhs)
    return type(key) is tuple and (type(lhs.fn) is PatVar or key == root_shape(lhs))


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    config: EngineConfig
    # shape key -> the rules that can match a term of that shape, filled on use
    _index: dict[object, tuple[Rule, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise RuleError("rule names must be unique")

    def extended(self, more: Iterable[Rule]) -> "RuleSet":
        return RuleSet(self.rules + tuple(more), self.config)

    def candidates(self, t: Term) -> tuple[Rule, ...]:
        """The rules that can match at the root of ``t``, in rule-set order."""
        key = root_shape(t)
        found = self._index.get(key)
        if found is None:
            found = self._index[key] = tuple(r for r in self.rules if lhs_fits(r.lhs, key))
        return found


def _pv(name: str) -> PatVar:
    return PatVar("$" + name)


def core_rules(config: EngineConfig | None = None) -> RuleSet:
    """The core rule set, in fixed order, honoring the config toggles."""
    cfg = config or EngineConfig()
    x, y, z = _pv("x"), _pv("y"), _pv("z")
    a, b = _pv("a"), _pv("b")
    rules: list[Rule] = [
        Rule("K", App(KWrap(x), y), x, "axiom"),
        Rule("P1-proj", App(P1, Pair(a, b)), a, "axiom"),
        Rule("P2-proj", App(P2, Pair(a, b)), b, "axiom"),
    ]
    if cfg.surjective_pairing:
        rules.append(Rule("surjective-pairing", Pair(App(P1, x), App(P2, x)), x, "axiom"))
    if cfg.corrected_axioms:
        rules.append(Rule("pair-application", App(Pair(x, y), z), Pair(App(x, z), App(y, z)), "axiom"))
        rules.append(Rule("Abst", App(App(App(ABST, x), y), z), App(App(x, KWrap(z)), App(y, z)), "axiom"))
    else:
        rules.append(Rule("pair-application", App(Pair(x, y), z), Pair(App(x, y), App(x, z)), "axiom"))
        rules.append(Rule("Abst", App(App(App(ABST, x), y), z), App(App(x, KWrap(y)), App(y, z)), "axiom"))
    if cfg.eq_reflexivity:
        rules.append(Rule("Eq-refl", App(EQ, Pair(a, b)), P1, "axiom", identical=("$a", "$b")))
    return RuleSet(tuple(rules), cfg)


def rule_match(rule: Rule, t: Term) -> Optional[dict[str, Term]]:
    subst = match_pattern(rule.lhs, t)
    if subst is None:
        return None
    if rule.identical is not None:
        p, q = rule.identical
        if subst.get(p) != subst.get(q):
            return None
    return subst


@dataclass(frozen=True)
class TraceStep:
    position: Position
    rule_name: str
    before: Term
    after: Term

    def line(self, number: int) -> str:
        return f"{number} {format_position(self.position)} {self.rule_name} ⊢ {render(self.after)}"


@dataclass(frozen=True)
class NormalizeResult:
    result: Term
    trace: tuple[TraceStep, ...]
    exhausted: bool

    def lines(self) -> list[str]:
        return [step.line(i) for i, step in enumerate(self.trace, start=1)]


def rewrite_at(t: Term, pos: Position, rule: Rule) -> Optional[Term]:
    """Apply ``rule`` at exactly ``pos``; None when the rule does not match there."""
    sub = navigate(t, pos)
    subst = rule_match(rule, sub)
    if subst is None:
        return None
    return replace_at(t, pos, substitute(rule.rhs, subst))


# A path leads from the root to a position: the (ancestor, selector) pairs
# passed on the way down.
Path = list[tuple[Term, str]]
Redex = tuple[Path, Rule, dict[str, Term]]

_RIGHT_OF = {FN: ARG, LEFT: RIGHT}


def _scan(rs: RuleSet, t: Term, path: Path) -> Optional[Redex]:
    """First redex in preorder within ``t``, the subterm at the end of ``path``."""
    stack: list[tuple[Term, object]] = [(t, None)]
    while stack:
        sub, up = stack.pop()  # up: (parent, selector, parent's up), or None at t
        for rule in rs.candidates(sub):
            subst = rule_match(rule, sub)
            if subst is not None:
                below: Path = []
                while up is not None:
                    parent, sel, up = up
                    below.append((parent, sel))
                below.reverse()
                return path + below, rule, subst
        if type(sub) is App:
            stack.append((sub.arg, (sub, ARG, up)))
            stack.append((sub.fn, (sub, FN, up)))
        elif type(sub) is Pair:
            stack.append((sub.right, (sub, RIGHT, up)))
            stack.append((sub.left, (sub, LEFT, up)))
        elif type(sub) is KWrap:
            stack.append((sub.body, (sub, KBODY, up)))
    return None


def _find(rs: RuleSet, path: Path, t: Term) -> Optional[Redex]:
    """Leftmost-outermost redex after a rewrite at the end of ``path``.

    ``path`` holds the rebuilt ancestors and ``t`` is the new subterm at the
    rewritten position.  Everything left of the path is unchanged and known
    to be redex-free, so it is skipped.  An empty path scans ``t`` whole.
    """
    for depth, (node, _) in enumerate(path):
        for rule in rs.candidates(node):
            subst = rule_match(rule, node)
            if subst is not None:
                return path[:depth], rule, subst
    found = _scan(rs, t, path)
    depth = len(path)
    while found is None and depth:
        depth -= 1
        node, sel = path[depth]
        if sel in _RIGHT_OF:
            sel = _RIGHT_OF[sel]
            found = _scan(rs, navigate(node, (sel,)), path[:depth] + [(node, sel)])
    return found


def _contract(redex: Redex) -> tuple[Term, Path, Term]:
    """Rewrite at ``redex``: the new root, the rebuilt path and the contractum."""
    path, rule, subst = redex
    new = cur = substitute(rule.rhs, subst)
    rebuilt: Path = []
    for node, sel in reversed(path):
        cur = with_child(node, sel, cur)
        rebuilt.append((cur, sel))
    rebuilt.reverse()
    return cur, rebuilt, new


def _position(path: Path) -> Position:
    return tuple(sel for _, sel in path)


def rewrite_step(t: Term, rs: RuleSet) -> Optional[TraceStep]:
    """One step: first rule (in rule-set order) at the leftmost-outermost position."""
    redex = _find(rs, [], t)
    if redex is None:
        return None
    after, _, _ = _contract(redex)
    return TraceStep(_position(redex[0]), redex[1].name, t, after)


def normalize(t: Term, rs: RuleSet, fuel: int | None = None) -> NormalizeResult:
    limit = rs.config.fuel if fuel is None else fuel
    trace: list[TraceStep] = []
    cur = t
    redex = _find(rs, [], t)
    for _ in range(limit):
        if redex is None:
            return NormalizeResult(cur, tuple(trace), False)
        after, path, new = _contract(redex)
        trace.append(TraceStep(_position(path), redex[1].name, cur, after))
        cur = after
        redex = _find(rs, path, new)
    # fuel consumed: exhausted only when a redex actually remains
    return NormalizeResult(cur, tuple(trace), redex is not None)


# ---------------------------------------------------------------------------
# Extensional equality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtLevel:
    fresh: Optional[str]  # variable applied to reach this level (None at level 0)
    left: NormalizeResult
    right: NormalizeResult


@dataclass(frozen=True)
class ExtEvidence:
    equal: bool
    levels: tuple[ExtLevel, ...]

    def __bool__(self) -> bool:
        return self.equal

    @property
    def fresh_vars(self) -> tuple[str, ...]:
        return tuple(lv.fresh for lv in self.levels if lv.fresh is not None)

    def summary(self) -> str:
        steps = sum(len(lv.left.trace) + len(lv.right.trace) for lv in self.levels)
        depth = len(self.levels) - 1
        if self.equal:
            return f"EQUAL (ext depth {depth}, {steps} rewrite steps)"
        return f"UNKNOWN (searched ext depth {depth}, {steps} rewrite steps)"


def ext_equal(
    s: Term,
    t: Term,
    rs: RuleSet,
    defs: Mapping[str, Term] | None = None,
    ext_depth: int | None = None,
    fuel: int | None = None,
) -> ExtEvidence:
    """Decide equality up to extensionality by bounded fresh-variable application.

    An ``equal`` result is sound (a genuine equality of the calculus); a
    non-equal result is merely inconclusive.
    """
    depth = rs.config.ext_depth if ext_depth is None else ext_depth
    left = expand_defined(s, defs) if defs else s
    right = expand_defined(t, defs) if defs else t
    levels: list[ExtLevel] = []
    fresh: Optional[str] = None
    used: set[str] = set()
    for _ in range(depth + 1):
        ln = normalize(left, rs, fuel)
        rn = normalize(right, rs, fuel)
        levels.append(ExtLevel(fresh, ln, rn))
        if ln.result == rn.result:
            return ExtEvidence(True, tuple(levels))
        avoid = free_vars(ln.result) | free_vars(rn.result) | used
        fresh = fresh_var(avoid)
        used.add(fresh)
        left = App(ln.result, Var(fresh))
        right = App(rn.result, Var(fresh))
    return ExtEvidence(False, tuple(levels))


# ---------------------------------------------------------------------------
# Derived-rule registration
# ---------------------------------------------------------------------------

class EqualityRecord(Protocol):
    """What the engine needs to know about a kernel-checked theorem."""

    @property
    def theorem_id(self) -> str: ...

    def equation_sides(self) -> Optional[tuple[Term, Term]]: ...


def register_derived_rule(rs: RuleSet, lhs: Term, rhs: Term, record: EqualityRecord) -> RuleSet:
    """Extend ``rs`` with a derived rule backed by a checked equality theorem.

    The record's statement must be exactly ``lhs = rhs`` (with object
    variables where the rule has pattern variables); anything else is
    rejected.  Extending a rule set never changes the meaning of equalities
    already derivable, only their reachability by rewriting.
    """
    sides = record.equation_sides()
    if sides is None:
        raise RuleError(f"theorem {record.theorem_id} is not an equality")
    want_lhs, want_rhs = to_pattern(sides[0]), to_pattern(sides[1])
    if (want_lhs, want_rhs) != (lhs, rhs):
        raise RuleError(
            f"statement mismatch for {record.theorem_id}: "
            f"rule says {render(lhs)} -> {render(rhs)}"
        )
    return rs.extended([Rule(record.theorem_id, lhs, rhs, f"derived:{record.theorem_id}")])
