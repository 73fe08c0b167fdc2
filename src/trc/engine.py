"""Oriented rewrite rules and fuel-bounded normalization for TRC terms.

The core rule set houses the calculus' equations as left-to-right rewrite
rules.  Normalization is deterministic: at each step the leftmost-outermost
position where any rule applies is rewritten with the first matching rule in
rule-set order.  Nontermination is a normal, reportable outcome (the fuel
bound), never a hang.

Redexes are found through a per-rule-set index keyed by a term's root shape
(its constructor and, for an application, the head of its function side), so
only rules whose left-hand side can match are tried at a position.  An entry
is built on its key's first use by comparing keys: each rule works out once,
when it is made, the key its left-hand side fits (any key, any application's,
or one).
``normalize`` is one preorder scan over an explicit stack of subterms still to
scan, never a leaf of a class no left-hand side fits (any atom, under the core
rules).  It keeps the path from the root to the subterm in hand as a zipper
(Huet, "The Zipper", JFP 1997): a rewrite rebuilds only the parent, and an
ancestor above it is rebuilt when it is re-checked, when the scan moves to a
right sibling, or at the end.  The ancestors of a redex are redex-free, so a
rule can newly match one only within its reach of the rewrite (the depth of
its left-hand side's deepest non-variable node), unless it compares subterms
(a repeated pattern variable, as in ``Eq-refl``).  So an ancestor within the
widest reach re-tries all its candidates, and one above it only the unbounded
ones, which its index entry lists apart.  The first ancestor that became a
redex is contracted next; otherwise the scan resumes at the contractum, then
right of the path (the left of it is unchanged and redex-free).  A trace step
builds its position and the term after it when they are read.

Each rule is compiled, on first use, into one generated Python function that
takes a term and returns the contractum at its root (the instantiated
right-hand side), or None: a straight-line check per left-hand-side node, the
repeated-pattern-variable comparisons in the same preorder as
``terms.match_pattern``, and one assignment per right-hand-side node, with the
rule's ground subterms passed in as constants.  Compiled functions are shared
through one dict keyed by the spelling of the rule's two sides and emptied
when it holds 1,024 of them.  That pays across runs in one process (the
benchmark's rounds, the tests, a library loop): one ``run_corpus()`` compiles
51 of the 52 rules it builds, and a second run in the same process none.
``rule_match`` is the one call point.

Two of the core rules exist in a corrected and an uncorrected variant (see
``EngineConfig.corrected_axioms``): the pair-application rule
``<x,y> z -> <x z, y z>`` and the abstraction rule
``Abst x y z -> x k(z) (y z)``.  The uncorrected spellings
(``<x,y> z -> <x y, x z>`` and ``Abst x y z -> x k(y) (y z)``) reproduce a
documented misprint and are kept behind the flag purely for regression tests;
they are inconsistent with the corrected theory's own derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, takewhile
from typing import Callable, Hashable, Iterable, Mapping, Optional

from .terms import (
    ABST, ARG, EQ, FN, KBODY, LEFT, P1, P2, RIGHT,
    App, Const, Defined, KWrap, Pair, PatVar, Record, Term, TrcError, Var,
    expand_defined, format_position, free_vars, fresh_vars, nodes, pattern_vars,
    render, replace_at, with_child, Position,
)
# Not called here: the reference path that compiled rules reproduce, and a
# name bench/tracer.py patches to count first-order matches.
from .terms import match_pattern  # noqa: F401


class RuleError(TrcError):
    """Raised when a rule or rule registration is malformed."""


class EngineConfig(Record):
    fuel: int = 10000
    ext_depth: int = 4
    corrected_axioms: bool = True
    surjective_pairing: bool = True
    eq_reflexivity: bool = True

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if self.fuel < 1:
            raise ValueError("fuel must be >= 1")
        if self.ext_depth < 0:
            raise ValueError("ext_depth must be >= 0")


class Rule(Record):
    """Oriented schematic equation.  A pattern variable that occurs more
    than once in ``lhs`` must bind syntactically equal subterms at each
    occurrence for the rule to fire."""

    name: str
    lhs: Term
    rhs: Term
    _fire: Optional[Callable[[Term], Optional[Term]]]  # the compiled rule, None until its first ``rule_match``
    # how far above a rewrite the rule can newly match: the depth of the
    # deepest non-variable node of ``lhs``, or None (unbounded) when a match
    # also compares subterms, for a repeated variable
    _reach: Optional[int]
    # the index key ``lhs`` fits: None (any key) for a bare pattern variable,
    # ``App`` (any application's) for one applied, else its own ``root_shape``
    _key: object

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        lhs, names, deepest = self.lhs, [], 0
        todo = [(lhs, 0)]  # (node of lhs, its depth)
        while todo:
            sub, depth = todo.pop()
            if type(sub) is PatVar:
                names.append(sub.name)
            else:
                deepest = max(deepest, depth)
                todo.extend((getattr(sub, f), depth + 1) for f in _FIELDS.get(type(sub), ()))
        extra = pattern_vars(self.rhs).difference(names)
        if extra:
            raise RuleError(f"rule {self.name}: rhs pattern variables {sorted(extra)} not bound by lhs")
        object.__setattr__(self, "_fire", None)
        object.__setattr__(self, "_reach", deepest if len(names) == len(set(names)) else None)
        wild = type(lhs) is PatVar or type(lhs) is App and type(lhs.fn) is PatVar
        object.__setattr__(self, "_key", (None if type(lhs) is PatVar else App) if wild else root_shape(lhs))


# child fields of each compound constructor, in preorder
_FIELDS = {App: ("fn", "arg"), Pair: ("left", "right"), KWrap: ("body",)}


def _spelling(t: Term) -> tuple:
    """Constructors and atom names of ``t`` in preorder.  Unlike ``render``
    this is injective: ``Var("m")`` and ``Defined("m")`` both print ``m``."""
    out: list = []
    for sub in nodes(t):
        cls = type(sub)
        out.append(cls)
        if cls not in _FIELDS:
            out.append(sub.name)
    return tuple(out)


# compiled rules by the spelling of their two sides, cleared when full
_COMPILED: dict[tuple[tuple, tuple], Callable[[Term], Optional[Term]]] = {}
_COMPILED_MAX = 1024


def _compile(lhs: Term, rhs: Term) -> Callable[[Term], Optional[Term]]:
    """The generated match-and-instantiate function of the rule ``lhs -> rhs``."""
    lines = ["def fire(t):"]
    namespace: dict[str, object] = {c.__name__: c for c in (App, Pair, KWrap, Var, Const, Defined)}
    bound: dict[str, str] = {}  # pattern variable -> local holding its binding
    # The left-hand side in the preorder of ``match_pattern``, so repeated
    # pattern variables are compared at the same points in the same order.
    todo: list[tuple[Term, str]] = [(lhs, "t")]  # (pattern node, expression of its subject)
    while todo:
        pattern, subject = todo.pop()
        if subject != "t":  # load a child into a local of its own
            local = f"s{len(lines)}"
            lines.append(f"    {local} = {subject}")
            subject = local
        cls = type(pattern)
        if cls is PatVar:
            seen = bound.get(pattern.name)
            if seen is None:
                bound[pattern.name] = subject
            else:
                lines.append(f"    if {seen} != {subject}: return None")
        elif cls in _FIELDS:
            lines.append(f"    if type({subject}) is not {cls.__name__}: return None")
            todo.extend((getattr(pattern, f), f"{subject}.{f}") for f in reversed(_FIELDS[cls]))
        else:
            lines.append(f"    if type({subject}) is not {cls.__name__} or {subject}.name != {pattern.name!r}: return None")
    # The right-hand side bottom-up: one assignment per node above a bound
    # variable, ground subterms as constants.  Nested expressions would hit
    # the parser's nesting limit on deep rules.
    done: list[tuple[Optional[str], Term]] = []  # finished subterms: (expression or None when ground, node)
    pending: list = [rhs]  # subterms to visit, or (node,) once its children are done
    while pending:
        sub = pending.pop()
        cls = type(sub)
        if cls is tuple:
            node = sub[0]
            arity = len(_FIELDS[type(node)])
            kids = done[-arity:]
            del done[-arity:]
            if all(expr is None for expr, _ in kids):
                done.append((None, node))
                continue
            args = []
            for expr, kid in kids:
                if expr is None:
                    expr = f"c{len(namespace)}"
                    namespace[expr] = kid
                args.append(expr)
            local = f"r{len(lines)}"
            lines.append(f"    {local} = {type(node).__name__}({', '.join(args)})")
            done.append((local, node))
        elif cls in _FIELDS:
            pending.append((sub,))
            pending.extend(getattr(sub, f) for f in reversed(_FIELDS[cls]))
        else:
            # as in ``substitute``, a variable named like a bound pattern variable is replaced too
            done.append((bound.get(sub.name) if cls is Var or cls is PatVar else None, sub))
    expr, _ = done[0]
    if expr is None:
        expr = "rhs"
        namespace[expr] = rhs
    lines.append(f"    return {expr}")
    exec(compile("\n".join(lines), "<rule>", "exec"), namespace)
    return namespace["fire"]  # type: ignore[return-value]


def root_shape(t: Term) -> object:
    """Index key of ``t``: its constructor, or for an application the
    constructor (and name, for an atom) of its function side."""
    if type(t) is not App:
        return type(t)
    head = t.fn
    return type(head), getattr(head, "name", None)


class RuleSet(Record):
    rules: tuple[Rule, ...]
    config: EngineConfig
    # shape key -> its entry, built on first use: the rules that can match a
    # term of that shape, in rule-set order, and the unbounded ones among them
    _index: dict[object, tuple[tuple[Rule, ...], tuple[Rule, ...]]]
    _width: int  # the largest finite reach of a rule
    _dead: frozenset[type]  # the atom classes no left-hand side fits
    # key -> this rule set extended by the rules it names, built on first use
    _extensions: dict[Hashable, "RuleSet"]
    __slots__ = ("__weakref__",)  # weakly referable, so its lifetime can be observed

    def __init__(self, rules: tuple[Rule, ...], config: EngineConfig) -> None:
        super().__init__(rules, config)
        names = [r.name for r in rules]
        if len(names) != len(set(names)):
            raise RuleError("rule names must be unique")
        object.__setattr__(self, "_index", {})
        object.__setattr__(self, "_width", max([r._reach or 0 for r in rules], default=0))
        fits = {type(r.lhs) for r in rules}  # as its key says, a bare pattern variable fits any atom
        object.__setattr__(self, "_dead", frozenset(() if PatVar in fits else {Var, Const, Defined, PatVar} - fits))
        object.__setattr__(self, "_extensions", {})

    def extended(self, more: Iterable[Rule]) -> "RuleSet":
        return RuleSet(self.rules + tuple(more), self.config)

    def extended_once(self, key: Hashable, more: Callable[[], Iterable[Rule]]) -> "RuleSet":
        """``extended(more())``, built once per ``key`` and kept, with its
        index, for as long as this rule set lives."""
        found = self._extensions.get(key)
        if found is None:
            found = self._extensions[key] = self.extended(more())
        return found

    def candidates(self, t: Term) -> tuple[Rule, ...]:
        """The rules that can match at the root of ``t``, in rule-set order."""
        key = root_shape(t)
        return (self._index.get(key) or self._entry(key))[0]

    def _entry(self, key: object) -> tuple[tuple[Rule, ...], tuple[Rule, ...]]:
        """Build and keep the index entry of shape ``key``."""
        fits = (key, None, App) if type(key) is tuple else (key, None)  # the rule keys that fit ``key``
        rules = tuple(r for r in self.rules if r._key in fits)
        entry = self._index[key] = (rules, tuple(r for r in rules if r._reach is None))
        return entry


def _pv(name: str) -> PatVar:
    return PatVar("$" + name)


def core_rules(config: EngineConfig | None = None) -> RuleSet:
    """The core rule set, in fixed order, honoring the config toggles."""
    cfg = config or EngineConfig()
    x, y, z = _pv("x"), _pv("y"), _pv("z")
    a, b = _pv("a"), _pv("b")
    rules: list[Rule] = [
        Rule("K", App(KWrap(x), y), x),
        Rule("P1-proj", App(P1, Pair(a, b)), a),
        Rule("P2-proj", App(P2, Pair(a, b)), b),
    ]
    if cfg.surjective_pairing:
        rules.append(Rule("surjective-pairing", Pair(App(P1, x), App(P2, x)), x))
    if cfg.corrected_axioms:
        rules.append(Rule("pair-application", App(Pair(x, y), z), Pair(App(x, z), App(y, z))))
        rules.append(Rule("Abst", App(App(App(ABST, x), y), z), App(App(x, KWrap(z)), App(y, z))))
    else:
        rules.append(Rule("pair-application", App(Pair(x, y), z), Pair(App(x, y), App(x, z))))
        rules.append(Rule("Abst", App(App(App(ABST, x), y), z), App(App(x, KWrap(y)), App(y, z))))
    if cfg.eq_reflexivity:
        rules.append(Rule("Eq-refl", App(EQ, Pair(a, a)), P1))
    return RuleSet(tuple(rules), cfg)


def rule_match(rule: Rule, t: Term) -> Optional[Term]:
    """The contractum of ``rule`` at the root of ``t``, or None when it does
    not match there.  The rule is compiled, or found compiled, on first use."""
    fire = rule._fire
    if fire is None:
        key = (_spelling(rule.lhs), _spelling(rule.rhs))
        fire = _COMPILED.get(key)
        if fire is None:
            if len(_COMPILED) >= _COMPILED_MAX:
                _COMPILED.clear()
            fire = _COMPILED[key] = _compile(rule.lhs, rule.rhs)
        object.__setattr__(rule, "_fire", fire)
    return fire(t)


class TraceStep(Record):
    """One rewrite: ``rule_name`` contracted the redex at ``position``, giving
    ``after``.  A step that ``normalize`` records holds the redex's scan frame,
    the contractum and the step before it (or the input term), and builds
    ``position`` and ``after`` when either is first read: ``after`` by one
    forward ``replace_at`` replay from the last step whose ``after`` is built."""

    position: Position
    rule_name: str
    after: Term
    _lazy: Optional[tuple]  # (frame, contractum, the step before), None once built

    def __getattr__(self, name: str) -> object:
        if name not in ("position", "after"):
            raise AttributeError(name)
        pending, before = [], self
        while type(before) is TraceStep and before._lazy is not None:
            pending.append(before)
            before = before._lazy[2]
        term = before.after if type(before) is TraceStep else before
        for step in reversed(pending):
            sels, frame = [], step._lazy[0]
            while frame[0] is not None:
                sels.append(frame[1])
                frame = frame[0]
            object.__setattr__(step, "position", tuple(reversed(sels)))
            term = replace_at(term, step.position, step._lazy[1])
            object.__setattr__(step, "after", term)
            object.__setattr__(step, "_lazy", None)
        return getattr(self, name)

    def line(self, number: int) -> str:
        return f"{number} {format_position(self.position)} {self.rule_name} ⊢ {render(self.after)}"


_set_rule_name, _set_lazy = TraceStep.rule_name.__set__, TraceStep._lazy.__set__


# Still a dataclass: the benchmark's tests copy it with ``dataclasses.replace``. So every start-up
# imports ``dataclasses``: 5.9 of the 10.7 ms of ``import trc.cli`` (``-X importtime``, with bytecode).
@dataclass(frozen=True)
class NormalizeResult:
    result: Term
    trace: tuple[TraceStep, ...]
    exhausted: bool

    def lines(self) -> list[str]:
        return [step.line(i) for i, step in enumerate(self.trace, start=1)]


def _rebuild(path: list[Term], frames: list[tuple], stale: int, upto: int) -> int:
    """Rebuild ``path[upto:stale]`` bottom-up; returns the new stale mark."""
    for i in range(stale - 1, upto - 1, -1):
        path[i] = with_child(path[i], frames[i + 1][1], path[i + 1])
    return min(stale, upto)


def normalize(t: Term, rs: RuleSet, fuel: int | None = None) -> NormalizeResult:
    """Rewrite ``t`` leftmost-outermost until no rule applies or ``fuel`` steps
    are taken; ``exhausted`` tells whether a redex remains."""
    limit = rs.config.fuel if fuel is None else fuel
    index, width, dead = rs._index, rs._width, rs._dead
    trace: list[TraceStep] = []
    step: object = t  # the last step taken, or the input term
    todo = [(None, "", t, 0)]  # subterms still to scan, as frames: (parent's frame, selector, subterm, depth)
    # The path from the root to the subterm in hand, as a zipper: the node,
    # frame and index entry at each depth, and the depths whose entry holds an
    # unbounded rule.  The nodes above depth ``stale`` may hold an old child.
    path: list[Term] = []
    frames: list[tuple] = []
    entries: list = []
    far: list[int] = []
    stale = 0
    while todo:
        _, _, sub, depth = frame = todo.pop()
        if depth < len(path):  # a right sibling: cut the path above it
            if stale >= depth:
                stale = _rebuild(path, frames, stale, depth - 1)
            del path[depth:], frames[depth:], entries[depth:]
            while far and far[-1] >= depth:
                far.pop()
        key = root_shape(sub)
        entry = index.get(key) or rs._entry(key)
        path.append(sub)
        frames.append(frame)
        entries.append(entry)
        while True:  # the subterm at ``depth`` is registered: contract it while it is a redex
            if entry[1]:
                far.append(depth)
            for rule in entry[0]:
                new = rule_match(rule, sub)
                if new is not None:
                    break
            else:
                break
            # Contract, re-register the parent (its shape follows its function
            # side) and re-check the ancestors top-down: within the widest
            # finite reach for all their candidates, above it for the unbounded
            # ones only.  The ancestors were redex-free, and a rule that reaches
            # no deeper than the rewrite still fails there.  The first that
            # became a redex is contracted next.
            while new is not None:
                if len(trace) == limit:
                    _rebuild(path, frames, stale, 0)
                    return NormalizeResult(path[0], tuple(trace), True)
                path[depth] = new
                step, before = object.__new__(TraceStep), step
                _set_rule_name(step, rule.name)
                _set_lazy(step, (frames[depth], new, before))
                trace.append(step)
                stale = depth
                while far and far[-1] >= depth - 1:
                    far.pop()
                if depth:
                    path[depth - 1] = with_child(path[depth - 1], frames[depth][1], new)
                    stale = depth - 1
                    key = root_shape(path[depth - 1])
                    entries[depth - 1] = entry = index.get(key) or rs._entry(key)
                    if entry[1]:
                        far.append(depth - 1)
                new = None
                lo = depth - width if depth > width else 0
                ups = range(lo, depth)
                if far and far[0] < lo:
                    ups = chain(takewhile(lo.__gt__, far), ups)
                for up in ups:
                    if stale > up:
                        stale = _rebuild(path, frames, stale, up)
                    for rule in entries[up][1 if up < lo else 0]:
                        new = rule_match(rule, path[up])
                        if new is not None:
                            break
                    if new is not None:
                        depth = up
                        del path[up + 1:], frames[up + 1:], entries[up + 1:]
                        while todo and todo[-1][3] > up:  # depths never decrease toward the top
                            todo.pop()
                        break
            sub, frame = path[depth], frames[depth]
            key = root_shape(sub)
            entries[depth] = entry = index.get(key) or rs._entry(key)
        if type(sub) is App:
            if type(sub.arg) not in dead:
                todo.append((frame, ARG, sub.arg, depth + 1))
            if type(sub.fn) not in dead:
                todo.append((frame, FN, sub.fn, depth + 1))
        elif type(sub) is Pair:
            if type(sub.right) not in dead:
                todo.append((frame, RIGHT, sub.right, depth + 1))
            if type(sub.left) not in dead:
                todo.append((frame, LEFT, sub.left, depth + 1))
        elif type(sub) is KWrap and type(sub.body) not in dead:
            todo.append((frame, KBODY, sub.body, depth + 1))
    _rebuild(path, frames, stale, 0)
    return NormalizeResult(path[0], tuple(trace), False)


# ---------------------------------------------------------------------------
# Extensional equality
# ---------------------------------------------------------------------------

class ExtLevel(Record):
    fresh: Optional[str]  # variable applied to reach this level (None at level 0)
    left: NormalizeResult
    right: NormalizeResult


class ExtEvidence(Record):
    equal: bool
    levels: tuple[ExtLevel, ...]

    def __bool__(self) -> bool:
        return self.equal

    def summary(self) -> str:
        steps = sum(len(lv.left.trace) + len(lv.right.trace) for lv in self.levels)
        depth = len(self.levels) - 1
        if self.equal:
            return f"EQUAL (ext depth {depth}, {steps} rewrite steps)"
        return f"UNKNOWN (searched ext depth {depth}, {steps} rewrite steps)"


def ext_equal(s: Term, t: Term, rs: RuleSet, defs: Mapping[str, Term] | None = None) -> ExtEvidence:
    """Decide equality up to extensionality by bounded fresh-variable application.

    Up to ``rs.config.ext_depth`` fresh variables are applied, and each
    normalization has ``rs.config.fuel`` steps.  An ``equal`` result is sound
    (a genuine equality of the calculus); a non-equal result is merely
    inconclusive.
    """
    left = expand_defined(s, defs) if defs else s
    right = expand_defined(t, defs) if defs else t
    levels: list[ExtLevel] = []
    fresh: Optional[str] = None
    used: set[str] = set()
    for _ in range(rs.config.ext_depth + 1):
        ln = normalize(left, rs)
        rn = normalize(right, rs)
        levels.append(ExtLevel(fresh, ln, rn))
        if ln.result == rn.result:
            return ExtEvidence(True, tuple(levels))
        avoid = free_vars(ln.result) | free_vars(rn.result) | used
        fresh = next(fresh_vars(avoid))
        used.add(fresh)
        left = App(ln.result, Var(fresh))
        right = App(rn.result, Var(fresh))
    return ExtEvidence(False, tuple(levels))
