"""Stratification typing and the bracket-abstraction compiler.

Both rest on one level rule (``_LEVEL_STEP``): from the root at level 0,
levels rise by one into function position, drop by one into ``k(-)`` bodies,
and stay put into argument and pair positions.

``stratify`` types the variables of a term so that an application's function
is one type above its argument, ``k(-)`` raises the type by one and a pair's
components share its type; a subterm's type is then its level shifted by a
constant.  Types live in all of the integers (the assignment is
shift-invariant); the reported assignment is shifted so its minimum is 0.
An unstratified term is explained by a cycle of difference constraints whose
offsets do not cancel.

``abstract`` builds, for an admissible variable ``x`` and term ``t``, a term
``l`` in which ``x`` does not occur and which behaves like the function
``s -> t[s/x]`` up to extensional equality.  Admissibility is the level
discipline of ``abstraction_levels``: every occurrence of ``x`` must sit at
level exactly 0 and no subterm containing ``x`` may go negative.  Both
functions share one explicit-stack walk that reports the first violation it
meets (root first, right child before left); ``abstract`` then folds the
images of the subterms holding ``x`` bottom-up.

``compile_combinator`` iterates ``abstract`` over a parameter list (last
parameter first) and self-tests the output by applying it to its parameters
and comparing with the body extensionally; it never returns unverified
output.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Mapping, Optional

from .engine import Rule, RuleSet, ext_equal, rule_match
from .terms import (
    ABST, ARG, FN, KBODY, LEFT, RIGHT,
    App, Defined, KWrap, Pair, Record, Term, TrcError, Var,
    Position, app, children, format_position, free_vars, nodes, parse_pattern, render,
    subterms, term_size,
)

IDENTITY = Defined("I")


class NotAbstractable(TrcError):
    def __init__(self, position: Position, reason: str, variable: str = "", parameter: str = ""):
        self.position = position
        self.reason = reason  # "x-at-nonzero-level" | "negative-level"
        self.variable = variable
        self.parameter = parameter
        where = format_position(position)
        super().__init__(f"not abstractable over {variable or '?'}: {reason} at {where}")


class CompileError(TrcError):
    def __init__(self, message: str, diagnostics: str = ""):
        self.diagnostics = diagnostics
        super().__init__(message if not diagnostics else f"{message}\n{diagnostics}")


# ---------------------------------------------------------------------------
# Levels: the one typing rule of stratification and abstraction
# ---------------------------------------------------------------------------

_LEVEL_STEP = {FN: 1, KBODY: -1}  # argument and pair positions keep the level


def _position(link: tuple) -> Position:
    sels: list[str] = []
    while link:
        sel, link = link
        sels.append(sel)
    return tuple(reversed(sels))


# ---------------------------------------------------------------------------
# Stratification (a level walk; difference constraints explain a conflict)
# ---------------------------------------------------------------------------

class Constraint(Record):
    """tau(a) = tau(b) + offset, generated at the named subterm."""

    a: str
    b: str
    offset: int
    at: Position


class StratifyResult(Record):
    assignment: Optional[dict[str, int]]
    conflict: Optional[tuple[Constraint, ...]]

    @property
    def satisfiable(self) -> bool:
        return self.assignment is not None


def _node_key(pos: Position) -> str:
    return "node:" + format_position(pos)


def term_constraints(t: Term) -> list[Constraint]:
    """The difference constraints of the typing discipline, one unknown per
    variable (shared across occurrences) and per subterm occurrence."""
    out: list[Constraint] = []
    for pos, sub in subterms(t):
        key = _node_key(pos)
        if isinstance(sub, Var):
            out.append(Constraint(key, "var:" + sub.name, 0, pos))
        elif isinstance(sub, App):
            fk = _node_key(pos + (FN,))
            ak = _node_key(pos + (ARG,))
            out.append(Constraint(fk, ak, 1, pos))
            out.append(Constraint(key, ak, 0, pos))
        elif isinstance(sub, KWrap):
            bk = _node_key(pos + (KBODY,))
            out.append(Constraint(key, bk, 1, pos))
        elif isinstance(sub, Pair):
            lk = _node_key(pos + (LEFT,))
            rk = _node_key(pos + (RIGHT,))
            out.append(Constraint(key, lk, 0, pos))
            out.append(Constraint(key, rk, 0, pos))
        # constants and defined names: fresh unconstrained unknown per occurrence
    return out


def _conflict_cycle(constraints: list[Constraint], bad: Constraint) -> tuple[Constraint, ...]:
    """A walk from bad.a to bad.b through earlier constraints, closed by ``bad``.

    Replaying the cycle sums its offsets to a nonzero value, the witness of
    unsatisfiability (an equation a = a + c with c != 0).
    """
    adj: dict[str, list[tuple[str, Constraint]]] = {}
    for c in constraints:
        if c is bad:
            continue
        adj.setdefault(c.a, []).append((c.b, c))
        adj.setdefault(c.b, []).append((c.a, c))
    seen = {bad.a: None}
    queue = deque([bad.a])
    parents: dict[str, tuple[str, Constraint]] = {}
    while queue:
        cur = queue.popleft()
        if cur == bad.b:
            break
        for nxt, c in adj.get(cur, ()):
            if nxt not in seen:
                seen[nxt] = None
                parents[nxt] = (cur, c)
                queue.append(nxt)
    path: list[Constraint] = []
    cur = bad.b
    while cur != bad.a:
        prev, c = parents[cur]
        path.append(c)
        cur = prev
    path.reverse()
    return tuple(path + [bad])


def replay_conflict(cycle: tuple[Constraint, ...]) -> int:
    """Net offset around the conflict walk; nonzero by construction.

    The walk starts at the closing constraint's left node with level 0 and
    follows the other constraints to its right node; the return value is the
    amount by which the closing constraint then contradicts itself (the ``c``
    of the impossible equation ``a = a + c``).
    """
    closing = cycle[-1]
    cur = closing.a
    level = 0
    for c in cycle[:-1]:
        if c.a == cur:
            level -= c.offset  # tau(a) = tau(b) + off  =>  tau(b) = tau(a) - off
            cur = c.b
        elif c.b == cur:
            level += c.offset
            cur = c.a
        else:
            raise TrcError("conflict walk is not connected")
    if cur != closing.b:
        raise TrcError("conflict walk does not reach the closing constraint")
    return level + closing.offset


def stratify(t: Term) -> StratifyResult:
    """Stratification types of the variables of ``t``, or a conflict cycle.

    One preorder walk (left child first) carries each subterm's level by the
    level rule and records the level of each variable's first occurrence.
    The term is stratified exactly when every later occurrence sits at that
    level; the assignment is those levels shifted so their minimum is 0.
    Otherwise the walk stops at the first diverging occurrence in preorder,
    and the conflict is the cycle of ``term_constraints`` closed by that
    occurrence's constraint.
    """
    first: dict[str, int] = {}  # variable -> level of its first occurrence
    stack: list[tuple[Term, int, tuple]] = [(t, 0, ())]
    while stack:
        sub, level, link = stack.pop()
        if type(sub) is Var:
            if first.setdefault(sub.name, level) != level:
                # a tree's node constraints never conflict, so the first
                # contradiction in constraint order is this occurrence's
                pos = _position(link)
                constraints = term_constraints(t)
                i = constraints.index(Constraint(_node_key(pos), "var:" + sub.name, 0, pos))
                return StratifyResult(None, _conflict_cycle(constraints[: i + 1], constraints[i]))
            continue
        for sel, child in reversed(children(sub)):
            stack.append((child, level + _LEVEL_STEP.get(sel, 0), (sel, link)))
    low = min(first.values(), default=0)
    return StratifyResult({name: first[name] - low for name in sorted(first)}, None)


# ---------------------------------------------------------------------------
# Abstraction levels and bracket abstraction
# ---------------------------------------------------------------------------

def _level_walk(x: str, t: Term, every: bool) -> Iterator[tuple[Term, int, tuple]]:
    """``(subterm, level, link)`` from the root at level 0, right child first,
    over every subterm or (``every`` unset) only those holding ``x``.

    ``link`` is ``(selector, parent's link)``, or ``()`` at the root.  Raises
    NotAbstractable at the first subterm holding ``x`` at a negative level or
    occurrence of ``x`` at a nonzero level.  The marking pass costs a full
    pass even when the walk stops near the root, but lets ``abstract`` skip
    the subterms without ``x``: without it, ``abstract`` ran at 0.65x the
    node rate on the ``bigterms`` benchmark (2-core machine, Python 3.11).
    """
    held: set[int] = set()  # ids of the subterms holding x, marked children first
    for sub in reversed(list(nodes(t))):
        cls = type(sub)
        if (cls is Var and sub.name == x
                or cls is App and (id(sub.fn) in held or id(sub.arg) in held)
                or cls is Pair and (id(sub.left) in held or id(sub.right) in held)
                or cls is KWrap and id(sub.body) in held):
            held.add(id(sub))
    stack: list[tuple[Term, int, tuple]] = [(t, 0, ())] if every or id(t) in held else []
    while stack:
        sub, level, link = stack.pop()
        if id(sub) in held and (level < 0 or type(sub) is Var and level != 0):
            reason = "negative-level" if level < 0 else "x-at-nonzero-level"
            raise NotAbstractable(_position(link), reason, x)
        yield sub, level, link
        for sel, child in children(sub):
            if every or id(child) in held:
                stack.append((child, level + _LEVEL_STEP.get(sel, 0), (sel, link)))


def abstraction_levels(x: str, t: Term) -> dict[Position, int]:
    """Level of every subterm position, walking from the root at level 0;
    raises NotAbstractable unless every occurrence of ``x`` sits at level
    exactly 0 and no subterm containing ``x`` has a negative level."""
    return {_position(link): level for _, level, link in _level_walk(x, t, True)}


def abstract(x: str, t: Term) -> Term:
    """Bracket abstraction of ``x`` from ``t``; NotAbstractable unless the levels admit it.

    Once admitted, the image F(t) of ``t`` and of each subterm follows its shape:

      (i)   x not in t          -> k(t)
      (ii)  t = x               -> I
      (iii) t = <a, b>          -> <F(a), F(b)>
      (iv)  t = k(c)            -> Abst k(F(c))
      (v)   t = u v             -> Abst F(u) F(v)

    The result contains no occurrence of ``x``; applying it to any s is
    extensionally equal to t[s/x].
    """
    image: dict[int, Term] = {}  # id of a subterm holding x -> its image

    def f(u: Term) -> Term:
        return image[id(u)] if id(u) in image else KWrap(u)  # rule (i)

    # every subterm holding x after its children
    for sub, _, _ in reversed(list(_level_walk(x, t, False))):
        cls = type(sub)
        if cls is Var:
            image[id(sub)] = IDENTITY
        elif cls is Pair:
            image[id(sub)] = Pair(f(sub.left), f(sub.right))
        elif cls is KWrap:
            image[id(sub)] = App(ABST, KWrap(f(sub.body)))
        else:
            image[id(sub)] = App(App(ABST, f(sub.fn)), f(sub.arg))
    return f(t)


# ---------------------------------------------------------------------------
# Combinator specs and compilation
# ---------------------------------------------------------------------------

class CombinatorSpec(Record):
    """A definition ``name x1 ... xn = body`` over exactly those parameters."""

    name: str
    params: tuple[str, ...]
    body: Term

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"{self.name}: parameters must be distinct")
        loose = free_vars(self.body) - set(self.params)
        if loose:
            raise ValueError(f"{self.name}: body uses undeclared variables {sorted(loose)}")


def compile_combinator(
    spec: CombinatorSpec,
    rs: RuleSet,
    defs: Mapping[str, Term] | None = None,
    optimize_result: bool = False,
) -> Term:
    """Closed term for ``spec`` by iterated abstraction, innermost parameter first.

    Self-test: the result applied to the parameters must be extensionally
    equal to the body; on failure the result is rejected with diagnostics.
    """
    t = spec.body
    for param in reversed(spec.params):
        try:
            t = abstract(param, t)
        except NotAbstractable as exc:
            raise NotAbstractable(exc.position, exc.reason, exc.variable, parameter=param) from None
    if optimize_result:
        t = optimize(t)
    applied = app(t, *[Var(p) for p in spec.params])
    evidence = ext_equal(applied, spec.body, rs, defs=defs)
    if not evidence.equal:
        left = evidence.levels[-1].left.result
        right = evidence.levels[-1].right.result
        raise CompileError(
            f"{spec.name}: compiled term failed its self-test",
            diagnostics=f"applied form normalizes to {render(left)}, body to {render(right)}",
        )
    return t


# ---------------------------------------------------------------------------
# Kernel-verified simplifier
# ---------------------------------------------------------------------------

# The simplifier's head rules.  Their left-hand sides are pairwise disjoint,
# so at most one of them matches a term.
_HEAD_RULES = tuple(
    Rule(lhs, parse_pattern(lhs), parse_pattern(rhs))
    for lhs, rhs in (
        ("Abst (Abst (Abst $a))", "Abst $a"),
        ("Abst (Abst k($a))", "k($a)"),
        ("Abst k(k($a))", "k(k($a))"),
        ("Abst k($a) k($b)", "k($a $b)"),
        ("Abst P1", "k(P1)"),
        ("Abst P2", "k(P2)"),
        ("Abst I", "k(I)"),
        ("Abst k(P1)", "P1"),
        ("Abst k(P2)", "P2"),
        ("Abst k(I)", "I"),
    )
)


def _head_simplify(t: Term) -> Optional[Term]:
    for rule in _HEAD_RULES:
        new = rule_match(rule, t)
        if new is not None:
            return new
    return None


def optimize(t: Term) -> Term:
    """Exhaustively apply the verified simplifications; never grows the term.

    All rewrites shrink or preserve size except the pair distribution
    ``Abst <a,b> -> <Abst a, Abst b>``, which is attempted and kept only when
    the fully simplified candidate is no larger than what it replaces.
    """
    def go(u: Term) -> Term:
        # head rules first, so whole-node collapses win over sub-collapses
        head = _head_simplify(u)
        if head is not None:
            return go(head)
        if isinstance(u, App):
            v: Term = App(go(u.fn), go(u.arg))
        elif isinstance(u, KWrap):
            v = KWrap(go(u.body))
        elif isinstance(u, Pair):
            v = Pair(go(u.left), go(u.right))
        else:
            v = u
        head = _head_simplify(v)
        if head is not None:
            return go(head)
        if isinstance(v, App) and v.fn == ABST and isinstance(v.arg, Pair):
            candidate = go(Pair(App(ABST, v.arg.left), App(ABST, v.arg.right)))
            if term_size(candidate) <= term_size(v):
                return candidate
        return v

    out = go(t)
    return out if term_size(out) <= term_size(t) else t
