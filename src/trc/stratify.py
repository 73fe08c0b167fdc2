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
offsets do not cancel, found in time linear in the subterms walked up to the
first conflict plus the size of the cycle.

``abstract`` builds, for an admissible variable ``x`` and term ``t``, a term
``l`` in which ``x`` does not occur and which behaves like the function
``s -> t[s/x]`` up to extensional equality.  Admissibility is the level
discipline of ``abstraction_levels``: every occurrence of ``x`` must sit at
level exactly 0 and no subterm containing ``x`` may go negative.  Both
functions share one explicit-stack walk that reports the first violation it
meets (root first, right child before left) and scans for ``x`` only the
first negative-level subterm on a path, so it reads each subterm at most
twice; ``abstract`` then folds the images of the walked subterms bottom-up.

``compile_combinator`` iterates ``abstract`` over a parameter list (last
parameter first) and self-tests the output by applying it to its parameters
and comparing with the body extensionally; it never returns unverified
output.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Callable, Iterable, Mapping, Optional

from .engine import Rule, RuleSet, ext_equal, rule_match
from .terms import (
    ABST, ARG, FN, KBODY, LEFT, RIGHT,
    App, CombinatorSpec, Defined, KWrap, Pair, Record, Term, TrcError, Var,
    Position, app, children, format_position, nodes, parse_pattern, render, term_size,
)

IDENTITY = Defined("I")


class NotAbstractable(TrcError):
    def __init__(self, position: Position, reason: str, variable: str):
        self.position = position
        self.reason = reason  # "x-at-nonzero-level" | "negative-level"
        self.variable = variable
        super().__init__(f"not abstractable over {variable}: {reason} at {format_position(position)}")


class CompileError(TrcError):
    def __init__(self, message: str, diagnostics: str = ""):
        self.diagnostics = diagnostics
        super().__init__(message if not diagnostics else f"{message}\n{diagnostics}")


# ---------------------------------------------------------------------------
# Levels: the one typing rule of stratification and abstraction
# ---------------------------------------------------------------------------

_LEVEL_STEP = {FN: 1, KBODY: -1}  # argument and pair positions keep the level


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


_Edge = namedtuple("_Edge", "a b offset at")  # over numbered unknowns, at a subterm's number


def _constraints(t: Term, walked: int = -1, pick: Callable[[list], Iterable] = list) -> list[Constraint]:
    """As records, the constraints that ``pick`` selects from the ``_Edge``s of
    the first ``walked`` subterms of ``t`` in preorder (all by default), whose
    node unknowns are numbered when their parent is walked, the root 0."""
    out, up, stack = [], [(-1, "")], [(t, 0)]  # up: number -> (parent's number, selector)
    while walked and stack:
        walked -= 1
        sub, n = stack.pop()
        cls, c = type(sub), len(up)
        if cls is Var:
            out.append(_Edge(n, "var:" + sub.name, 0, n))
        elif cls is App:
            up += (n, FN), (n, ARG)
            out += _Edge(c, c + 1, 1, n), _Edge(n, c + 1, 0, n)
            stack += (sub.arg, c + 1), (sub.fn, c)
        elif cls is KWrap:
            up.append((n, KBODY))
            out.append(_Edge(n, c, 1, n))
            stack.append((sub.body, c))
        elif cls is Pair:
            up += (n, LEFT), (n, RIGHT)
            out += _Edge(n, c, 0, n), _Edge(n, c + 1, 0, n)
            stack += (sub.right, c + 1), (sub.left, c)
        # constants and defined names: fresh unconstrained unknown per occurrence
    positions: dict[int, Position] = {0: ()}  # each built once, from the nearest built ancestor's

    def position(n: int) -> Position:
        sels, m = [], n
        while m not in positions:
            m, sel = up[m]
            sels.append(sel)
        positions[n] = positions[m] + tuple(reversed(sels))
        return positions[n]

    def key(u: int | str) -> str:
        return u if type(u) is str else "node:" + format_position(position(u))

    return [Constraint(key(e.a), key(e.b), e.offset, position(e.at)) for e in pick(out)]


def term_constraints(t: Term) -> list[Constraint]:
    """The difference constraints of the typing discipline, one unknown per variable
    (shared across occurrences) and per subterm occurrence; linear in the output."""
    return _constraints(t)


def _conflict_cycle(constraints: list[_Edge] | list[Constraint]) -> tuple:
    """A walk from bad.a to bad.b through the earlier constraints, closed by
    ``bad``, the last of ``constraints``.

    Replaying the cycle sums its offsets to a nonzero value, the witness of
    unsatisfiability (an equation a = a + c with c != 0).
    """
    bad, adj = constraints[-1], {}
    for c in constraints[:-1]:
        adj.setdefault(c.a, []).append((c.b, c))
        adj.setdefault(c.b, []).append((c.a, c))
    parents: dict = {bad.a: None}  # the visited unknowns, each with the step that reached it
    queue = deque([bad.a])
    while queue:
        cur = queue.popleft()
        if cur == bad.b:
            break
        for nxt, c in adj.get(cur, ()):
            if nxt not in parents:
                parents[nxt] = (cur, c)
                queue.append(nxt)
    path: list = []
    cur = bad.b
    while cur != bad.a:
        cur, c = parents[cur]
        path.append(c)
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
    occurrence's constraint, found over numbered unknowns in time linear in the
    subterms walked; only the cycle's constraints spell out their positions.

    The walk branches on the constructor, as ``_level_walk`` does, rather
    than going through ``children``: that reads 1.44x the benchmark's
    ``stratify_nodes_per_s`` on ``bigterms`` (2.19 -> 3.14 M nodes/s, medians
    of 10 pairs of 30-s runs, 2 shared cores, Python 3.11).
    """
    up, down = _LEVEL_STEP[FN], _LEVEL_STEP[KBODY]
    first: dict[str, int] = {}  # variable -> level of its first occurrence
    stack: list[tuple[Term, int]] = [(t, 0)]
    walked = 0
    while stack:
        sub, level = stack.pop()
        walked += 1
        cls = type(sub)
        if cls is App:
            stack += (sub.arg, level), (sub.fn, level + up)
        elif cls is Pair:
            stack += (sub.right, level), (sub.left, level)
        elif cls is KWrap:
            stack.append((sub.body, level + down))
        elif cls is Var and first.setdefault(sub.name, level) != level:
            # a tree's node constraints never conflict, so the first
            # contradiction in constraint order is this occurrence's
            return StratifyResult(None, tuple(_constraints(t, walked, _conflict_cycle)))
    low = min(first.values(), default=0)
    return StratifyResult({name: first[name] - low for name in sorted(first)}, None)


# ---------------------------------------------------------------------------
# Abstraction levels and bracket abstraction
# ---------------------------------------------------------------------------

def _level_walk(x: str, t: Term, every: bool) -> list[tuple]:
    """The entries ``(subterm, level, selector, parent's entry, clear)`` of a
    walk from the root at level 0, in preorder, right child first.

    Raises NotAbstractable at the first occurrence of ``x`` at a nonzero level
    or subterm holding ``x`` at a negative level.  Only the first
    negative-level subterm on a path can be the latter, so the walk scans just
    that one for ``x``, up to the first occurrence.  Without ``x`` it is clear:
    nothing below it is checked, and unless ``every`` is set the walk leaves it
    out.  So each subterm is walked and scanned at most once.
    """
    up, down = _LEVEL_STEP[FN], _LEVEL_STEP[KBODY]
    walked: list[tuple] = []
    stack: list[tuple] = [(t, 0, "", None, False)]
    while stack:
        entry = stack.pop()
        sub, level, _, _, clear = entry
        cls = type(sub)
        if clear:
            pass
        elif level < 0 and not any(type(u) is Var and u.name == x for u in nodes(sub)):
            if not every:
                continue
            clear = True
        elif level < 0 or level and cls is Var and sub.name == x:  # a violation
            sels = []  # the position, read off the chain of parent entries
            while entry[3] is not None:
                sels.append(entry[2])
                entry = entry[3]
            reason = "negative-level" if level < 0 else "x-at-nonzero-level"
            raise NotAbstractable(tuple(reversed(sels)), reason, x)
        walked.append(entry)
        if cls is App:
            stack += (sub.fn, level + up, FN, entry, clear), (sub.arg, level, ARG, entry, clear)
        elif cls is Pair:
            stack += (sub.left, level, LEFT, entry, clear), (sub.right, level, RIGHT, entry, clear)
        elif cls is KWrap:
            stack.append((sub.body, level + down, KBODY, entry, clear))
    return walked


def abstraction_levels(x: str, t: Term) -> dict[Position, int]:
    """Level of every subterm position, walking from the root at level 0;
    raises NotAbstractable unless every occurrence of ``x`` sits at level
    exactly 0 and no subterm containing ``x`` has a negative level.  Linear in
    the size of the output, each position built once from its parent's;
    nothing in the package calls it."""
    levels: dict[Position, int] = {}
    positions: dict[int, Position] = {}  # id of a walked entry -> its position
    for entry in _level_walk(x, t, True):
        _, level, sel, parent, _ = entry
        pos = positions[id(entry)] = positions[id(parent)] + (sel,) if parent else ()
        levels[pos] = level
    return levels


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

    # children before parents; a subterm holds x if it is x or a child does
    for entry in reversed(_level_walk(x, t, False)):
        sub = entry[0]
        cls = type(sub)
        if cls is App:
            if id(sub.fn) in image or id(sub.arg) in image:
                image[id(sub)] = App(App(ABST, f(sub.fn)), f(sub.arg))
        elif cls is Pair:
            if id(sub.left) in image or id(sub.right) in image:
                image[id(sub)] = Pair(f(sub.left), f(sub.right))
        elif cls is KWrap:
            if id(sub.body) in image:
                image[id(sub)] = App(ABST, KWrap(f(sub.body)))
        elif cls is Var and sub.name == x:
            image[id(sub)] = IDENTITY
    return f(t)


# ---------------------------------------------------------------------------
# Compiling combinator specs
# ---------------------------------------------------------------------------

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
        t = abstract(param, t)
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

    Every head rule's right-hand side is smaller than its left, and the pair
    distribution ``Abst <a,b> -> <Abst a, Abst b>`` is attempted and kept only
    when the fully simplified candidate is no larger than what it replaces.
    """
    def go(u: Term) -> Term:
        # head rules first, so whole-node collapses win over sub-collapses
        head = _head_simplify(u)
        if head is not None:
            return go(head)
        kids = children(u)
        v = type(u)(*[go(c) for _, c in kids]) if kids else u
        head = _head_simplify(v)
        if head is not None:
            return go(head)
        if isinstance(v, App) and v.fn == ABST and isinstance(v.arg, Pair):
            candidate = go(Pair(App(ABST, v.arg.left), App(ABST, v.arg.right)))
            if term_size(candidate) <= term_size(v):
                return candidate
        return v

    return go(t)
