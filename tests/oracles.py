"""Reference implementations and shared Hypothesis strategies for the tests.

Each oracle is the plain definition (usually the structural recursion, or the
interpretation) that a fast path in ``trc`` must agree with exactly.  Test
modules import oracles and strategies from here, and never from each other.
"""

from __future__ import annotations

import re

from hypothesis import strategies as st

from trc.engine import NormalizeResult, Rule, TraceStep
from trc.kernel import Equal
from trc.stratify import IDENTITY, Constraint, NotAbstractable, StratifyResult, _conflict_cycle, term_constraints
from trc.terms import (
    ABST, ARG, CONSTANTS, EQ, FN, KBODY, LEFT, P1, P2, RIGHT,
    App, Const, Defined, KWrap, Pair, ParseError, PatVar, Token, TokenStream, TrcError, Var,
    _descend, children, format_position, free_vars, match_pattern, nodes, rebuild, replace_at,
    substitute, subterms,
)

# ---------------------------------------------------------------------------
# term strategies
# ---------------------------------------------------------------------------

def term_trees(*leaves, max_leaves, formers=(App, KWrap, Pair), extra=lambda sub: ()):
    """Terms drawn from one of the ``leaves`` strategies at each leaf; each
    inner node is one of ``formers`` (``KWrap`` over one drawn subterm, the
    others over two), or one of the strategies ``extra(sub)`` adds after them."""
    def branch(sub):
        built = [st.builds(f, sub) if f is KWrap else st.builds(f, sub, sub) for f in formers]
        return st.one_of(*built, *extra(sub))

    return st.recursive(st.one_of(*leaves), branch, max_leaves=max_leaves)


terms = term_trees(
    st.builds(Var, st.sampled_from(["x", "y", "z", "u", "v", "w'"])),
    st.sampled_from([ABST, EQ, P1, P2]),
    st.builds(Defined, st.sampled_from(["I", "M", "Zed"])),
    max_leaves=25,
)
closed_terms = term_trees(st.sampled_from([ABST, EQ, P1, P2]), max_leaves=12)


def redex_rich_terms(*atoms):
    """Terms dense in redexes, including the nonlinear surjective-pairing and
    Eq ones, with ``atoms`` among the leaves."""
    return term_trees(
        st.builds(Var, st.sampled_from(["x", "y", "z"])), st.sampled_from([ABST, EQ, P1, P2, *atoms]),
        max_leaves=20,
        extra=lambda sub: (
            st.builds(lambda t: Pair(App(P1, t), App(P2, t)), sub),
            st.builds(lambda t: App(EQ, Pair(t, t)), sub),
            st.builds(lambda p, t, u: App(p, Pair(t, u)), st.sampled_from([P1, P2]), sub, sub),
            st.builds(App, st.builds(KWrap, sub), sub),
        ),
    )


redex_rich = redex_rich_terms()


def random_term(rng, depth, names=("x", "y", "z")):
    """A term drawn by ``rng`` top down, ``depth`` formers deep at most; with
    no ``names`` it is closed."""
    kinds = (["var"] if names else []) + (["const", "app", "k", "pair"] if depth > 0 else ["const"])
    kind = rng.choice(kinds)
    if kind == "var":
        return Var(rng.choice(names))
    if kind == "const":
        return rng.choice([ABST, EQ, P1, P2])
    if kind == "app":
        return App(random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))
    if kind == "k":
        return KWrap(random_term(rng, depth - 1, names))
    return Pair(random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))


# ---------------------------------------------------------------------------
# the front end: the character-at-a-time lexer and the recursive parser
# ---------------------------------------------------------------------------
# The front end the regex tokenizer and the explicit-stack parser replaced,
# with the token stream it read.

_ORACLE_PUNCT2 = (":=", "!=", "=>")
_ORACLE_PUNCT1 = "()<>,[]{}:;=|"
_ORACLE_WORD_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.'-]*")
_ORACLE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def oracle_tokenize(text):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i : i + 2]
        if two in _ORACLE_PUNCT2:
            toks.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _ORACLE_PUNCT1:
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            toks.append(Token("STRING", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch == "$":
            m = _ORACLE_WORD_RE.match(text, i + 1)
            if not m:
                raise ParseError("'$' must introduce a pattern variable", line, col)
            toks.append(Token("PATVAR", "$" + m.group(0), line, col))
            col += 1 + len(m.group(0))
            i = m.end()
            continue
        m = _ORACLE_WORD_RE.match(text, i)
        if m:
            toks.append(Token("WORD", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


def oracle_written(tok):
    """A token as written: a string with its quotes, EOF by its kind."""
    return f'"{tok.text}"' if tok.kind == "STRING" else tok.text or tok.kind


class OracleTokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"got {oracle_written(tok)!r}", tok.line, tok.col, (kind,))
        return self.next()


def oracle_classify_ident(name, tok):
    if not _ORACLE_IDENT_RE.fullmatch(name):
        raise ParseError(f"{name!r} is not a valid identifier", tok.line, tok.col)
    if name[0].isupper():
        return Defined(name)
    return Var(name)


def oracle_parse_atom(ts, pattern):
    tok = ts.peek()
    if tok.kind == "WORD":
        if tok.text == "k":
            ts.next()
            ts.expect("(")
            body = oracle_parse_term_tokens(ts, pattern)
            ts.expect(")")
            return KWrap(body)
        if tok.text in CONSTANTS:
            ts.next()
            return CONSTANTS[tok.text]
        ts.next()
        return oracle_classify_ident(tok.text, tok)
    if tok.kind == "PATVAR":
        if not pattern:
            raise ParseError("pattern variables are only allowed in patterns", tok.line, tok.col)
        ts.next()
        return PatVar(tok.text)
    if tok.kind == "(":
        ts.next()
        t = oracle_parse_term_tokens(ts, pattern)
        ts.expect(")")
        return t
    if tok.kind == "<":
        ts.next()
        left = oracle_parse_term_tokens(ts, pattern)
        ts.expect(",")
        right = oracle_parse_term_tokens(ts, pattern)
        ts.expect(">")
        return Pair(left, right)
    raise ParseError(
        f"got {oracle_written(tok)!r}", tok.line, tok.col,
        ("identifier", "k(", "<", "("),
    )


def oracle_parse_term_tokens(ts, pattern=False, reserved=frozenset()):
    def stopped():
        tok = ts.peek()
        return tok.kind == "WORD" and tok.text in reserved

    if stopped():
        tok = ts.peek()
        raise ParseError(f"expected a term, got keyword {tok.text!r}", tok.line, tok.col)
    t = oracle_parse_atom(ts, pattern)
    while ts.peek().kind in ("WORD", "PATVAR", "(", "<") and not stopped():
        t = App(t, oracle_parse_atom(ts, pattern))
    return t


def oracle_parse(text, pattern=False):
    ts = OracleTokenStream(oracle_tokenize(text))
    t = oracle_parse_term_tokens(ts, pattern)
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {oracle_written(tok)!r}", tok.line, tok.col, ("end of input",))
    return t


class OracleScriptTerms:
    """The script parser's stream over the oracle's tokens, and the oracle
    term parser on its own stream over the same tokens, started where the
    script parser stands and leaving it where it stopped."""

    def stream(self, text):
        self.tokens = oracle_tokenize(text)
        return TokenStream.of_tokens(self.tokens)

    def parse_term_tokens(self, ts, pattern=False, reserved=frozenset()):
        oracle_ts = OracleTokenStream(self.tokens)
        oracle_ts.i = ts.i
        try:
            return oracle_parse_term_tokens(oracle_ts, pattern, reserved)
        finally:
            ts.i = oracle_ts.i


# ---------------------------------------------------------------------------
# the walkers as plain recursive definitions
# ---------------------------------------------------------------------------
# Each is the structural recursion the walker used to be; the walkers now run
# on ``nodes`` and ``rebuild`` and must agree with it exactly.

def oracle_map(t, f):
    """``t`` with ``f`` applied to each child, left to right; an atom as it is."""
    if isinstance(t, App):
        return App(f(t.fn), f(t.arg))
    if isinstance(t, KWrap):
        return KWrap(f(t.body))
    if isinstance(t, Pair):
        return Pair(f(t.left), f(t.right))
    return t


def oracle_substitute(t, subst):
    if isinstance(t, Var) or isinstance(t, PatVar):
        return subst.get(t.name, t)
    return oracle_map(t, lambda c: oracle_substitute(c, subst))


def oracle_to_pattern(t):
    if isinstance(t, Var):
        return PatVar("$" + t.name)
    return oracle_map(t, oracle_to_pattern)


def oracle_replace_defined(t, mapping):
    if isinstance(t, Defined):
        return mapping.get(t.name, t)
    return oracle_map(t, lambda c: oracle_replace_defined(c, mapping))


def oracle_expand_defined(t, defs, active=frozenset()):
    if isinstance(t, Defined) and t.name in defs:
        if t.name in active:
            raise TrcError(f"cyclic definition of {t.name}")
        return oracle_expand_defined(defs[t.name], defs, active | {t.name})
    return oracle_map(t, lambda c: oracle_expand_defined(c, defs, active))


def oracle_render(t):
    if isinstance(t, (Var, Const, Defined, PatVar)):
        return t.name
    if isinstance(t, KWrap):
        return f"k({oracle_render(t.body)})"
    if isinstance(t, Pair):
        return f"<{oracle_render(t.left)},{oracle_render(t.right)}>"
    arg = oracle_render(t.arg)
    if isinstance(t.arg, App):
        arg = f"({arg})"
    return f"{oracle_render(t.fn)} {arg}"


def oracle_term_size(t):
    return 1 + sum(oracle_term_size(c) for c in oracle_children(t))


def oracle_free_vars(t):
    if isinstance(t, Var):
        return {t.name}
    return set().union(*(oracle_free_vars(c) for c in oracle_children(t)))


def oracle_children(t):
    if isinstance(t, App):
        return (t.fn, t.arg)
    if isinstance(t, KWrap):
        return (t.body,)
    if isinstance(t, Pair):
        return (t.left, t.right)
    return ()


def oracle_count_projections(t):
    if isinstance(t, Const):
        return 1 if t.name in ("P1", "P2") else 0
    return sum(oracle_count_projections(c) for c in oracle_children(t))


def oracle_swap_projection(t, index):
    counter = [0]

    def go(u):
        if isinstance(u, Const) and u.name in ("P1", "P2"):
            i = counter[0]
            counter[0] += 1
            if i == index:
                return P2 if u.name == "P1" else P1
            return u
        return oracle_map(u, go)

    return go(t)


def navigate(t, pos):
    """Subterm of ``t`` at ``pos``; raises PositionError on the first bad selector."""
    return _descend(t, pos)[-1]


# ---------------------------------------------------------------------------
# rewriting by interpretation, for compiled rules, the redex finder and links
# ---------------------------------------------------------------------------

def interpreted_match(rule, t):
    """The contractum of ``rule`` at the root of ``t`` by interpretation:
    ``match_pattern``, then ``substitute``."""
    subst = match_pattern(rule.lhs, t)
    return None if subst is None else substitute(rule.rhs, subst)


def interpreted_rewrite_at(t, pos, rule):
    new = interpreted_match(rule, navigate(t, pos))
    return None if new is None else replace_at(t, pos, new)


def reference_step(t, rs):
    """Try every rule in order at every preorder position, from the root."""
    for pos, sub in subterms(t):
        for rule in rs.rules:
            new = interpreted_match(rule, sub)
            if new is not None:
                return TraceStep(pos, rule.name, replace_at(t, pos, new))
    return None


def reference_normalize(t, rs, fuel):
    trace = []
    for _ in range(fuel):
        step = reference_step(t, rs)
        if step is None:
            return NormalizeResult(t, tuple(trace), False)
        trace.append(step)
        t = step.after
    return NormalizeResult(t, tuple(trace), reference_step(t, rs) is not None)


def justifications(rules, defs=None, facts=()):
    """The rules of ``rules``, each definition ``n := body`` as the rule
    ``n -> body`` and each ``(label, l = r)`` of ``facts`` as the rule ``l -> r``."""
    return [
        *rules.rules,
        *(Rule(f"definition:{n}", Defined(n), body) for n, body in (defs or {}).items()),
        *(Rule(f"fact:{label}", eq.lhs, eq.rhs) for label, eq in facts),
    ]


def reference_link(a, b, rules, defs=None, facts=()):
    """Whether one of the ``justifications`` rewrites a to b, or b to a, at
    any one position, found by interpreting each of them at every position."""
    return any(
        interpreted_rewrite_at(x, pos, rule) == y
        for x, y in ((a, b), (b, a))
        for rule in justifications(rules, defs, facts)
        for pos, _ in subterms(x)
    )


def two_pass_canonical(checker, eq, fixed):
    """The definition ``_Checker.canonical`` computes in one pass per side:
    number the renamed atoms over both expanded sides, then rename them."""
    lhs, rhs = checker.expand(eq.lhs), checker.expand(eq.rhs)
    mapping = {}
    for t in (lhs, rhs):
        for sub in nodes(t):
            if type(sub) is PatVar or type(sub) is Var and sub.name not in fixed:
                mapping.setdefault(sub, PatVar(f"${len(mapping)}"))
    return Equal(*(rebuild(t, lambda a: mapping.get(a, a)) for t in (lhs, rhs)))


# ---------------------------------------------------------------------------
# stratification and abstraction
# ---------------------------------------------------------------------------

def solved_levels(t, assignment):
    """Independent check: node levels implied by the assignment, or None.

    Walks the constraint list directly (no union-find) and propagates values;
    returns the full valuation when every constraint is satisfiable around
    the given variable assignment.
    """
    values = {f"var:{name}": level for name, level in assignment.items()}
    constraints = term_constraints(t)
    changed = True
    while changed:
        changed = False
        for c in constraints:
            if c.a in values and c.b in values:
                if values[c.a] != values[c.b] + c.offset:
                    return None
            elif c.a in values:
                values[c.b] = values[c.a] - c.offset
                changed = True
            elif c.b in values:
                values[c.a] = values[c.b] + c.offset
                changed = True
    return values


# The union-find solver over all of term_constraints, with components
# anchored separately, kept as the reference for the level walk.

class OracleOffsetUnionFind:
    def __init__(self):
        self.parent = {}
        self.offset = {}  # value(key) = value(parent) + offset

    def find(self, key):
        if key not in self.parent:
            self.parent[key] = key
            self.offset[key] = 0
            return key, 0
        path = []
        cur = key
        total = 0
        while self.parent[cur] != cur:
            path.append(cur)
            total += self.offset[cur]
            cur = self.parent[cur]
        acc = total
        for node in path:
            step = self.offset[node]
            self.parent[node] = cur
            self.offset[node] = acc
            acc -= step
        return cur, total

    def union(self, a, b, delta):
        """Impose value(a) = value(b) + delta; False on contradiction."""
        ra, da = self.find(a)
        rb, db = self.find(b)
        if ra == rb:
            return da == db + delta
        self.parent[ra] = rb
        self.offset[ra] = db + delta - da
        return True


def oracle_stratify(t):
    constraints = term_constraints(t)
    uf = OracleOffsetUnionFind()
    for i, c in enumerate(constraints):
        if not uf.union(c.a, c.b, c.offset):
            return StratifyResult(None, _conflict_cycle(constraints[: i + 1], c))
    assignment = {}
    anchors = {}
    for name in sorted(free_vars(t)):
        root, off = uf.find("var:" + name)
        base = anchors.setdefault(root, -off)
        assignment[name] = base + off
    if assignment:
        low = min(assignment.values())
        assignment = {k: v - low for k, v in assignment.items()}
    return StratifyResult(assignment, None)


# term_constraints as it was defined, per subterm with every key spelled from
# the subterm's position, kept as the reference for the numbered walk

def oracle_term_constraints(t):
    def key(pos):
        return "node:" + format_position(pos)

    out = []
    for pos, sub in subterms(t):
        if isinstance(sub, Var):
            out.append(Constraint(key(pos), "var:" + sub.name, 0, pos))
        elif isinstance(sub, App):
            out.append(Constraint(key(pos + (FN,)), key(pos + (ARG,)), 1, pos))
            out.append(Constraint(key(pos), key(pos + (ARG,)), 0, pos))
        elif isinstance(sub, KWrap):
            out.append(Constraint(key(pos), key(pos + (KBODY,)), 1, pos))
        elif isinstance(sub, Pair):
            out.append(Constraint(key(pos), key(pos + (LEFT,)), 0, pos))
            out.append(Constraint(key(pos), key(pos + (RIGHT,)), 0, pos))
    return out


# The level check and bracket abstraction as two recursive passes that call
# free_vars at every node, kept as the reference for the single level walk.

def oracle_contains_var(t, x):
    return x in free_vars(t)


def oracle_abstraction_levels(x, t):
    levels = {}
    stack = [((), t, 0)]
    while stack:
        pos, sub, level = stack.pop()
        levels[pos] = level
        contains = oracle_contains_var(sub, x)
        if contains and level < 0:
            raise NotAbstractable(pos, "negative-level", x)
        if isinstance(sub, Var) and sub.name == x and level != 0:
            raise NotAbstractable(pos, "x-at-nonzero-level", x)
        for sel, child in children(sub):
            if sel == "function":
                delta = 1
            elif sel == "k-body":
                delta = -1
            else:
                delta = 0
            stack.append((pos + (sel,), child, level + delta))
    return levels


def oracle_abstract_level(x, t, n):
    if not oracle_contains_var(t, x):
        return KWrap(t)
    if isinstance(t, Var) and t.name == x:
        assert n == 0, f"variable {x} reached at level {n}"
        return IDENTITY
    if isinstance(t, Pair):
        return Pair(oracle_abstract_level(x, t.left, n), oracle_abstract_level(x, t.right, n))
    if isinstance(t, KWrap):
        assert n >= 1, f"k-body containing {x} reached at level {n}"
        return App(ABST, KWrap(oracle_abstract_level(x, t.body, n - 1)))
    if isinstance(t, App):
        return App(App(ABST, oracle_abstract_level(x, t.fn, n + 1)),
                   oracle_abstract_level(x, t.arg, n))
    raise AssertionError(f"unexpected node {t!r} at level {n}")


def oracle_abstract(x, t):
    oracle_abstraction_levels(x, t)
    return oracle_abstract_level(x, t, 0)
