"""Text format for proof scripts and combinator definitions.

A script file holds one or more theorem blocks::

    theorem 2.6 "There is no self-application combinator" {
      hypothesis M : M $x = $x $x
      prove false
      let t := Abst k(Eq) <M, k(P2)>
      let s := t t
      have e : s = Eq <s, P2> by chain [s, t t, ...]
      have n : Eq <s, P2> != s by theorem 2.4a with x := s
      qed by contradiction e n
    }

Proof methods: ``chain [t0, ..., tn]``, ``normalize`` (optional ``fuel N``, N >= 1),
``ext K``, ``theorem ID with v := term, ...``, ``contradiction as H { ... }``
(derive false from the assumed equality), ``contradiction EQ NEQ`` (falsum
from two facts), ``cases Eq <a,b> as (C, D) { p1 => { ... } p2 => { ... } }``,
``k-injection LABEL``, and ``application [u, ...] (A, B, N)``.  The final
``qed by ...`` either names a fact equal to the stated judgment or applies a
method to it directly.  Comments run from ``--`` to end of line.

Combinator definition files hold one definition per line::

    S x y z = x z (y z)
"""

from __future__ import annotations

from itertools import groupby
from typing import Optional

from .kernel import (
    ApplicationStep, Block, CasesStep, ChainStep, ContradictionStep, Equal,
    ExtStep, FALSUM, FalsumStep, HypEquation, Hypothesis, Judgment,
    KInjectStep, NormalizeStep, NotEqual, ProofScript, RefStep, Step,
    TheoremStep, map_terms,
)
from .stratify import CombinatorSpec
from .terms import (
    Defined, ParseError, Term, Token, TokenStream, parse_term_tokens, substitute, tokenize,
)

# Words with structural meaning in script files; they terminate embedded
# terms, so scripts cannot use them as variable names.
SCRIPT_RESERVED = frozenset({
    "theorem", "hypothesis", "prove", "let", "have", "qed", "by", "false",
    "with", "as", "fuel", "chain", "normalize", "ext", "contradiction",
    "cases", "k-injection", "application",
})


def _term(ts: TokenStream, pattern: bool = False) -> Term:
    return parse_term_tokens(ts, pattern, SCRIPT_RESERVED)

_METHOD_WORDS = {
    "chain", "normalize", "ext", "theorem", "contradiction", "cases",
    "k-injection", "application",
}


def _parse_int(ts: TokenStream) -> int:
    tok = ts.expect("WORD")
    if not tok.text.isdigit():
        raise ParseError(f"expected a number, got {tok.text!r}", tok.line, tok.col)
    return int(tok.text)


def _parse_judgment(ts: TokenStream) -> Judgment:
    if ts.at_word("false"):
        ts.next()
        return FALSUM
    lhs = _term(ts)
    tok = ts.peek()
    if tok.kind == "=":
        ts.next()
        return Equal(lhs, _term(ts))
    if tok.kind == "!=":
        ts.next()
        return NotEqual(lhs, _term(ts))
    raise ParseError(f"got {tok.text or tok.kind!r}", tok.line, tok.col, ("=", "!="))


def _parse_subst(ts: TokenStream) -> tuple[tuple[str, Term], ...]:
    pairs: list[tuple[str, Term]] = []
    while True:
        tok = ts.expect("WORD")
        if any(tok.text == name for name, _ in pairs):
            raise ParseError(f"{tok.text} is bound twice", tok.line, tok.col)
        ts.expect(":=")
        pairs.append((tok.text, _term(ts)))
        if ts.peek().kind == ",":
            ts.next()
            continue
        return tuple(pairs)


def _parse_term_list(ts: TokenStream) -> tuple[Term, ...]:
    ts.expect("[")
    terms = [_term(ts)]
    while ts.peek().kind == ",":
        ts.next()
        terms.append(_term(ts))
    ts.expect("]")
    return tuple(terms)


class _ScriptParser:
    def __init__(self, ts: TokenStream, source: str):
        self.ts = ts
        self.source = source
        self.fresh = 0

    def _auto_label(self) -> str:
        self.fresh += 1
        return f"_qed{self.fresh}"

    def parse_theorem(self) -> ProofScript:
        ts = self.ts
        ts.expect_word("theorem")
        ident = ts.expect("WORD").text
        title = ts.expect("STRING").text
        ts.expect("{")
        constants: list[str] = []
        equations: list[HypEquation] = []
        while ts.at_word("hypothesis"):
            ts.next()
            name = ts.expect("WORD").text
            ts.expect(":")
            lhs = _term(ts, pattern=True)
            ts.expect("=")
            rhs = _term(ts, pattern=True)
            if name not in constants:
                constants.append(name)
            equations.append(HypEquation(name, lhs, rhs))
        hypothesis = Hypothesis(tuple(constants), tuple(equations)) if constants else None
        ts.expect_word("prove")
        statement = _parse_judgment(ts)
        lets, body = self.parse_block_items(statement)
        ts.expect("}")
        # names bound by let are declared constants from here on, even when
        # spelled lowercase; reclassify their variable occurrences
        declared = {name: Defined(name) for name, _ in lets}
        declared.update({name: Defined(name) for name in constants})
        if declared:
            statement, lets, body = map_terms((statement, lets, body), lambda t: substitute(t, declared))
        return ProofScript(ident, title, hypothesis, statement, lets, body, self.source)

    def parse_block_items(self, goal: Judgment) -> tuple[tuple[tuple[str, Term], ...], Block]:
        """Items of a block up to and including its qed; the block is not brace-delimited."""
        ts = self.ts
        lets: list[tuple[str, Term]] = []
        steps: list[Step] = []
        while True:
            if ts.at_word("let"):
                ts.next()
                name = ts.expect("WORD").text
                ts.expect(":=")
                lets.append((name, _term(ts)))
                continue
            if ts.at_word("have"):
                ts.next()
                label = ts.expect("WORD").text
                ts.expect(":")
                judgment = _parse_judgment(ts)
                ts.expect_word("by")
                steps.append(self.parse_method(label, judgment))
                continue
            if ts.at_word("qed"):
                ts.next()
                ts.expect_word("by")
                tok = ts.peek()
                if tok.kind == "WORD" and tok.text not in _METHOD_WORDS:
                    ts.next()
                    steps.append(RefStep(self._auto_label(), goal, tok.text))
                else:
                    steps.append(self.parse_method(self._auto_label(), goal))
                return tuple(lets), tuple(steps)
            tok = ts.peek()
            raise ParseError(
                f"got {tok.text or tok.kind!r}", tok.line, tok.col, ("let", "have", "qed"),
            )

    def parse_inner_block(self, goal: Judgment) -> Block:
        self.ts.expect("{")
        lets, steps = self.parse_block_items(goal)
        if lets:
            raise ParseError("let is only allowed at theorem top level",
                             self.ts.peek().line, self.ts.peek().col)
        self.ts.expect("}")
        return steps

    def parse_method(self, label: str, goal: Judgment) -> Step:
        ts = self.ts
        tok = ts.peek()
        if ts.at_word("chain"):
            ts.next()
            return ChainStep(label, goal, _parse_term_list(ts))
        if ts.at_word("normalize"):
            ts.next()
            fuel: Optional[int] = None
            if ts.at_word("fuel"):
                ts.next()
                fuel = _parse_int(ts)
            return NormalizeStep(label, goal, fuel)
        if ts.at_word("ext"):
            ts.next()
            return ExtStep(label, goal, _parse_int(ts))
        if ts.at_word("theorem"):
            ts.next()
            ident = ts.expect("WORD").text
            subst: tuple[tuple[str, Term], ...] = ()
            if ts.at_word("with"):
                ts.next()
                subst = _parse_subst(ts)
            return TheoremStep(label, goal, ident, subst)
        if ts.at_word("contradiction"):
            ts.next()
            if ts.at_word("as"):
                ts.next()
                assume = ts.expect("WORD").text
                body = self.parse_inner_block(FALSUM)
                return ContradictionStep(label, goal, assume, body)
            eq_label = ts.expect("WORD").text
            neq_label = ts.expect("WORD").text
            return FalsumStep(label, goal, eq_label, neq_label)
        if ts.at_word("cases"):
            ts.next()
            ts.expect_word("Eq")
            ts.expect("<")
            left = _term(ts)
            ts.expect(",")
            right = _term(ts)
            ts.expect(">")
            ts.expect_word("as")
            ts.expect("(")
            case_label = ts.expect("WORD").text
            ts.expect(",")
            dicho_label = ts.expect("WORD").text
            ts.expect(")")
            ts.expect("{")
            ts.expect_word("p1")
            ts.expect("=>")
            branch1 = self.parse_inner_block(goal)
            branch2 = None
            if ts.at_word("p2"):
                ts.next()
                ts.expect("=>")
                branch2 = self.parse_inner_block(goal)
            ts.expect("}")
            return CasesStep(label, goal, left, right, case_label, dicho_label, branch1, branch2)
        if ts.at_word("k-injection"):
            ts.next()
            return KInjectStep(label, goal, ts.expect("WORD").text)
        if ts.at_word("application"):
            ts.next()
            args = _parse_term_list(ts)
            ts.expect("(")
            a = ts.expect("WORD").text
            ts.expect(",")
            b = ts.expect("WORD").text
            ts.expect(",")
            n = ts.expect("WORD").text
            ts.expect(")")
            return ApplicationStep(label, goal, args, a, b, n)
        raise ParseError(
            f"got {tok.text or tok.kind!r}", tok.line, tok.col, tuple(sorted(_METHOD_WORDS)),
        )


def parse_scripts(text: str, source: str = "<script>") -> list[ProofScript]:
    ts = TokenStream(tokenize(text))
    parser = _ScriptParser(ts, source)
    scripts: list[ProofScript] = []
    while ts.peek().kind != "EOF":
        scripts.append(parser.parse_theorem())
    if not scripts:
        raise ParseError("no theorem blocks found", 1, 1)
    return scripts


def parse_combinator_specs(text: str) -> list[CombinatorSpec]:
    """One definition per line: ``NAME x1 ... xn = term``."""
    specs: list[CombinatorSpec] = []
    for lineno, line in groupby(tokenize(text)[:-1], key=lambda tok: tok.line):
        toks = list(line)
        last = toks[-1]  # the definition ends just after its last token
        ts = TokenStream(toks + [Token("EOF", "", lineno, last.col + len(last.text))])
        name = ts.expect("WORD")
        params: list[Token] = []
        while ts.peek().kind == "WORD":
            params.append(ts.next())
        ts.expect("=")
        body = _term(ts)
        tok = ts.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input in definition on line {lineno}", tok.line, tok.col)
        for p in params:
            if not p.text[0].islower():
                raise ParseError(f"parameter {p.text!r} must be a variable", p.line, p.col)
        try:
            specs.append(CombinatorSpec(name.text, tuple(p.text for p in params), body))
        except ValueError as exc:
            raise ParseError(str(exc), name.line, name.col) from None
    return specs
