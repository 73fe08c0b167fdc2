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

from .kernel import (
    ApplicationStep, Block, CasesStep, ChainStep, ContradictionStep, Equal,
    ExtStep, FALSUM, FalsumStep, HypEquation, Hypothesis, Judgment,
    KInjectStep, NormalizeStep, NotEqual, ProofScript, RefStep, Step,
    TheoremStep, map_terms,
)
from .stratify import CombinatorSpec
from .terms import (
    Defined, ParseError, Term, Token, TokenStream, parse_term_tokens, substitute, tokenize, variable_name,
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
    text = ts.expect("WORD")
    if not text.isdigit():
        raise ts.error(f"expected a number, got {text!r}", at=ts.i - 1)
    return int(text)


def _parse_judgment(ts: TokenStream) -> Judgment:
    if ts.accept("false"):
        return FALSUM
    lhs = _term(ts)
    if ts.accept("="):
        return Equal(lhs, _term(ts))
    if ts.accept("!="):
        return NotEqual(lhs, _term(ts))
    raise ts.error(expected=("=", "!="))


def _parse_subst(ts: TokenStream) -> tuple[tuple[str, Term], ...]:
    pairs: list[tuple[str, Term]] = []
    while True:
        name = ts.expect("WORD")
        if any(name == bound for bound, _ in pairs):
            raise ts.error(f"{name} is bound twice", at=ts.i - 1)
        ts.expect(":=")
        pairs.append((name, _term(ts)))
        if not ts.accept(","):
            return tuple(pairs)


def _parse_term_list(ts: TokenStream) -> tuple[Term, ...]:
    ts.expect("[")
    terms = [_term(ts)]
    while ts.accept(","):
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
        ident = ts.expect("WORD")
        title = ts.expect("STRING")
        ts.expect("{")
        constants: list[str] = []
        equations: list[HypEquation] = []
        while ts.accept("hypothesis"):
            name = ts.expect("WORD")
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
        lets, body, _ = self.parse_block_items(statement)
        ts.expect("}")
        # names bound by let are declared constants from here on, even when
        # spelled lowercase; reclassify their variable occurrences
        declared = {name: Defined(name) for name, _ in lets}
        if declared:
            statement, lets, body = map_terms((statement, lets, body), lambda t: substitute(t, declared))
        return ProofScript(ident, title, hypothesis, statement, lets, body, self.source)

    def parse_block_items(self, goal: Judgment) -> tuple[tuple[tuple[str, Term], ...], Block, int]:
        """Items of a block up to and including its qed, and the token index of
        its first let; the block is not brace-delimited."""
        ts = self.ts
        lets: list[tuple[str, Term]] = []
        steps: list[Step] = []
        first_let = -1
        while True:
            if ts.accept("let"):
                first_let = first_let if lets else ts.i - 1
                name = ts.expect("WORD")
                ts.expect(":=")
                lets.append((name, _term(ts)))
                continue
            if ts.accept("have"):
                label = ts.expect("WORD")
                ts.expect(":")
                judgment = _parse_judgment(ts)
                ts.expect_word("by")
                steps.append(self.parse_method(label, judgment))
                continue
            if ts.accept("qed"):
                ts.expect_word("by")
                if ts.peek() == "WORD" and ts.texts[ts.i] not in _METHOD_WORDS:
                    steps.append(RefStep(self._auto_label(), goal, ts.expect("WORD")))
                else:
                    steps.append(self.parse_method(self._auto_label(), goal))
                return tuple(lets), tuple(steps), first_let
            raise ts.error(expected=("let", "have", "qed"))

    def parse_inner_block(self, goal: Judgment) -> Block:
        self.ts.expect("{")
        lets, steps, first_let = self.parse_block_items(goal)
        if lets:  # raised once the block parses, so that its other faults come first
            raise self.ts.error("let is only allowed at theorem top level", at=first_let)
        self.ts.expect("}")
        return steps

    def parse_method(self, label: str, goal: Judgment) -> Step:
        ts = self.ts
        if ts.accept("chain"):
            return ChainStep(label, goal, _parse_term_list(ts))
        if ts.accept("normalize"):
            return NormalizeStep(label, goal, _parse_int(ts) if ts.accept("fuel") else None)
        if ts.accept("ext"):
            return ExtStep(label, goal, _parse_int(ts))
        if ts.accept("theorem"):
            ident = ts.expect("WORD")
            return TheoremStep(label, goal, ident, _parse_subst(ts) if ts.accept("with") else ())
        if ts.accept("contradiction"):
            if ts.accept("as"):
                assume = ts.expect("WORD")
                body = self.parse_inner_block(FALSUM)
                return ContradictionStep(label, goal, assume, body)
            eq_label = ts.expect("WORD")
            neq_label = ts.expect("WORD")
            return FalsumStep(label, goal, eq_label, neq_label)
        if ts.accept("cases"):
            ts.expect_word("Eq")
            ts.expect("<")
            left = _term(ts)
            ts.expect(",")
            right = _term(ts)
            ts.expect(">")
            ts.expect_word("as")
            ts.expect("(")
            case_label = ts.expect("WORD")
            ts.expect(",")
            dicho_label = ts.expect("WORD")
            ts.expect(")")
            ts.expect("{")
            ts.expect_word("p1")
            ts.expect("=>")
            branch1 = self.parse_inner_block(goal)
            branch2 = None
            if ts.accept("p2"):
                ts.expect("=>")
                branch2 = self.parse_inner_block(goal)
            ts.expect("}")
            return CasesStep(label, goal, left, right, case_label, dicho_label, branch1, branch2)
        if ts.accept("k-injection"):
            return KInjectStep(label, goal, ts.expect("WORD"))
        if ts.accept("application"):
            args = _parse_term_list(ts)
            ts.expect("(")
            a = ts.expect("WORD")
            ts.expect(",")
            b = ts.expect("WORD")
            ts.expect(",")
            n = ts.expect("WORD")
            ts.expect(")")
            return ApplicationStep(label, goal, args, a, b, n)
        raise ts.error(expected=tuple(sorted(_METHOD_WORDS)))


def parse_scripts(text: str, source: str = "<script>") -> list[ProofScript]:
    ts = TokenStream(text)
    parser = _ScriptParser(ts, source)
    scripts: list[ProofScript] = []
    while ts.peek() != "EOF":
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
        ts = TokenStream.of_tokens(toks + [Token("EOF", "", lineno, last.col + len(last.text))])
        name = ts.expect("WORD")
        if any(name == spec.name for spec in specs):
            raise ts.error(f"{name} is defined twice", at=0)
        while ts.peek() == "WORD":
            ts.expect("WORD")
        params = toks[1:ts.i]
        ts.expect("=")
        body = _term(ts)
        if ts.peek() != "EOF":
            raise ts.error(f"trailing input in definition on line {lineno}")
        for p in params:
            if variable_name(p.text) is None:
                raise ParseError(f"parameter {p.text!r} must be a variable", p.line, p.col)
        try:
            specs.append(CombinatorSpec(name, tuple(p.text for p in params), body))
        except ValueError as exc:
            raise ParseError(str(exc), toks[0].line, toks[0].col) from None
    return specs
