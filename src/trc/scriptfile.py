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

from .kernel import (
    ApplicationStep, Block, CasesStep, ChainStep, ContradictionStep, Equal,
    ExtStep, FALSUM, FalsumStep, HypEquation, Hypothesis, Judgment,
    KInjectStep, NormalizeStep, NotEqual, ProofScript, RefStep, Step,
    TheoremStep,
)
from .terms import (
    CONSTANTS, CombinatorSpec, Defined, ParseError, Term, Token, TokenStream, Var, name_atom, parse_term_tokens,
    tokenize,
)

# Words with structural meaning in script files; they terminate embedded
# terms, so scripts cannot use them as variable names.
SCRIPT_RESERVED = frozenset({
    "theorem", "hypothesis", "prove", "let", "have", "qed", "by", "false",
    "with", "as", "fuel", "chain", "normalize", "ext", "contradiction",
    "cases", "k-injection", "application",
})


def _term(ts: TokenStream, atoms: dict[str, Term] = CONSTANTS, pattern: bool = False) -> Term:
    return parse_term_tokens(ts, pattern, SCRIPT_RESERVED, atoms)

_METHOD_WORDS = {
    "chain", "normalize", "ext", "theorem", "contradiction", "cases",
    "k-injection", "application",
}


def _parse_int(ts: TokenStream) -> int:
    text = ts.expect("WORD")
    if not text.isdigit():
        raise ts.error(f"expected a number, got {text!r}", at=ts.i - 1)
    try:
        return int(text)
    except ValueError:  # more digits than ``int`` converts
        raise ts.error(f"a number of {len(text)} digits is too long", at=ts.i - 1) from None


def _parse_judgment(ts: TokenStream, atoms: dict[str, Term]) -> Judgment:
    if ts.accept("false"):
        return FALSUM
    lhs = _term(ts, atoms)
    if ts.accept("="):
        return Equal(lhs, _term(ts, atoms))
    if ts.accept("!="):
        return NotEqual(lhs, _term(ts, atoms))
    raise ts.error(expected=("=", "!="))


def _parse_subst(ts: TokenStream, atoms: dict[str, Term]) -> tuple[tuple[str, Term], ...]:
    pairs: list[tuple[str, Term]] = []
    while True:
        name = ts.expect("WORD")
        if any(name == bound for bound, _ in pairs):
            raise ts.error(f"{name} is bound twice", at=ts.i - 1)
        ts.expect(":=")
        pairs.append((name, _term(ts, atoms)))
        if not ts.accept(","):
            return tuple(pairs)


def _parse_term_list(ts: TokenStream, atoms: dict[str, Term]) -> tuple[Term, ...]:
    ts.expect("[")
    terms = [_term(ts, atoms)]
    while ts.accept(","):
        terms.append(_term(ts, atoms))
    ts.expect("]")
    return tuple(terms)


def _let_atoms(texts: list[str], i: int) -> dict[str, Term]:
    """The atoms a theorem's terms but its hypotheses start with: the constants and, as declared
    names, the variables a ``let WORD :=`` binds up to the closing brace (in an inner block, an error)."""
    atoms, depth = CONSTANTS, 0
    for j in range(i, len(texts) - 2):
        text = texts[j]
        if text == "let" and texts[j + 2] == ":=" and type(name_atom(texts[j + 1])) is Var:
            atoms = {**atoms, texts[j + 1]: Defined(texts[j + 1])}
        elif text == "{" or text == "}":
            depth += 1 if text == "{" else -1
            if depth < 0:
                break
    return atoms


class _ScriptParser:
    def __init__(self, ts: TokenStream, source: str):
        self.ts = ts
        self.source = source
        self.fresh = 0
        self.atoms = CONSTANTS  # what the current theorem's terms start with

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
        self.atoms = _let_atoms(ts.texts, ts.i) if "let" in ts.kinds else CONSTANTS
        statement = _parse_judgment(ts, self.atoms)
        lets, body, _ = self.parse_block_items(statement)
        ts.expect("}")
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
                if name_atom(name) is None:
                    raise ts.error(f"let must bind a variable or a declared name, not {name!r}", at=ts.i - 1)
                ts.expect(":=")
                lets.append((name, _term(ts, self.atoms)))
                continue
            if ts.accept("have"):
                label = ts.expect("WORD")
                ts.expect(":")
                judgment = _parse_judgment(ts, self.atoms)
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
            return ChainStep(label, goal, _parse_term_list(ts, self.atoms))
        if ts.accept("normalize"):
            return NormalizeStep(label, goal, _parse_int(ts) if ts.accept("fuel") else None)
        if ts.accept("ext"):
            return ExtStep(label, goal, _parse_int(ts))
        if ts.accept("theorem"):
            ident = ts.expect("WORD")
            return TheoremStep(label, goal, ident, _parse_subst(ts, self.atoms) if ts.accept("with") else ())
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
            left = _term(ts, self.atoms)
            ts.expect(",")
            right = _term(ts, self.atoms)
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
            args = _parse_term_list(ts, self.atoms)
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


class _SpecLine(TokenStream):
    """Line ``lineno`` of a spec file, whose definition ends just after its last token."""

    def __init__(self, text: str, lineno: int) -> None:
        self.lineno = lineno
        super().__init__(text)

    def token(self, i: int) -> Token:
        if self._tokens is None:
            *toks, _ = tokenize(self._text, self.lineno)
            self._tokens = toks + [Token("EOF", "", self.lineno, toks[-1].col + len(toks[-1].text))]
        return self._tokens[i]


def parse_combinator_specs(text: str) -> list[CombinatorSpec]:
    """One definition per line: ``NAME x1 ... xn = term``.  Every line's
    stream is made before any is parsed, so a bad character is reported first."""
    specs: list[CombinatorSpec] = []
    for ts in [_SpecLine(line, lineno) for lineno, line in enumerate(text.split("\n"), 1)]:
        if ts.peek() == "EOF":  # a blank or comment line
            continue
        name = ts.expect("WORD")
        if any(name == spec.name for spec in specs):
            raise ts.error(f"{name} is defined twice", at=0)
        while ts.peek() == "WORD":
            ts.expect("WORD")
        params = ts.texts[1:ts.i]
        ts.expect("=")
        body = _term(ts)
        if ts.peek() != "EOF":
            raise ts.error(f"trailing input in definition on line {ts.lineno}")
        for i, p in enumerate(params, 1):
            if type(name_atom(p)) is not Var:
                raise ts.error(f"parameter {p!r} must be a variable", at=i)
        try:
            specs.append(CombinatorSpec(name, tuple(params), body))
        except ValueError as exc:
            raise ts.error(str(exc), at=0) from None
    return specs
