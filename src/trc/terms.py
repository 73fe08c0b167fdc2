"""Term language of the TRC combinator calculus.

Terms are built from variables, the four constants ``Abst``, ``Eq``, ``P1``,
``P2``, declared (defined) names, binary application, the constant-function
former ``k(t)`` and the pairing former ``<s,t>``.  There are no binders:
variables are free metavariables, so substitution is capture-free by
construction.

Concrete syntax::

    term  := app ; app := atom | app atom
    atom  := 'Abst' | 'Eq' | 'P1' | 'P2' | IDENT
           | 'k' '(' term ')' | '<' term ',' term '>' | '(' term ')'
    IDENT := [a-zA-Z_][a-zA-Z0-9_']*   (keywords excluded)

Application associates left (``x y z`` reads ``(x y) z``).  Lowercase
identifiers are variables; identifiers starting with an uppercase letter are
declared names.  In rule and hypothesis syntax, ``$name`` is a pattern
variable, lexically distinct from object variables.  ``--`` starts a comment
running to the end of the line.

Term traversal goes through ``nodes`` (preorder) and ``rebuild`` (a
bottom-up copy mapping each atom); substitution, definition unfolding,
pattern conversion and the size and variable queries are built on them.
These two, ``render`` and the parser keep their own stacks, so they handle
terms of any depth.  The front end reads a text's tokens with one
``findall`` of one regular expression, whose only group is the token after
any blanks, newlines and comments; each distinct token text is classified
once, by its first character.  Lines and columns are worked out, by
``tokenize``, only when an error is reported.  The term parser reads the
list of token texts directly, without a method call per token.
``fresh_vars`` is the one fresh-name scheme, v0, v1, ..., of ``ext`` steps
and ``ext_equal``.
Terms, like the package's other value classes, are ``Record``s: read-only
``__slots__`` objects whose methods are written out, not generated at import
as a dataclass's are.  Term ``==`` and ``hash`` recurse.
"""

from __future__ import annotations

import re
from itertools import count
from operator import attrgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Union


class TrcError(Exception):
    """Base class for errors raised by this package."""


class ParseError(TrcError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += " (expected one of: " + ", ".join(expected) + ")"
        super().__init__(detail)


class PositionError(TrcError):
    def __init__(self, selector: str, at: tuple[str, ...]):
        self.selector = selector
        self.at = at
        super().__init__(f"invalid position: selector {selector!r} fails at {format_position(at)}")


# ---------------------------------------------------------------------------
# Records and term nodes
# ---------------------------------------------------------------------------

class _RecordType(type):
    """Makes each name a ``Record`` class body annotates a slot, and each one
    not starting with ``_`` a field after its base's; a value the body gives
    such a name is the field's default."""

    def __new__(mcs, name: str, bases: tuple, ns: dict) -> "_RecordType":
        names = tuple(ns.get("__annotations__", ()))
        defaults = {n: ns.pop(n) for n in names if n in ns}
        cls = super().__new__(mcs, name, bases, {**ns, "__slots__": names + ns.get("__slots__", ())})
        fields = cls._fields = getattr(cls, "_fields", ()) + tuple(n for n in names if n[0] != "_")
        cls._defaults = {**getattr(cls, "_defaults", {}), **defaults}
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        cls._values = staticmethod(  # the tuple of field values
            attrgetter(*fields) if len(fields) > 1 else lambda r: tuple(getattr(r, f) for f in fields))
        return cls


class Record(metaclass=_RecordType):
    """Base of the package's value classes: read-only ``__slots__`` objects,
    declared like dataclasses.  ``__init__`` takes the fields by position or
    keyword.  ``==`` and ``hash`` compare and hash the tuple of field values,
    and only between records of exactly one class (so ``Equal(a, b) !=
    NotEqual(a, b)``); ``repr`` is ``Class(field=value, ...)``.  A slot starting
    with ``_`` holds private state that the class fills itself.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # fill in keyword and default values
            values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
            if len(args) > len(fields) or values.keys() != set(fields) or kwargs.keys() & set(fields[:len(args)]):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}, "
                                f"not {len(args)} positional and the keywords {sorted(kwargs)}")
            args = tuple(values[f] for f in fields)
        for put, value in zip(self._setters, args):
            put(self, value)

    def replace(self, **changes: object) -> "Record":
        """A copy with the fields named in ``changes`` set to their new values."""
        values = tuple(map(changes.pop, self._fields, self._values(self)))
        return type(self)(*values, **changes)  # a change left over names no field

    def __reduce__(self) -> tuple:  # for copy and pickle, which would assign the slots
        return type(self), self._values(self)

    def __eq__(self, other: object) -> bool:
        return self._values(self) == self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


# Term nodes are built and compared far more often than any other record, so
# they have their own ``__init__``, ``==`` and ``hash``, with the same results.

class _Atom(Record):
    """A named leaf; atoms of different classes never compare equal."""

    name: str

    def __init__(self, name: str) -> None:
        _set_name(self, name)

    def __eq__(self, other: object) -> bool:
        return self.name == other.name if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Var(_Atom):
    pass


class Const(_Atom):
    pass


class Defined(_Atom):
    pass


class PatVar(_Atom):
    """Pattern variable, named with its '$'; only in rule/hypothesis patterns."""


class App(Record):
    fn: "Term"
    arg: "Term"

    def __init__(self, fn: "Term", arg: "Term") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)

    def __eq__(self, other: object) -> bool:
        return (self.fn, self.arg) == (other.fn, other.arg) if other.__class__ is App else NotImplemented

    def __hash__(self) -> int:
        return hash((self.fn, self.arg))


class KWrap(Record):
    body: "Term"

    def __init__(self, body: "Term") -> None:
        _set_body(self, body)

    def __eq__(self, other: object) -> bool:
        return (self.body,) == (other.body,) if other.__class__ is KWrap else NotImplemented

    def __hash__(self) -> int:
        return hash((self.body,))


class Pair(Record):
    left: "Term"
    right: "Term"

    def __init__(self, left: "Term", right: "Term") -> None:
        _set_left(self, left)
        _set_right(self, right)

    def __eq__(self, other: object) -> bool:
        return (self.left, self.right) == (other.left, other.right) if other.__class__ is Pair else NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


# the slot setters the constructors write through, past the read-only guard
(_set_name,), (_set_fn, _set_arg), (_set_body,), (_set_left, _set_right) = (
    _Atom._setters, App._setters, KWrap._setters, Pair._setters)

Term = Union[Var, Const, Defined, PatVar, App, KWrap, Pair]

ABST = Const("Abst")
EQ = Const("Eq")
P1 = Const("P1")
P2 = Const("P2")

CONSTANTS = {"Abst": ABST, "Eq": EQ, "P1": P1, "P2": P2}

# Position selectors, in child order.
FN = "function"
ARG = "argument"
KBODY = "k-body"
LEFT = "pair-left"
RIGHT = "pair-right"

Position = tuple[str, ...]
Subst = Mapping[str, Term]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def app(fn: Term, *args: Term) -> Term:
    """Left-associated application of ``fn`` to ``args``."""
    t = fn
    for a in args:
        t = App(t, a)
    return t


def children(t: Term) -> tuple[tuple[str, Term], ...]:
    if type(t) is App:
        return ((FN, t.fn), (ARG, t.arg))
    if type(t) is KWrap:
        return ((KBODY, t.body),)
    if type(t) is Pair:
        return ((LEFT, t.left), (RIGHT, t.right))
    return ()


# selector -> the constructor it applies to and the child field it names
_SELECTED = {FN: (App, "fn"), ARG: (App, "arg"), KBODY: (KWrap, "body"),
             LEFT: (Pair, "left"), RIGHT: (Pair, "right")}


def _descend(t: Term, pos: Position) -> list[Term]:
    """The nodes of ``t`` from the root down to the subterm at ``pos``;
    raises PositionError on the first bad selector."""
    path = [t]
    for i, sel in enumerate(pos):
        cls, field = _SELECTED.get(sel, (None, ""))
        if type(t) is not cls:
            raise PositionError(sel, pos[:i])
        t = getattr(t, field)
        path.append(t)
    return path


def with_child(t: Term, sel: str, child: Term) -> Term:
    """``t`` with its child under selector ``sel`` replaced by ``child``."""
    cls = type(t)
    if cls is App and sel == FN:
        return App(child, t.arg)
    if cls is App and sel == ARG:
        return App(t.fn, child)
    if cls is KWrap and sel == KBODY:
        return KWrap(child)
    if cls is Pair and sel == LEFT:
        return Pair(child, t.right)
    if cls is Pair and sel == RIGHT:
        return Pair(t.left, child)
    raise PositionError(sel, ())


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    """``t`` with exactly the subterm at ``pos`` replaced by ``s``."""
    path = _descend(t, pos)
    for node, sel in zip(reversed(path[:-1]), reversed(pos)):
        s = with_child(node, sel, s)
    return s


def format_position(pos: Position) -> str:
    return ".".join(pos) if pos else "root"


def nodes(t: Term) -> Iterator[Term]:
    """Every subterm occurrence of ``t`` in preorder, without positions."""
    stack = [t]
    while stack:
        sub = stack.pop()
        yield sub
        cls = type(sub)
        if cls is App:
            stack += (sub.arg, sub.fn)
        elif cls is Pair:
            stack += (sub.right, sub.left)
        elif cls is KWrap:
            stack.append(sub.body)


def rebuild(t: Term, leaf: Callable[[Term], Term]) -> Term:
    """Bottom-up copy of ``t`` with every atom ``a`` replaced by ``leaf(a)``.

    Atoms are visited left to right, which is their preorder.  A compound
    subterm whose children all come back unchanged is returned as the same
    object.
    """
    done: list[Term] = []  # copies of the finished subterms, left to right
    # a term still to visit, or (node,) once the copies of its children are on ``done``
    todo: list[Union[Term, tuple[Term]]] = [t]
    while todo:
        sub = todo.pop()
        cls = type(sub)
        if cls is tuple:
            node = sub[0]
            if type(node) is KWrap:
                body = done.pop()
                done.append(node if body is node.body else KWrap(body))
                continue
            b = done.pop()
            a = done.pop()
            if type(node) is App:
                done.append(node if a is node.fn and b is node.arg else App(a, b))
            else:
                done.append(node if a is node.left and b is node.right else Pair(a, b))
        elif cls is App:
            todo += ((sub,), sub.arg, sub.fn)
        elif cls is Pair:
            todo += ((sub,), sub.right, sub.left)
        elif cls is KWrap:
            todo += ((sub,), sub.body)
        else:
            done.append(leaf(sub))
    return done[0]


def term_size(t: Term) -> int:
    return sum(1 for _ in nodes(t))


def free_vars(t: Term) -> set[str]:
    """Names of object variables occurring in ``t``."""
    return {sub.name for sub in nodes(t) if type(sub) is Var}


def pattern_vars(t: Term) -> set[str]:
    return {sub.name for sub in nodes(t) if type(sub) is PatVar}


def defined_names(t: Term) -> set[str]:
    return {sub.name for sub in nodes(t) if type(sub) is Defined}


def fresh_vars(avoid: set[str]) -> Iterator[str]:
    """The names of the fixed scheme v0, v1, ... not in ``avoid``, in order."""
    return (name for name in (f"v{i}" for i in count()) if name not in avoid)


def substitute(t: Term, subst: Subst) -> Term:
    """Simultaneous replacement of bound variable / pattern-variable names."""
    def leaf(a: Term) -> Term:
        cls = type(a)
        return subst.get(a.name, a) if cls is Var or cls is PatVar else a

    return rebuild(t, leaf)


def match_pattern(pattern: Term, t: Term) -> Optional[dict[str, Term]]:
    """First-order match of ``pattern`` against ``t``.

    Pattern variables bind subterms; repeated pattern variables must match
    syntactically equal subterms.  Everything else (including object
    variables) matches literally.  Returns the binding map, or None.
    """
    bindings: dict[str, Term] = {}
    stack = [(pattern, t)]
    while stack:
        p, s = stack.pop()
        cls = type(p)
        if cls is PatVar:
            seen = bindings.get(p.name)  # type: ignore[union-attr]
            if seen is None:
                bindings[p.name] = s  # type: ignore[union-attr]
            elif seen != s:
                return None
        elif cls is not type(s):
            return None
        # children are pushed right to left, so a mismatched head fails first
        elif cls is App:
            stack.append((p.arg, s.arg))  # type: ignore[union-attr]
            stack.append((p.fn, s.fn))  # type: ignore[union-attr]
        elif cls is Pair:
            stack.append((p.right, s.right))  # type: ignore[union-attr]
            stack.append((p.left, s.left))  # type: ignore[union-attr]
        elif cls is KWrap:
            stack.append((p.body, s.body))  # type: ignore[union-attr]
        # an atom (variable, constant or declared name) matches by name
        elif p.name != s.name:  # type: ignore[union-attr]
            return None
    return bindings


def to_pattern(t: Term) -> Term:
    """Copy of ``t`` with every object variable turned into a pattern variable."""
    return rebuild(t, lambda a: PatVar("$" + a.name) if type(a) is Var else a)


def replace_defined(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace declared-name occurrences by terms (one level, no recursion)."""
    return rebuild(t, lambda a: mapping.get(a.name, a) if type(a) is Defined else a)


def expand_defined(t: Term, defs: Mapping[str, Term], _active: frozenset[str] = frozenset(),
                   memo: Optional[dict[str, Term]] = None) -> Term:
    """Recursively unfold every defined name bound in ``defs``.

    Only the unfolding of a definition body recurses, so the depth is bounded
    by the number of definitions, not by the size of ``t``.  Each name is
    unfolded once per call, or once for as long as the caller keeps ``memo``
    (a name's unfolding under ``defs``, by name).
    """
    memo = {} if memo is None else memo

    def leaf(a: Term) -> Term:
        if type(a) is not Defined or a.name not in defs:
            return a
        found = memo.get(a.name)
        if found is None:
            if a.name in _active:
                raise TrcError(f"cyclic definition of {a.name}")
            found = memo[a.name] = expand_defined(defs[a.name], defs, _active | {a.name}, memo)
        return found

    return rebuild(t, leaf)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render(t: Term) -> str:
    """Canonical text with minimal parentheses; parse(render(t)) == t."""
    out: list[str] = []
    todo: list[Union[Term, str]] = [t]  # subterms and literal text, last one first
    while todo:
        item = todo.pop()
        cls = type(item)
        if cls is str:
            out.append(item)
        elif cls is App:  # left-associated: only an application argument needs parens
            todo += (")", item.arg, " (", item.fn) if type(item.arg) is App else (item.arg, " ", item.fn)
        elif cls is KWrap:
            todo += (")", item.body, "k(")
        elif cls is Pair:
            todo += (">", item.right, ",", item.left, "<")
        elif cls is Var or cls is Const or cls is Defined or cls is PatVar:
            out.append(item.name)
        else:
            raise TypeError(f"not a term: {item!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Lexer (shared by the term grammar and the proof-script grammar)
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # WORD, PATVAR, STRING, EOF, or the punctuation text itself
    text: str  # as written, a string with its quotes
    line: int
    col: int


# Blanks, newlines and comments, then one token's text, the only group: a
# word, a pattern variable, a string with its quotes, a punctuation mark, any
# other character (a bad one), or the empty text at the end of the input.
# So every match starts where the last one ended, and ``findall`` lists the
# token texts.  A comment is skipped whole: its lookahead fails on a partial
# one.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:--[^\n]*(?![^\n])[ \t\r\n]*)*"
    r"""([A-Za-z0-9_][A-Za-z0-9_.'-]*|\$[A-Za-z0-9_][A-Za-z0-9_.'-]*|"[^"\n]*"|:=|!=|=>|[()<>,\[\]{}:;=|]|.|\Z)""")
_PUNCTUATION = frozenset((":=", "!=", "=>", *"()<>,[]{}:;=|"))
# a quote or a '$' is BAD only where its STRING or PATVAR alternative failed
_BAD_CHARACTERS = {'"': "unterminated string", "$": "'$' must introduce a pattern variable"}


def _kind(text: str) -> str:
    """The kind of a token text that ``_TOKEN_RE`` found, from its first
    character; a one-character text that starts no token is BAD."""
    if text in _PUNCTUATION:
        return text
    first = text[:1]
    if first.isascii() and (first.isalnum() or first == "_"):
        return "WORD"
    if len(text) > 1:
        return "PATVAR" if first == "$" else "STRING"
    return "BAD" if text else "EOF"


def tokenize(text: str, line: int = 1) -> list[Token]:
    """The tokens of ``text``, which starts on line ``line``, with their lines
    and columns, ending with EOF; raises ParseError at the first bad
    character.  Parsing reads only the token texts (see ``TokenStream``) and
    comes here to place an error."""
    toks: list[Token] = []
    base = -1  # the offset just before the current line starts
    end = 0  # the end of the last token
    for m in _TOKEN_RE.finditer(text):
        start, value = m.start(1), m[1]
        newlines = text.count("\n", end, start)
        if newlines:
            line += newlines
            base = text.rindex("\n", end, start)
        kind = _kind(value)
        if kind == "BAD":
            raise ParseError(_BAD_CHARACTERS.get(value, f"unexpected character {value!r}"), line, start - base)
        if kind == "EOF":  # a comment on the last line does not move the end position
            comment = text.find("--", max(end, base + 1))
            toks.append(Token(kind, "", line, (start if comment < 0 else comment) - base))
            break
        toks.append(Token(kind, value, line, start - base))
        end = m.end()
    return toks


class TokenStream:
    """The tokens of one text, read by index.

    ``texts`` holds each token's text as written (a string with its quotes),
    ending with the empty text of EOF, and ``kinds`` maps each distinct text
    to its kind: one ``findall`` and one classification per distinct text
    make both.  ``i`` is the index of the next token.  Lines and columns are
    worked out, by ``tokenize``, only when an error is reported.  A bad
    character is reported when the stream is made, before any parse error.
    """

    def __init__(self, text: str) -> None:
        texts = _TOKEN_RE.findall(text)
        if len(texts) > 1 and not texts[-2]:  # trailing blanks end in two empty texts
            texts.pop()
        self.kinds = {t: _kind(t) for t in set(texts)}
        self.texts, self.i = texts, 0
        self._text, self._tokens = text, None
        if "BAD" in self.kinds.values():
            self.token(0)  # raises at the first bad character

    def token(self, i: int) -> Token:
        """Token ``i`` with its line and column."""
        if self._tokens is None:
            self._tokens = tokenize(self._text)
        return self._tokens[i]

    def error(self, message: str = "", expected: tuple[str, ...] = (), at: Optional[int] = None) -> ParseError:
        """A ParseError at token ``at``, by default the next one; without a
        message it names that token as written."""
        at = self.i if at is None else at
        tok = self.token(at)
        return ParseError(message or f"got {self.texts[at] or 'EOF'!r}", tok.line, tok.col, expected)

    def peek(self) -> str:
        """The next token's kind."""
        return self.kinds[self.texts[self.i]]

    def expect(self, kind: str) -> str:
        """Take the next token if it is of ``kind``, and return its text (a
        string's without its quotes)."""
        text = self.texts[self.i]
        if self.kinds[text] != kind:
            raise self.error(expected=(kind,))
        self.i += 1
        return text[1:-1] if kind == "STRING" else text

    def accept(self, text: str) -> bool:
        """Take the next token if it is the word or the punctuation mark ``text``;
        a string or a pattern variable is never taken."""
        if self.texts[self.i] != text or self.kinds[text] not in ("WORD", text):
            return False
        self.i += 1
        return True

    def expect_word(self, text: str) -> None:
        if not self.accept(text):
            raise self.error(expected=(text,))


_ATOM_STARTERS = ("WORD", "PATVAR", "(", "<")


def parse_term_tokens(
    ts: TokenStream, pattern: bool = False, reserved: frozenset[str] = frozenset(), atoms: Mapping = CONSTANTS
) -> Term:
    """Parse one term; WORD tokens in ``reserved`` end the term (script keywords).

    A word in ``atoms``, which holds the constants, is read as its atom.
    Only the outermost term stops at a reserved word: inside brackets it is an
    identifier.  Each open bracket (``k(``, ``(``, ``<`` and the right side
    ``<...,``) is a frame on an explicit stack holding the application folded
    before the bracket opened, so nesting costs no recursion.  The
    parser reads ``ts.texts`` directly, looking up a kind only for a text
    that is not a name it has already read, and leaves ``ts.i`` at the first
    token it did not take, whether it returns or raises.
    """
    texts, kinds, i = ts.texts, ts.kinds, ts.i
    atoms = dict(atoms)  # a name's text -> its atom, for this call
    # frames: (opener, the application before it, the left side of a pair)
    stack: list[tuple[str, Optional[Term], Optional[Term]]] = []
    t: Optional[Term] = None  # the application folded so far in the innermost bracket
    try:
        while True:
            text = texts[i]
            atom = atoms.get(text)
            if atom is None or not stack and text in reserved:
                kind = kinds[text]
                if kind in _ATOM_STARTERS and (stack or kind != "WORD" or text not in reserved):
                    if kind == "PATVAR":
                        if not pattern:
                            raise ts.error("pattern variables are only allowed in patterns", at=i)
                        atom = atoms[text] = PatVar(text)
                    elif kind == "WORD" and text != "k":
                        if not _IDENT_RE.fullmatch(text):
                            i += 1  # the stream is left past the word
                            raise ts.error(f"{text!r} is not a valid identifier", at=i - 1)
                        atom = atoms[text] = Defined(text) if text[0].isupper() else Var(text)
                    else:  # an opening bracket
                        i += 1
                        if kind == "WORD":  # k, which opens with the '(' after it
                            if texts[i] != "(":
                                raise ts.error(expected=("(",), at=i)
                            i += 1
                            kind = "k("
                        stack.append((kind, t, None))
                        t = None
                        continue
                elif t is None:
                    if kind == "WORD":  # a reserved word where the outermost term starts
                        raise ts.error(f"expected a term, got keyword {text!r}", at=i)
                    raise ts.error(expected=("identifier", "k(", "<", "("), at=i)
                elif not stack:
                    return t
                else:
                    opener, before, left = stack.pop()
                    want = "," if opener == "<" else ">" if opener == "<," else ")"
                    if kind != want:
                        raise ts.error(expected=(want,), at=i)
                    if opener == "<":
                        i += 1
                        stack.append(("<,", before, t))
                        t = None
                        continue
                    atom = KWrap(t) if opener == "k(" else Pair(left, t) if opener == "<," else t
                    t = before
            i += 1
            t = atom if t is None else App(t, atom)
    finally:
        ts.i = i


def parse(text: str, *, pattern: bool = False) -> Term:
    """Parse a single term; raises ParseError with line/column on bad input."""
    ts = TokenStream(text)
    t = parse_term_tokens(ts, pattern)
    if ts.peek() != "EOF":
        raise ts.error(f"trailing input {ts.texts[ts.i]!r}", ("end of input",))
    return t


def parse_pattern(text: str) -> Term:
    return parse(text, pattern=True)


def name_atom(word: str) -> Optional[Term]:
    """The variable or declared name the term parser reads the WORD ``word``
    as; None for ``k``, a constant, and a word that is not an identifier."""
    if word == "k" or word in CONSTANTS or not _IDENT_RE.fullmatch(word):
        return None
    return Defined(word) if word[0].isupper() else Var(word)


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
        unknown = defined_names(self.body) - {"I"}  # the one name the combinator compiler emits
        if unknown:
            raise ValueError(f"{self.name}: body uses undeclared names {sorted(unknown)}")
