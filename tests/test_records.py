"""The ``Record`` classes against the dataclasses they replaced."""

from __future__ import annotations

import ast
import copy
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trc
from trc import engine, kernel, terms
from test_terms import terms as random_terms

# ---------------------------------------------------------------------------
# the oracle: the former dataclass definitions, under their own names so that
# their repr is the one the records must reproduce
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Defined:
    name: str


@dataclass(frozen=True)
class PatVar:
    name: str


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True)
class KWrap:
    body: object


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


@dataclass(frozen=True)
class Equal:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class NotEqual:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class ChainStep:
    label: str
    goal: object
    terms: tuple


@dataclass(frozen=True)
class NormalizeStep:
    label: str
    goal: object
    fuel: Optional[int] = None


@dataclass(frozen=True)
class ExtStep:
    label: str
    goal: object
    arity: int


@dataclass(frozen=True)
class TheoremStep:
    label: str
    goal: object
    theorem_id: str
    subst: tuple = ()


@dataclass(frozen=True)
class ContradictionStep:
    label: str
    goal: object
    assume_label: str
    body: tuple


@dataclass(frozen=True)
class CasesStep:
    label: str
    goal: object
    left: object
    right: object
    case_label: str
    dicho_label: str
    branch_equal: tuple
    branch_not_equal: Optional[tuple]


@dataclass(frozen=True)
class KInjectStep:
    label: str
    goal: object
    source: str


@dataclass(frozen=True)
class ApplicationStep:
    label: str
    goal: object
    args: tuple
    left_label: str
    right_label: str
    neq_label: str


@dataclass(frozen=True)
class FalsumStep:
    label: str
    goal: object
    eq_label: str
    neq_label: str


@dataclass(frozen=True)
class RefStep:
    label: str
    goal: object
    source: str


FORMER = {
    getattr(terms, cls.__name__, None) or getattr(kernel, cls.__name__): cls
    for cls in (Var, Const, Defined, PatVar, App, KWrap, Pair, Equal, NotEqual, Falsum,
                ChainStep, NormalizeStep, ExtStep, TheoremStep, ContradictionStep, CasesStep,
                KInjectStep, ApplicationStep, FalsumStep, RefStep)
}


def former(x):
    """``x`` rebuilt, all the way down, from the oracle's classes."""
    if type(x) is tuple:
        return tuple(former(v) for v in x)
    cls = FORMER.get(type(x))
    if cls is None:
        return x
    return cls(*(former(getattr(x, f)) for f in cls.__dataclass_fields__))


def copy_of(x):
    """An equal ``x`` that shares no record with it."""
    if type(x) is tuple:
        return tuple(copy_of(v) for v in x)
    if isinstance(x, terms.Record):
        return type(x)(*(copy_of(getattr(x, f)) for f in x._fields))
    return x


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

labels = st.sampled_from(["a", "b", "_qed1"])
term_tuples = st.lists(random_terms, min_size=1, max_size=3).map(tuple)
judgments = st.one_of(
    st.builds(kernel.Equal, random_terms, random_terms),
    st.builds(kernel.NotEqual, random_terms, random_terms),
    st.just(kernel.FALSUM),
)
leaf_steps = st.one_of(
    st.builds(kernel.ChainStep, labels, judgments, term_tuples),
    st.builds(kernel.NormalizeStep, labels, judgments, st.none() | st.integers(1, 9)),
    st.builds(kernel.ExtStep, labels, judgments, st.integers(0, 3)),
    st.builds(kernel.TheoremStep, labels, judgments, labels,
              st.lists(st.tuples(labels, random_terms), max_size=2).map(tuple)),
    st.builds(kernel.KInjectStep, labels, judgments, labels),
    st.builds(kernel.ApplicationStep, labels, judgments, term_tuples, labels, labels, labels),
    st.builds(kernel.FalsumStep, labels, judgments, labels, labels),
    st.builds(kernel.RefStep, labels, judgments, labels),
)
blocks = st.lists(leaf_steps, min_size=1, max_size=2).map(tuple)
steps = st.one_of(
    leaf_steps,
    st.builds(kernel.ContradictionStep, labels, judgments, labels, blocks),
    st.builds(kernel.CasesStep, labels, judgments, random_terms, random_terms, labels, labels,
              blocks, st.none() | blocks),
)
records = st.one_of(random_terms, judgments, steps)


# ---------------------------------------------------------------------------
# agreement with the oracle
# ---------------------------------------------------------------------------

def agree(a, b) -> None:
    assert (a == b) == (former(a) == former(b))
    assert (a != b) == (former(a) != former(b))
    assert hash(a) == hash(former(a))
    assert repr(a) == repr(former(a))


@settings(max_examples=300)
@given(random_terms, random_terms)
def test_terms_compare_hash_and_print_as_the_dataclasses_did(a, b):
    agree(a, b)
    agree(a, copy_of(a))


@settings(max_examples=200)
@given(records, records)
def test_judgments_and_steps_compare_hash_and_print_as_the_dataclasses_did(a, b):
    agree(a, b)
    agree(a, copy_of(a))


def test_atoms_of_different_classes_differ():
    assert terms.Var("m") != terms.Defined("m")
    assert terms.Const("P1") != terms.Var("P1")
    assert terms.Var("m") == terms.Var("m")


def test_an_equality_is_not_the_disequality_of_the_same_sides():
    a, b = terms.Var("a"), terms.Var("b")
    assert kernel.Equal(a, b) != kernel.NotEqual(a, b)
    assert kernel.Equal(a, b) == kernel.Equal(a, b)


@pytest.mark.parametrize("record, field", [
    (terms.Var("x"), "name"),
    (terms.App(terms.P1, terms.P2), "fn"),
    (terms.KWrap(terms.P1), "body"),
    (terms.Pair(terms.P1, terms.P2), "left"),
    (kernel.Equal(terms.P1, terms.P2), "lhs"),
    (engine.EngineConfig(), "fuel"),
    (engine.core_rules(), "rules"),
])
def test_fields_cannot_be_assigned_or_deleted(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.undeclared = 1


def test_keyword_construction_and_defaults():
    x, y = terms.Var("x"), terms.Var("y")
    assert terms.App(fn=x, arg=y) == terms.App(x, y)
    assert terms.Pair(x, right=y) == terms.Pair(x, y)
    goal = kernel.Equal(lhs=x, rhs=x)
    assert kernel.NormalizeStep(label="s", goal=goal) == kernel.NormalizeStep("s", goal, None)
    assert engine.EngineConfig(fuel=5) == engine.EngineConfig(5, 4, True, True, True)
    for args, kwargs in [(("s",), {"source": "t"}), (("s", goal, "t"), {"fuel": 3}),
                         (("s", goal, "t", "u"), {}), (("s", goal), {"label": "t", "source": "t"})]:
        with pytest.raises(TypeError, match="RefStep takes the fields label, goal, source"):
            kernel.RefStep(*args, **kwargs)


def test_replace_changes_only_the_named_fields():
    step = kernel.TheoremStep("s", kernel.FALSUM, "2.6", ())
    changed = step.replace(theorem_id="2.7")
    assert changed == kernel.TheoremStep("s", kernel.FALSUM, "2.7", ())
    assert step.theorem_id == "2.6"
    with pytest.raises(TypeError):
        step.replace(fuel=3)


@pytest.mark.parametrize("record", [
    terms.parse("k(<x, P1>) Y"), kernel.Equal(terms.P1, terms.P2), engine.core_rules(),
    kernel.ChainStep("s", kernel.FALSUM, (terms.P1,)),
    # a step as normalize records it, with its position and result not yet built
    engine.normalize(terms.parse("k(x) (k(y) z)"), engine.core_rules()).trace[-1],
])
def test_records_copy_and_pickle(record):
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert copied == record and type(copied) is type(record)


def test_validation_still_runs_on_construction():
    with pytest.raises(ValueError):
        engine.EngineConfig(fuel=0)
    with pytest.raises(engine.RuleError):
        engine.Rule("r", terms.PatVar("$x"), terms.PatVar("$y"))


def test_rule_set_equality_ignores_its_index():
    used, fresh = engine.core_rules(), engine.core_rules()
    used.candidates(terms.App(terms.P1, terms.Pair(terms.P1, terms.P2)))
    assert used == fresh and hash(used) == hash(fresh)
    assert "_index" not in repr(used)


# ---------------------------------------------------------------------------
# the dataclass allowlist
# ---------------------------------------------------------------------------

SRC = Path(trc.__file__).parent


def _names_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
            or isinstance(decorator, ast.Attribute) and decorator.attr == "dataclass")


def dataclasses_in_source() -> set[str]:
    """``module.Class`` for every class in ``src/trc`` decorated as a dataclass."""
    return {
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and any(map(_names_dataclass, node.decorator_list))
    }


def test_only_the_known_dataclasses():
    # both are copied with dataclasses.replace by the benchmark's tests;
    # every other record class is a Record, which costs nothing to define
    assert dataclasses_in_source() == {"engine.NormalizeResult", "corpus.EntryResult"}
