"""Verification kernel for the TRC combinator calculus.

Provides the term language, a deterministic fuel-bounded rewrite engine with
extensional equality, a stratification solver and bracket-abstraction
compiler, a small proof checker with a theorem registry, and a bundled,
machine-checked theorem corpus.
"""

from .engine import (
    EngineConfig, ExtEvidence, NormalizeResult, Rule, RuleError, RuleSet,
    TraceStep, core_rules, ext_equal, normalize,
)
from .kernel import (
    CheckReport, Equal, FALSUM, Falsum, Hypothesis, HypEquation, Judgment,
    NotEqual, ProofScript, Registry, RegistryError, ScriptError,
    TheoremRecord, check_script,
)
from .corpus import (
    BASE_DEFINITIONS, Corpus, CorpusReport, EQUALITY_ENTRY_IDS,
    CATALOG_COVERAGE, REFUTATION_ENTRY_IDS, list_theorems, load_corpus,
    run_corpus, standard_context,
)
from .scriptfile import parse_combinator_specs, parse_scripts
from .stratify import (
    CombinatorSpec, CompileError, Constraint, NotAbstractable, StratifyResult,
    abstract, compile_combinator, optimize, replay_conflict,
)
from .terms import (
    ABST, App, Const, Defined, EQ, KWrap, P1, P2, Pair, ParseError, PatVar,
    PositionError, Term, TrcError, Var, expand_defined, free_vars, fresh_var,
    nodes, parse, parse_pattern, rebuild, render, replace_at, substitute,
    subterms, term_size,
)

__version__ = "0.1.0"
