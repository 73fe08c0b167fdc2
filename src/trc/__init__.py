"""Verification kernel for the TRC combinator calculus.

Provides the term language, a deterministic fuel-bounded rewrite engine with
extensional equality, a stratification solver and bracket-abstraction
compiler, a small proof checker with a theorem registry, and a bundled,
machine-checked theorem corpus.

The package defines no names of its own: import them from its modules
(``from trc.terms import parse``).  ``import trc`` loads none of them, and
``trc.<module>`` imports that module the first time it is read.
"""

__version__ = "0.1.0"

_MODULES = frozenset({"cli", "corpus", "engine", "kernel", "mutate", "scriptfile", "stratify", "terms"})


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{name}")  # not importlib.import_module, which -X importtime does not report
    return globals()[name]
