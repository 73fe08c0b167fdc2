"""Per-layer tracing from outside the program.

``Tracer.install`` replaces, for the length of a traced round, the names
through which one ``trc`` module calls the module below it (for example the
``rule_match`` that ``trc.kernel`` imported from ``trc.engine``) with
wrappers that record spans or counts; ``uninstall`` puts the originals back.
Nothing inside ``src/trc`` is edited.  A span's self time is its duration
minus the time covered by its child spans; its total time includes them.
Recursive functions are never wrapped at their own module (``trc.terms.render``
calls itself by that name), so the benchmark times parse, render and equality
at its own call sites, through ``Calls``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _one(result) -> int:
    return 1


def _found(result) -> int:
    return result is not None


def _steps(result) -> int:
    return len(result.trace)


def _levels(evidence) -> int:
    return len(evidence.levels)


# (module, attribute, span name or None, ((counter, increment from the result), ...))
LAYERS = (
    ("trc.corpus", "parse_scripts", "scriptfile.parse_scripts", ()),
    ("trc.corpus", "load_corpus", "corpus.load", ()),
    ("trc.corpus", "standard_context", "corpus.standard_context", ()),
    ("trc.corpus", "check_script", "kernel.check_script", ()),
    ("trc.kernel", "check_script", "kernel.check_script", ()),
    ("trc.kernel", "rule_match", None,
     (("kernel.link_match_calls", _one), ("kernel.link_match_hits", _found))),
    ("trc.kernel", "normalize", "engine.normalize",
     (("engine.rewrite_steps", _steps), ("kernel.normalize_calls", _one))),
    ("trc.engine", "normalize", "engine.normalize", (("engine.rewrite_steps", _steps),)),
    ("trc.engine", "rule_match", None, (("engine.rule_match_calls", _one),)),
    ("trc.engine", "match_pattern", None,
     (("terms.match_calls", _one), ("terms.match_hits", _found))),
    ("trc.engine", "ext_equal", "engine.ext_equal", (("engine.ext_levels", _levels),)),
    ("trc.stratify", "ext_equal", "stratify.selftest", (("engine.ext_levels", _levels),)),
    ("trc.stratify", "stratify", "stratify.stratify", ()),
    ("trc.stratify", "term_constraints", None, (("stratify.constraints", len),)),
    ("trc.stratify", "abstraction_levels", "stratify.abstract", ()),
    ("trc.stratify", "abstract", "stratify.abstract", ()),
)


class Calls:
    """The benchmark's own call sites for the term layer."""

    def __init__(self) -> None:
        from trc import terms
        self.parse = terms.parse
        self.render = terms.render
        self.eq_hash = eq_hash


def eq_hash(a, b) -> tuple[bool, bool]:
    """Structural equality and hash agreement of two separately built trees."""
    return a == b, hash(a) == hash(b)


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[list[float]] = []  # [start, time covered by children]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str | None, measures=()):
        """``fn`` recording a span called ``name`` (unless None) and feeding
        each (counter, increment) measure with its result."""
        counts, open_spans, self_s, total_s = self.counts, self._open, self.self_s, self.total_s

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                for counter, increment in measures:
                    counts[counter] += increment(result)
                return result
            return counted

        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            open_spans.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                duration = time.perf_counter() - frame[0]
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                if open_spans:
                    open_spans[-1][1] += duration
            for counter, increment in measures:
                counts[counter] += increment(result)
            return result
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, calls: Calls | None = None) -> None:
        for module, attr, name, measures in LAYERS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, measures))
        # a generator does its work while it is consumed: list it inside the span
        mutate = importlib.import_module("trc.mutate")
        enumerate_mutations = mutate.enumerate_mutations
        listed = self.wrap(lambda script: list(enumerate_mutations(script)),
                           "mutate.enumerate", (("mutate.mutants", len),))
        self._patch(mutate, "enumerate_mutations", lambda script: iter(listed(script)))
        if calls is not None:
            for attr in ("parse", "render", "eq_hash"):
                self._patch(calls, attr, self.wrap(getattr(calls, attr), "terms." + attr))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
