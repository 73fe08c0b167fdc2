"""The bundled theorem corpus and its runner.

The corpus ships machine-checked proof scripts for every cataloged result:
the identity lemma, the equality families 2.1a-e, 2.2a-c, 2.3a-c, the
refutations 2.4a-2.9b, one nonexistence proof per table combinator
(B through W3), and compile checks for the combinator definitions (the three
stratified examples must compile; the thirty table combinators must not).

Entries are checked in dependency order; each passing theorem is registered,
and entries flagged ``rule`` additionally register their statements as
oriented rewrite rules for later entries.  The identity constant ``I`` is
defined here, bound to ``<P1,P2>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Collection, Iterable

from .engine import EngineConfig, RuleSet, core_rules
from .kernel import CheckReport, ProofScript, Registry, check_script, record_for
from .scriptfile import parse_combinator_specs, parse_scripts
from .terms import P1, P2, CombinatorSpec, Pair, Record, Term, TrcError, render

BASE_DEFINITIONS: dict[str, Term] = {"I": Pair(P1, P2)}

_TABLE = [
    "B", "C", "D", "F", "G", "H", "H1", "J", "K", "K1", "L", "L1", "M", "M1",
    "M2", "O", "O1", "O2", "Q", "Q1", "Q3", "R", "S", "T", "U", "V", "W",
    "W1", "W2", "W3",
]

# Cataloged results and the corpus ids that must cover each of them; the
# loader fails when the shipped index drifts from this table.
CATALOG_COVERAGE: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
    [("identity", ("I-is-identity",))]
    + [(f"2.1{s}", (f"2.1{s}",)) for s in "abcde"]
    + [(f"2.2{s}", (f"2.2{s}",)) for s in "abc"]
    + [(f"2.3{s}", (f"2.3{s}",)) for s in "abc"]
    + [(f"2.4{s}", (f"2.4{s}",)) for s in "abc"]
    + [("2.5", ("2.5",)), ("2.6", ("2.6",)), ("2.7", ("2.7",)),
       ("2.8a", ("2.8a",)), ("2.8b", ("2.8b",)), ("2.9a", ("2.9a",)), ("2.9b", ("2.9b",))]
    + [(name, (f"3-{name}", f"nocompile-{name}")) for name in _TABLE]
    + [(f"stratified-{n}", (f"compile-{n}",)) for n in ("b", "d", "c")]
)

EQUALITY_ENTRY_IDS = (
    "I-is-identity",
    "2.1a", "2.1b", "2.1c", "2.1d", "2.1e",
    "2.2a", "2.2b", "2.2c",
    "2.3a", "2.3b", "2.3c",
)

REFUTATION_ENTRY_IDS = tuple(
    ["2.4a", "2.4b", "2.4c", "2.5", "2.6", "2.7", "2.8a", "2.8b", "2.9a", "2.9b"]
    + [f"3-{name}" for name in _TABLE]
)


class CorpusError(TrcError):
    pass


class CorpusEntry(Record):
    ident: str
    kind: str  # equality | refutation | compile-success | compile-failure
    source: str  # script file name, or "spec:<name>"
    needs: tuple[str, ...] = ()
    register_rule: bool = False
    rule_ids: tuple[str, ...] = ()  # empty with register_rule: all theorems

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if self.kind not in ("equality", "refutation", "compile-success", "compile-failure"):
            raise CorpusError(f"bad entry kind {self.kind!r}")
        if self.kind.startswith("compile") != self.source.startswith("spec:"):
            raise CorpusError(f"entry {self.ident}: kind {self.kind} does not fit source {self.source!r}")

    def registers(self, theorem_id: str) -> bool:
        if not self.register_rule:
            return False
        return not self.rule_ids or theorem_id in self.rule_ids


class Corpus(Record):
    entries: tuple[CorpusEntry, ...]
    scripts: dict[str, tuple[ProofScript, ...]]  # entry id -> theorem blocks
    specs: dict[str, CombinatorSpec]


def parse_index(text: str) -> tuple[CorpusEntry, ...]:
    entries: list[CorpusEntry] = []
    for raw in text.splitlines():
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if len(words) < 3:
            raise CorpusError(f"bad index line: {raw!r}")
        ident, kind, source, *rest = words
        lists: dict[str, list[str]] = {"rule": [], "needs": []}
        target = None
        for w in rest:
            if w in lists:
                target = lists[w]
            elif target is None:
                raise CorpusError(f"bad index token {w!r} in {raw!r}")
            else:
                target.append(w)
        entries.append(CorpusEntry(ident, kind, source, tuple(lists["needs"]), "rule" in rest,
                                   tuple(lists["rule"])))
    return tuple(entries)


def _check_coverage(entries: Iterable[CorpusEntry]) -> None:
    ids = {e.ident for e in entries}
    required = {i for _, need in CATALOG_COVERAGE for i in need}
    missing = required - ids
    extra = ids - required
    if missing or extra:
        raise CorpusError(
            f"corpus index drifted from the coverage table: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for e in entries:
        for d in e.needs:
            if d not in ids:
                raise CorpusError(f"entry {e.ident} needs unknown entry {d!r}")


def load_corpus(only: Collection[str] | None = None) -> Corpus:
    """Load the packaged corpus, or only the entries named in ``only`` (reading
    only their files); validates index/coverage agreement either way."""
    root = resources.files("trc") / "corpus"
    entries = parse_index((root / "index").read_text())
    _check_coverage(entries)
    entries = tuple(e for e in entries if only is None or e.ident in only)
    scripts = {e.ident: tuple(parse_scripts((root / e.source).read_text(), e.source))
               for e in entries if not e.source.startswith("spec:")}
    spec_text = (root / "specs.trc").read_text() if len(scripts) < len(entries) else ""
    specs = {s.name: s for s in parse_combinator_specs(spec_text)}
    for e in entries:
        if e.source.startswith("spec:") and e.source[5:] not in specs:
            raise CorpusError(f"entry {e.ident} references unknown spec {e.source[5:]!r}")
    return Corpus(entries, scripts, specs)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

# Still a dataclass: the benchmark's tests copy it with ``dataclasses.replace``.
@dataclass
class EntryResult:
    entry: CorpusEntry
    status: str  # "pass" | "fail" | "blocked"
    detail: str = ""
    reports: tuple[CheckReport, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def lines(self, trace: bool = False) -> list[str]:
        if self.entry.kind.startswith("compile"):
            word = "PASS" if self.ok else ("BLOCKED" if self.status == "blocked" else "FAIL")
            detail = f" {self.detail}" if self.detail else ""
            return [f"COMPILE {self.entry.ident} {word}{detail}"]
        if self.status == "blocked":
            return [f"THEOREM {self.entry.ident} BLOCKED {self.detail}"]
        out: list[str] = []
        for report in self.reports:
            out.append(report.line())
            if trace:
                out.extend("  " + ln for ln in report.trace_lines)
        return out


class CorpusReport(Record):
    results: tuple[EntryResult, ...]
    registry: Registry
    ruleset: RuleSet
    contexts: dict[str, tuple[Registry, RuleSet]]  # entry id -> what it was checked against

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def result(self, ident: str) -> EntryResult:
        for r in self.results:
            if r.entry.ident == ident:
                return r
        raise CorpusError(f"no result for {ident!r}")

    def lines(self, trace: bool = False) -> list[str]:
        out: list[str] = []
        for r in self.results:
            out.extend(r.lines(trace))
        status = {r.entry.ident: r.ok for r in self.results}
        for item, ids in CATALOG_COVERAGE:
            present = [i for i in ids if i in status]
            ok = bool(present) and all(status[i] for i in present)
            out.append(f"COVERAGE {item} {' '.join(ids)} {'OK' if ok else 'INCOMPLETE'}")
        failed = "/".join(r.entry.ident for r in self.results if r.status == "fail")
        if failed and not self.ruleset.config.corrected_axioms:
            out.append(
                f"NOTE uncorrected-axiom run: failures of {failed}"
                " reproduce the documented misprint in the pair-application and abstraction"
                " rules; the entries depending on them are blocked"
            )
        out.append(f"CORPUS {'PASS' if self.ok else 'FAIL'} ({len(self.results)} entries)")
        return out


def _check_entry(
    entry: CorpusEntry,
    corpus: Corpus,
    registry: Registry,
    ruleset: RuleSet,
) -> EntryResult:
    if entry.source.startswith("spec:"):
        from .stratify import CompileError, NotAbstractable, compile_combinator  # only compile entries load it
        try:
            compile_combinator(corpus.specs[entry.source[5:]], ruleset, defs=BASE_DEFINITIONS)
            detail = ""
        except NotAbstractable as exc:
            detail = f"not abstractable: {exc.reason} (parameter {exc.variable})"
        except CompileError:
            detail = "self-test failed"
        if entry.kind == "compile-success":
            return EntryResult(entry, "fail" if detail else "pass", detail)
        return EntryResult(entry, "pass" if detail else "fail", detail or "unexpectedly compiled")
    reports = tuple(check_script(script, registry, ruleset, BASE_DEFINITIONS)
                    for script in corpus.scripts[entry.ident])
    return EntryResult(entry, "pass" if all(r.ok for r in reports) else "fail", reports=reports)


def run_corpus(
    corpus: Corpus | None = None,
    config: EngineConfig | None = None,
    keep_contexts: bool = False,
) -> CorpusReport:
    """Check all entries in dependency order, registering the theorems that pass.

    Entries are checked in waves: each wave holds the entries whose
    dependencies have all been checked, and is checked against the registry
    and rule set as they stood before it; its passing theorems are
    registered after the whole wave, in index order.  Entries whose
    dependencies did not pass are reported blocked; any entry failure is
    reported and the run continues.  The report lists results in index order.
    """
    corpus = corpus or load_corpus()
    config = config or EngineConfig()
    registry = Registry()
    ruleset = core_rules(config)
    results: dict[str, EntryResult] = {}
    contexts: dict[str, tuple[Registry, RuleSet]] = {}
    known = {e.ident for e in corpus.entries}
    pending = list(corpus.entries)
    while pending:
        wave: list[CorpusEntry] = []
        still: list[CorpusEntry] = []
        for e in pending:
            missing = [d for d in e.needs if d not in known]
            failed = [d for d in e.needs if d in results and not results[d].ok]
            if missing or failed:
                results[e.ident] = EntryResult(
                    e, "blocked", f"dependency {' '.join(missing + failed)} did not pass"
                )
            elif all(d in results for d in e.needs):
                wave.append(e)
            else:
                still.append(e)
        if len(still) == len(pending):  # nothing scheduled or blocked: a dependency cycle
            for e in still:
                results[e.ident] = EntryResult(e, "blocked", "dependency cycle")
            break
        if keep_contexts:
            for e in wave:
                contexts[e.ident] = (registry.snapshot(), ruleset)
        wave_results = [_check_entry(e, corpus, registry, ruleset) for e in wave]
        for e, result in zip(wave, wave_results):
            results[e.ident] = result
            if not result.ok or e.source.startswith("spec:"):
                continue
            for script, report in zip(corpus.scripts[e.ident], result.reports):
                registry.register(record_for(script), report)
                if e.registers(script.theorem_id):
                    ruleset = registry.derived_rule(ruleset, script.theorem_id)
        pending = still
    ordered = tuple(results[e.ident] for e in corpus.entries)
    return CorpusReport(ordered, registry, ruleset, contexts)


def standard_context(config: EngineConfig | None = None) -> tuple[Registry, RuleSet]:
    """Registry and rule set after checking just the equality entries.

    This is the bootstrap used by the command-line tools: every derived rule
    in the returned set is backed by a theorem checked in this process.
    """
    report = run_corpus(load_corpus(EQUALITY_ENTRY_IDS), config)
    return report.registry, report.ruleset


def list_theorems(corpus: Corpus, report: CorpusReport) -> list[str]:
    """One line per theorem: id, kind, statement, status, dependencies."""
    status = {r.entry.ident: r.status for r in report.results}
    lines: list[str] = []
    for entry in corpus.entries:
        state = status[entry.ident]
        if entry.source.startswith("spec:"):
            spec = corpus.specs[entry.source[5:]]
            expect = "compiles" if entry.kind == "compile-success" else "must not compile"
            lines.append(
                f"{entry.ident} [{entry.kind}] {spec.name} {' '.join(spec.params)} = "
                f"{render(spec.body)} ({expect}) :: {state}"
            )
            continue
        for script in corpus.scripts[entry.ident]:
            parts = [f"{script.theorem_id} [{entry.kind}]"]
            if script.hypothesis:
                eqs = "; ".join(
                    f"{render(eq.lhs)} = {render(eq.rhs)}" for eq in script.hypothesis.equations
                )
                parts.append(f"assuming {eqs} => false")
            else:
                parts.append(script.statement.render())
            parts.append(f":: {state}")
            if entry.needs:
                parts.append(f"[needs {' '.join(entry.needs)}]")
            lines.append(" ".join(parts))
    return lines
