from __future__ import annotations

import pytest

from unittest import mock

from trc import corpus as corpus_module
from trc.corpus import (
    BASE_DEFINITIONS, Corpus, CorpusEntry, CorpusError, EQUALITY_ENTRY_IDS, CATALOG_COVERAGE,
    REFUTATION_ENTRY_IDS, list_theorems, load_corpus, parse_index, run_corpus,
    standard_context,
)
from trc.engine import EngineConfig
from trc.kernel import Falsum, NotEqual
from trc.terms import P1, P2, Pair


def test_full_run_passes(corpus_report):
    assert corpus_report.ok
    assert len(corpus_report.results) == 85


def test_identity_definition():
    assert BASE_DEFINITIONS["I"] == Pair(P1, P2)


def test_equality_entries_pass(corpus_report):
    for ident in EQUALITY_ENTRY_IDS:
        assert corpus_report.result(ident).ok, ident


def test_refutation_entries_end_in_falsum(corpus, corpus_report):
    for ident in REFUTATION_ENTRY_IDS:
        result = corpus_report.result(ident)
        assert result.ok, ident
        for script in corpus.scripts[ident]:
            if script.hypothesis is not None:
                assert isinstance(script.statement, Falsum)
            else:
                assert isinstance(script.statement, NotEqual)


def test_reduction_web_uses_hypothesized_combinators(corpus):
    # each two-stage table refutation instantiates an earlier combinator with
    # a term built from its own hypothesized constant, exactly one per script
    expected = {
        "3-L": "L I", "3-O": "O I", "3-U": "U I", "3-W": "W I",
        "3-S": "S I", "3-D": "D I", "3-C": "C I", "3-Q1": "Q1 I", "3-Q3": "Q3 I",
        "3-J": "J I I", "3-G": "G I I", "3-H": "H I",
    }
    from trc.kernel import TheoremStep
    from trc.terms import render
    for ident, construction in expected.items():
        (script,) = corpus.scripts[ident]
        theorem_steps = [s for s in script.body if isinstance(s, TheoremStep)]
        assert theorem_steps, ident
        values = [render(v) for _, v in theorem_steps[-1].subst]
        assert construction in values, (ident, values)


def test_listing_has_one_line_per_theorem(corpus, corpus_report):
    lines = list_theorems(corpus, corpus_report)
    joined = "\n".join(lines)
    assert any(line.startswith("2.5 [refutation] <Eq,k(P2)> x != x") for line in lines)
    assert "3-R [refutation]" in joined
    assert "R $x $y $z = $y $z $x => false" in joined
    assert "compile-b [compile-success]" in joined
    scripts = sum(len(v) for v in corpus.scripts.values())
    specs = sum(1 for e in corpus.entries if e.source.startswith("spec:"))
    assert len(lines) == scripts + specs


def test_coverage_table_complete(corpus_report):
    lines = corpus_report.lines()
    coverage = [ln for ln in lines if ln.startswith("COVERAGE")]
    assert len(coverage) == len(CATALOG_COVERAGE)
    assert all(ln.endswith("OK") for ln in coverage)
    assert lines[-1] == "CORPUS PASS (85 entries)"


def test_index_drift_detected(corpus):
    bad = [e for e in corpus.entries if e.ident != "2.6"]
    import trc.corpus as corpus_mod
    with pytest.raises(CorpusError):
        corpus_mod._check_coverage(bad)


def test_parse_index_rejects_bad_lines():
    with pytest.raises(CorpusError):
        parse_index("justtwo words")
    with pytest.raises(CorpusError, match="bad entry kind 'unknown-kind'"):
        parse_index("x unknown-kind file.trc")
    with pytest.raises(CorpusError, match="bad index token 'bogus' in 'x equality f.trc bogus'"):
        parse_index("x equality f.trc bogus")
    # a bad token is reported before a bad kind
    with pytest.raises(CorpusError, match="bad index token 'bogus'"):
        parse_index("x unknown-kind f.trc bogus")
    # a compile check names a spec, and only a compile check does
    with pytest.raises(CorpusError, match="entry 2.1a: kind compile-success does not fit source '02-2.1a.trc'"):
        parse_index("2.1a compile-success 02-2.1a.trc")
    with pytest.raises(CorpusError, match="entry 2.1a: kind equality does not fit source 'spec:b'"):
        parse_index("2.1a equality spec:b")


def test_a_need_outside_the_index_is_rejected(corpus):
    entries = tuple(e.replace(needs=e.needs + ("nope",)) if e.ident == "2.6" else e for e in corpus.entries)
    with pytest.raises(CorpusError, match="entry 2.6 needs unknown entry 'nope'"):
        corpus_module._check_coverage(entries)


def test_a_dependency_cycle_blocks_its_entries(corpus):
    a, b = (e for e in corpus.entries if e.ident in ("2.4a", "2.4b"))
    report = run_corpus(corpus.replace(entries=(a.replace(needs=("2.4b",)), b.replace(needs=("2.4a",)))))
    assert [(r.entry.ident, r.status, r.detail) for r in report.results] == [
        ("2.4a", "blocked", "dependency cycle"),
        ("2.4b", "blocked", "dependency cycle"),
    ]


def test_deleting_a_dependency_blocks_dependents(corpus):
    report = run_corpus(corpus.replace(entries=tuple(e for e in corpus.entries if e.ident != "2.4a")))
    assert not report.ok
    for ident in ("2.6", "2.9b"):
        result = report.result(ident)
        assert result.status == "blocked"
        assert "2.4a" in result.detail
    # transitively blocked table entries report their own missing dependency
    assert report.result("3-M").status == "blocked"
    assert report.result("2.4b").ok  # unrelated entries still run


PRINTED_AXIOM_FAILURES = ("I-is-identity", "2.1a", "2.1b", "2.1d", "2.2a", "2.2c", "2.3a")
PRINTED_AXIOM_PASSES = ("2.1c", "2.1e", "2.4a", "2.4b", "2.4c") + tuple(
    "nocompile-" + c for c in (
        "B C D F G H H1 J K K1 L L1 M M1 M2 O O1 O2 Q Q1 Q3 R S T U V W W1 W2 W3".split()
    )
)


def test_printed_axioms_break_the_documented_entries(corpus):
    report = run_corpus(corpus, EngineConfig(corrected_axioms=False))
    assert not report.ok
    statuses = {r.entry.ident: r.status for r in report.results}
    expected = {ident: "blocked" for ident in statuses}
    expected.update({ident: "fail" for ident in PRINTED_AXIOM_FAILURES})
    expected.update({ident: "pass" for ident in PRINTED_AXIOM_PASSES})
    assert statuses == expected
    assert list(statuses.values()).count("blocked") == 43
    assert len(PRINTED_AXIOM_PASSES) == 35
    note = [ln for ln in report.lines() if ln.startswith("NOTE")]
    assert note and "misprint" in note[0]
    assert "I-is-identity/2.1a/2.1b/2.1d/2.2a/2.2c/2.3a" in note[0]
    # alone, a stratified compile check runs and fails its self-test, and the note names it
    alone = Corpus((CorpusEntry("compile-b", "compile-success", "spec:b"),), {}, corpus.specs)
    lines = run_corpus(alone, EngineConfig(corrected_axioms=False)).lines()
    assert lines[0] == "COMPILE compile-b FAIL self-test failed"
    assert lines[-2].startswith("NOTE uncorrected-axiom run: failures of compile-b reproduce")
    # with no failure there is nothing to explain
    lines = run_corpus(load_corpus(["2.1c"]), EngineConfig(corrected_axioms=False)).lines()
    assert lines[0] == "THEOREM 2.1c PASS" and not [ln for ln in lines if ln.startswith("NOTE")]


def test_standard_context_registers_rules():
    registry, ruleset = standard_context()
    names = {r.name for r in ruleset.rules}
    assert {"2.1d", "2.1e", "2.2a.2", "2.2c.1"} <= names
    assert "2.4a" not in registry.ids()  # equality bootstrap only
    assert "2.2c.1" in registry.ids()


def test_standard_context_is_the_equality_entries_of_the_full_corpus(corpus):
    registry, ruleset = standard_context()
    keep = set(EQUALITY_ENTRY_IDS)
    subset = Corpus(tuple(e for e in corpus.entries if e.ident in keep), corpus.scripts, corpus.specs)
    full = run_corpus(subset)
    assert registry.ids() == full.registry.ids()
    assert [(r.name, r.lhs, r.rhs) for r in ruleset.rules] == \
        [(r.name, r.lhs, r.rhs) for r in full.ruleset.rules]
    assert ruleset == full.ruleset


def test_loading_some_entries_parses_only_their_scripts(corpus):
    with mock.patch.object(corpus_module, "parse_scripts", side_effect=corpus_module.parse_scripts) as parsed, \
            mock.patch.object(corpus_module, "parse_combinator_specs",
                              side_effect=corpus_module.parse_combinator_specs) as specs:
        subset = load_corpus(EQUALITY_ENTRY_IDS)
    assert [e.ident for e in subset.entries] == list(EQUALITY_ENTRY_IDS)
    sources = {e.ident: e.source for e in corpus.entries}
    assert [c.args[1] for c in parsed.call_args_list] == [sources[i] for i in EQUALITY_ENTRY_IDS]
    assert all(c.args == ("",) for c in specs.call_args_list) and subset.specs == {}  # specs.trc unread
    assert subset.scripts == {i: corpus.scripts[i] for i in EQUALITY_ENTRY_IDS}


def test_runtime_budget(corpus_report):
    total = sum(rep.wall_time for r in corpus_report.results for rep in r.reports)
    assert total < 60.0
