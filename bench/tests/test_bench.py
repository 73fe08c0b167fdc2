"""Tests of the benchmark itself: every workload runs at a tiny size, every
check rejects a planted wrong answer, and traced work counts repeat.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import reference as R  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ROUNDS, Bench, _big, stratify  # noqa: E402

from trc import engine, terms  # noqa: E402
from trc.corpus import run_corpus  # noqa: E402
from trc.stratify import Constraint, StratifyResult  # noqa: E402


@pytest.fixture()
def bench() -> Bench:
    return Bench(seed=7, scale="tiny")


def big(bench: Bench, family: str):
    return bench.big[family][0]


# -- every workload runs --------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_workload_round_runs_clean(workload, bench):
    for unit in ROUNDS[workload]:
        bench.run(unit)
    assert bench.errors == []
    assert set(bench.samples) == set(run.END_TO_END) - {"setup_s", "peak_rss_mb"}
    assert all(v > 0 for values in bench.samples.values() for v in values)
    assert bench.failed == (5 if "probes" in ROUNDS[workload] else 0)


def test_deep_probes_fail_with_the_exception_they_raise(bench):
    bench.unit_probes()
    assert (bench.attempted, bench.failed) == (6, 5)
    assert set(bench.failures) == {
        (op, "RecursionError") for op in (
            "spine-10000.render", "spine-10000.eq_hash",
            "knest-10000.parse", "knest-10000.render", "knest-10000.eq_hash")}
    assert bench.errors == []


# -- the reference reducer --------------------------------------------------------

def reduce_text(t: tuple) -> str:
    nf, _, exhausted = R.normalize(R.expand_identity(t), 100)
    assert not exhausted
    return R.text(nf)


def test_reference_reducer_follows_the_rule_table():
    x, y, z = ('v', 'x'), ('v', 'y'), ('v', 'z')
    abst_abst = ('a', R.ABSTT, R.ABSTT)
    assert reduce_text(('a', ('a', ('a', abst_abst, x), y), z)) == "y (x y z)"
    assert reduce_text(('a', ('d', 'I'), x)) == "x"
    assert reduce_text(('a', ('k', x), y)) == "x"
    assert reduce_text(('a', R.EQT, ('p', x, x))) == "P1"
    assert reduce_text(('a', R.EQT, ('p', x, y))) == "Eq <x,y>"
    assert R.normalize(('a', ('p', x, y), z), 100) == (
        ('p', ('a', x, z), ('a', y, z)), 1, False)
    # fuel semantics: stops after the limit, exhausted only if a redex remains
    assert R.normalize(('a', ('k', ('a', ('k', x), y)), z), 1)[1:] == (1, True)


def test_reference_text_matches_render_and_parse(bench):
    for family in bench.big.values():
        for b in family:
            assert terms.render(b.tree) == b.text
            assert R.same(R.from_trc(terms.parse(b.text)), b.tup)


# -- planted wrong answers are caught ---------------------------------------------

def test_wrong_normal_form_step_count_and_flag_are_caught(bench):
    results = [engine.normalize(t, bench.core, fuel)
               for inputs in bench.normalize_inputs.values() for t, fuel in inputs]
    bench.check_normal_forms(results)
    assert bench.errors == []
    first = results[0]
    planted = [
        dataclasses.replace(first, result=terms.Var("wrong")),
        dataclasses.replace(first, trace=first.trace[:-1]),
        dataclasses.replace(first, exhausted=not first.exhausted),
    ]
    for wrong in planted:
        bench.errors.clear()
        bench.check_normal_forms([wrong] + results[1:])
        assert len(bench.errors) == 1


def test_remaining_redex_is_caught(bench):
    results = [engine.normalize(t, bench.core, fuel)
               for inputs in bench.normalize_inputs.values() for t, fuel in inputs]
    redex = ('a', ('k', ('v', 'x')), ('v', 'y'))
    bench.normalize_expected[0] = (redex, len(results[0].trace), False)
    results[0] = dataclasses.replace(results[0], result=R.to_trc(redex))
    bench.check_normal_forms(results)
    assert bench.errors == ["normalize input 0: a core-rule redex remains"]


def test_undecided_equality_is_caught(bench):
    bench.check_equalities([engine.ExtEvidence(True, ()), engine.ExtEvidence(False, ())])
    assert bench.errors == ["1 known-true equalities not decided EQUAL"]


def test_accepted_mutant_is_caught(bench):
    bench.check_mutants([False, False, False])
    assert bench.errors == []
    bench.check_mutants([False, True, False])
    assert bench.errors == ["1 of 3 mutants accepted"]


def test_wrong_corpus_verdict_is_caught(bench):
    results = list(run_corpus().results)
    bench.check_corpus(results)
    assert bench.errors == []
    results[0] = dataclasses.replace(results[0], status="fail")
    bench.check_corpus(results)
    assert len(bench.errors) == 1
    bench.errors.clear()
    bench.check_corpus(results[1:])
    assert bench.errors == ["corpus run did not report every index entry once"]


def test_wrong_stratification_is_caught(bench):
    spine = big(bench, "spines")
    good = dict(spine.expect)
    bench.check_stratify(spine, StratifyResult(good, None))
    assert bench.errors == []
    off_by_one = dict(good, x1=good["x1"] + 1)
    shifted = {k: v + 1 for k, v in good.items()}  # satisfies typing, min is not 0
    conflict = (Constraint("a", "b", 1, ()), Constraint("a", "b", 1, ()))  # replays to 0
    for wrong in (StratifyResult(off_by_one, None), StratifyResult(shifted, None),
                  StratifyResult(None, conflict)):
        bench.errors.clear()
        bench.check_stratify(spine, wrong)
        assert len(bench.errors) == 1, wrong


def test_verdict_against_the_independent_solver(bench):
    x, y = ('v', 'x'), ('v', 'y')
    stratified = _big("x y", ('a', x, y), "x", None, 600)
    unstratified = _big("x x", ('a', x, x), "x", None, 600)
    assert R.stratifiable(stratified.tup) and not R.stratifiable(unstratified.tup)
    cycle = (Constraint("n", "m", 1, ()), Constraint("n", "m", 0, ()))  # replays to -1
    bench.check_stratify(stratified, StratifyResult(None, cycle))
    assert len(bench.errors) == 1
    bench.errors.clear()
    bench.check_stratify(unstratified, StratifyResult({"x": 0}, None))
    assert len(bench.errors) == 1


def test_conflict_cycle_must_replay_nonzero(bench):
    term = big(bench, "random-open")
    cycle = (Constraint("n", "m", 1, ()), Constraint("n", "m", 0, ()))
    assert R.replay_cycle(cycle) == -1
    open_term = dataclasses.replace(term, expect=None)
    bench.check_stratify(open_term, StratifyResult(None, cycle))
    assert bench.errors == []
    bench.check_stratify(open_term, StratifyResult(None, cycle[:1] + cycle[:1]))
    assert len(bench.errors) == 1


def test_wrong_abstraction_is_caught(bench):
    spine = big(bench, "spines")
    right = stratify_abstract(spine)
    bench.check_abstract(spine, right)
    assert bench.errors == [] and spine.verified is not None
    for wrong in (None, spine.tree, terms.Defined("I")):
        fresh = dataclasses.replace(spine, verified=None)
        bench.errors.clear()
        bench.check_abstract(fresh, wrong)
        assert len(bench.errors) == 1, wrong
    bench.errors.clear()
    bench.check_abstract(spine, terms.KWrap(spine.tree))  # differs from the verified output
    assert len(bench.errors) == 1


def stratify_abstract(b):
    return stratify.abstract(b.var, b.tree)


def test_wrong_roundtrip_is_caught(bench):
    b = big(bench, "pair-trees")
    bench.check_big(b, b.tree, b.text, (True, True), StratifyResult(b.expect, None),
                    stratify_abstract(b))
    assert bench.errors == []
    bench.check_big(b, terms.Var("x"), b.text + " ", (True, False),
                    StratifyResult(b.expect, None), stratify_abstract(b))
    assert len(bench.errors) == 3


def test_wrong_probe_result_is_caught(bench):
    bench.probe("planted", lambda: "bad", lambda out: out == "good")
    assert bench.errors == ["planted: wrong result"] and bench.failed == 0


# -- tracing ------------------------------------------------------------------------

def traced_counts(seed: int) -> dict[str, int]:
    bench = Bench(seed=seed, scale="tiny")
    tracer = Tracer()
    tracer.install(bench.calls)
    try:
        for unit in ("corpus", "rewrite", "bigterms"):
            bench.run(unit)
    finally:
        tracer.uninstall()
    assert bench.errors == []
    return dict(tracer.counts)


def test_two_traced_runs_give_identical_work_counts():
    original = engine.normalize
    first, second = traced_counts(11), traced_counts(11)
    assert first == second
    assert set(first) == set(run.WORK_COUNTS)
    assert all(v > 0 for v in first.values())
    assert engine.normalize is original  # uninstall put the program back


# -- the command ----------------------------------------------------------------------

def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_command_prints_every_declared_metric(trace, names, capsys):
    code = run.main(["--workload", "corpus", "--seed", "1", "--seconds", "0.1",
                     "--trace", str(trace)])
    result = last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(names)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    assert [m["name"] for m in declared[section]] == list(names)
    assert [m["unit"] for m in declared[section]] == list(names.values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 2 and proc.stdout == ""
