"""Work units, their seeded inputs and the checks on their outputs.

A unit is one pass over one input set: ``corpus`` (one ``run_corpus()`` and
one mutation sweep), ``rewrite`` (the normalization families and the
``ext_equal`` set), ``bigterms`` (every large-term instance through parse,
render, ==/hash, stratify and abstraction) and ``probes`` (the deep probes).
Each unit adds one sample to every end-to-end metric it measures.  Checks
run after the timed calls and compare the outputs with ``reference``, with
closed forms, or with properties; a failed check is recorded in ``errors``.
"""

from __future__ import annotations

import importlib
import random
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

import calibration
import families as F
import reference as R
from tracer import Calls, eq_hash

from trc import corpus as trc_corpus
from trc import engine, kernel, mutate, terms

# the package re-exports the function stratify under the module's name
stratify = importlib.import_module("trc.stratify")

DEFAULT_FUEL = 10000

SCALES = {
    "full": dict(
        pair_spines=(8, 16, 32, 64),
        towers=(8, 16, 32, 64),
        closed_sizes=(8, 16, 32),
        closed_per_size=60,
        closed_fuel=200,
        contracts=300,
        contract_size=10,
        argument_size=3,
        spines=(36, 72, 144, 288),
        knests=(36, 72, 144, 288),
        pair_leaves=(64, 128, 256, 512),
        open_sizes=(64, 128, 256, 512),
        open_per_size=3,
        probe_size=10000,
        sample_nodes=600,
    ),
    "tiny": dict(
        pair_spines=(4, 8),
        towers=(4, 8),
        closed_sizes=(8,),
        closed_per_size=5,
        closed_fuel=200,
        contracts=3,
        contract_size=10,
        argument_size=3,
        spines=(8,),
        knests=(8,),
        pair_leaves=(8,),
        open_sizes=(16,),
        open_per_size=1,
        probe_size=10000,
        sample_nodes=600,
    ),
}

# Whole rounds: the workload's own unit twice, one pass of each other unit so
# that every end-to-end metric is measured in every run.
ROUNDS = {
    "corpus": ("corpus", "rewrite", "corpus", "bigterms"),
    "rewrite": ("rewrite", "corpus", "rewrite", "bigterms"),
    "bigterms": ("bigterms", "probes", "corpus", "bigterms", "rewrite"),
}

# compile references of the stratified examples (paper notation, I := <P1,P2>)
COMPILE_REFERENCES = {
    "b": ('a', R.ABSTT, R.ABSTT),
    "d": ('a', R.ABSTT, ('a', R.ABSTT, R.ABSTT)),
    "c": ('a', ('a', R.ABSTT, R.ABSTT), ('d', 'I')),
}


@dataclass
class BigTerm:
    label: str
    tup: tuple
    text: str
    tree: object
    copy: object  # built separately, so == and hash walk both trees
    nodes: int
    var: str  # the variable abstracted
    expect: Optional[dict[str, int]]  # closed-form stratification, if any
    sample: bool  # checked against the reference reducer
    verified: Optional[tuple] = None  # first abstraction output, once checked


def _under_k(x: str, t: tuple) -> bool:
    stack = [(t, False)]
    while stack:
        node, inside = stack.pop()
        if node[0] == 'v':
            if node[1] == x and inside:
                return True
        elif node[0] == 'k':
            stack.append((node[1], True))
        elif node[0] in ('a', 'p'):
            stack.extend(((node[1], inside), (node[2], inside)))
    return False


def _big(label: str, tup: tuple, var: str, expect, sample_nodes: int) -> BigTerm:
    nodes = R.size(tup)
    # Reduction alone shows the abstraction contract when the variable sits
    # under no k(-); under k it holds only extensionally inside the term.
    sample = (nodes <= sample_nodes and var in R.free_vars(tup)
              and R.admissible(var, tup) and not _under_k(var, tup))
    return BigTerm(label, tup, R.text(tup), R.to_trc(tup), R.to_trc(tup), nodes,
                   var, expect, sample)


class Bench:
    """Inputs, reference answers and accumulated results of one run."""

    def __init__(self, seed: int, scale: str = "full") -> None:
        p = SCALES[scale]
        self.samples: dict[str, list[float]] = defaultdict(list)  # calibrated
        self.raw_samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # (operation, exception name) -> count
        self.errors: list[str] = []
        self.calls = Calls()
        self._prepare_corpus()
        self._prepare_rewrite(random.Random(f"{seed}/rewrite"), p)
        self._prepare_bigterms(random.Random(f"{seed}/bigterms"), p)

    def error(self, message: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(message)

    def run(self, unit: str) -> None:
        getattr(self, "unit_" + unit)()

    @staticmethod
    def timed(work):
        """(result, elapsed seconds, calibration loop time around the call)."""
        before = calibration.loop_s()
        start = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - start
        return result, elapsed, (before + calibration.loop_s()) / 2

    def sample(self, name: str, parts: list[tuple[float, float]]) -> None:
        """Record one sample of ``name`` from (value, loop time) parts: the
        geometric mean of the parts, raw and scaled to the nominal speed."""
        self.raw_samples[name].append(statistics.geometric_mean(v for v, _ in parts))
        self.samples[name].append(statistics.geometric_mean(
            calibration.scaled(name, v, loop) for v, loop in parts))

    # -- corpus ------------------------------------------------------------

    def _prepare_corpus(self) -> None:
        corpus = trc_corpus.load_corpus()
        self.entries = {e.ident: e for e in corpus.entries}
        self.scripts_per_entry = {i: len(s) for i, s in corpus.scripts.items()}
        report = trc_corpus.run_corpus(corpus, keep_contexts=True)
        # an entry blocked by a failed dependency has no context; the corpus
        # check reports it
        self.sweep = [
            (script, *report.contexts[e.ident])
            for e in corpus.entries
            if not e.source.startswith("spec:") and e.ident in report.contexts
            for script in corpus.scripts[e.ident]
        ]
        self.mutants: Optional[int] = None
        self.corpus = corpus

    def unit_corpus(self) -> None:
        report, elapsed, loop = self.timed(trc_corpus.run_corpus)
        self.sample("corpus_check_s", [(elapsed, loop)])
        verdicts, elapsed, loop = self.timed(self.sweep_mutants)
        self.sample("mutants_per_s", [(len(verdicts) / elapsed, loop)])
        self.attempted += len(report.results) + len(verdicts)
        self.check_corpus(report.results)
        self.check_mutants(verdicts)

    def sweep_mutants(self) -> list[bool]:
        """Whether each mutant of each corpus script was accepted."""
        verdicts = []
        for script, registry, ruleset in self.sweep:
            for _, mutant in mutate.enumerate_mutations(script):
                try:
                    ok = kernel.check_script(mutant, registry, ruleset,
                                             trc_corpus.BASE_DEFINITIONS).ok
                except kernel.ScriptError:
                    ok = False
                verdicts.append(ok)
        return verdicts

    def check_corpus(self, results) -> None:
        if sorted(r.entry.ident for r in results) != sorted(self.entries):
            self.error("corpus run did not report every index entry once")
        for r in results:
            kind = self.entries[r.entry.ident].kind
            if r.status != "pass":
                self.error(f"corpus {r.entry.ident} ({kind}): {r.status} {r.detail}")
            elif kind in ("equality", "refutation"):
                if len(r.reports) != self.scripts_per_entry[r.entry.ident] or \
                        not all(rep.ok for rep in r.reports):
                    self.error(f"corpus {r.entry.ident}: not every script accepted")
            elif kind == "compile-failure" and not r.detail:
                self.error(f"corpus {r.entry.ident}: rejection without a reason")
            elif kind == "compile-success" and r.detail:
                self.error(f"corpus {r.entry.ident}: {r.detail}")

    def check_mutants(self, verdicts: list[bool]) -> None:
        if any(verdicts):
            self.error(f"{sum(verdicts)} of {len(verdicts)} mutants accepted")
        if self.mutants is None:
            self.mutants = len(verdicts)
        if not verdicts or len(verdicts) != self.mutants:
            self.error(f"mutation sweep produced {len(verdicts)} mutants")

    # -- rewrite -----------------------------------------------------------

    def _prepare_rewrite(self, rng: random.Random, p: dict) -> None:
        self.core = engine.core_rules()
        self.rules = trc_corpus.standard_context()[1]
        families = {
            "pair-spines": [(F.pair_spine(n), DEFAULT_FUEL) for n in p["pair_spines"]],
            "abst-towers": [(F.abst_tower(n), DEFAULT_FUEL) for n in p["towers"]],
            "random-closed": [(F.random_term(rng, size), p["closed_fuel"])
                              for size in p["closed_sizes"]
                              for _ in range(p["closed_per_size"])],
        }
        self.normalize_inputs = {name: [(R.to_trc(t), fuel) for t, fuel in inputs]
                                 for name, inputs in families.items()}
        self.normalize_expected = [R.normalize(t, fuel)
                                   for inputs in families.values() for t, fuel in inputs]

        contracts = []
        while len(contracts) < p["contracts"]:
            t = F.random_term(rng, p["contract_size"], F.CONTRACT_VARS)
            if "x" not in R.free_vars(t) or not R.admissible("x", t):
                continue
            s = F.random_term(rng, p["argument_size"])
            lam = stratify.abstract("x", R.to_trc(t))
            contracts.append((terms.App(lam, R.to_trc(s)),
                              R.to_trc(R.substitute(t, "x", s))))
        statements = [(script.statement.lhs, script.statement.rhs)
                      for ident in trc_corpus.EQUALITY_ENTRY_IDS
                      for script in self.corpus.scripts[ident]]
        compiled = []
        for name, reference in COMPILE_REFERENCES.items():
            try:
                compiled.append((stratify.compile_combinator(
                    self.corpus.specs[name], self.rules, trc_corpus.BASE_DEFINITIONS),
                    R.to_trc(reference)))
            except (stratify.CompileError, stratify.NotAbstractable) as exc:
                self.error(f"stratified spec {name} does not compile: {exc}")
        families = {"contracts": contracts, "corpus-statements": statements,
                    "compile-references": compiled}
        self.ext_inputs = {name: pairs for name, pairs in families.items() if pairs}

    def unit_rewrite(self) -> None:
        # Each rate is the geometric mean over the input families, so one
        # heavy seeded input cannot swing the figure for the whole run.
        core, rules, defs = self.core, self.rules, trc_corpus.BASE_DEFINITIONS
        parts, results = [], []
        for inputs in self.normalize_inputs.values():
            out, elapsed, loop = self.timed(
                lambda: [engine.normalize(t, core, fuel) for t, fuel in inputs])
            parts.append((sum(len(r.trace) for r in out) / elapsed, loop))
            results += out
        self.sample("normalize_steps_per_s", parts)
        parts, evidence = [], []
        for pairs in self.ext_inputs.values():
            out, elapsed, loop = self.timed(
                lambda: [engine.ext_equal(a, b, rules, defs=defs) for a, b in pairs])
            parts.append((len(out) / elapsed, loop))
            evidence += out
        self.sample("ext_equal_per_s", parts)
        self.attempted += len(results) + len(evidence)
        self.check_normal_forms(results)
        self.check_equalities(evidence)

    def check_equalities(self, evidence) -> None:
        undecided = sum(not e.equal for e in evidence)
        if undecided:
            self.error(f"{undecided} known-true equalities not decided EQUAL")

    def check_normal_forms(self, results) -> None:
        for i, (r, (nf, steps, exhausted)) in enumerate(zip(results, self.normalize_expected)):
            got = R.from_trc(r.result)
            if not R.same(got, nf) or len(r.trace) != steps or r.exhausted != exhausted:
                self.error(f"normalize input {i}: {len(r.trace)} steps, exhausted "
                           f"{r.exhausted}; reference {steps} steps, exhausted {exhausted}")
            elif not exhausted and R.find_redex(got) is not None:
                self.error(f"normalize input {i}: a core-rule redex remains")

    # -- bigterms ----------------------------------------------------------

    def _prepare_bigterms(self, rng: random.Random, p: dict) -> None:
        cap = p["sample_nodes"]
        self.big = {
            "spines": [_big(f"spine-{n}", F.spine(n), f"x{n}", R.spine_levels(n), cap)
                       for n in p["spines"]],
            "knests": [_big(f"knest-{d}", ('a', F.knest(d), ('v', 'y')), "x",
                            {"x": 0, "y": d - 1}, cap)
                       for d in p["knests"]],
            "pair-trees": [_big(f"pairs-{n}", F.pair_tree(rng, n), "x1",
                                {f"x{i}": 0 for i in range(1, n + 1)}, cap)
                           for n in p["pair_leaves"]],
            "random-open": [_big(f"open-{n}", F.random_term(rng, n, F.OPEN_VARS), "x", None, cap)
                            for n in p["open_sizes"] for _ in range(p["open_per_size"])],
        }
        self.probe_inputs = []
        for label, tup in ((f"spine-{p['probe_size']}", F.spine(p["probe_size"])),
                           (f"knest-{p['probe_size']}", F.knest(p["probe_size"]))):
            self.probe_inputs.append((label, tup, R.text(tup), R.to_trc(tup), R.to_trc(tup)))

    def unit_bigterms(self) -> None:
        # per-family node rates, combined by geometric mean as in unit_rewrite
        parts: dict[str, list[tuple[float, float]]] = defaultdict(list)
        checks = []
        for family in self.big.values():
            (outputs, seconds), _, loop = self.timed(lambda: self.bigterms_pass(family))
            nodes = sum(b.nodes for b in family)
            for metric, elapsed in seconds.items():
                parts[metric].append((nodes / elapsed, loop))
            checks += zip(family, outputs)
        for metric, values in parts.items():
            self.sample(metric, values)
        self.attempted += 5 * len(checks)
        for b, outputs in checks:
            self.check_big(b, *outputs)

    def bigterms_pass(self, family: list[BigTerm]):
        """Outputs of every operation on each instance, and seconds per metric."""
        calls = self.calls
        roundtrip = stratifying = abstracting = 0.0
        outputs = []
        for b in family:
            t0 = time.perf_counter()
            parsed = calls.parse(b.text)
            rendered = calls.render(b.tree)
            same = calls.eq_hash(b.tree, b.copy)
            t1 = time.perf_counter()
            solved = stratify.stratify(b.tree)
            t2 = time.perf_counter()
            try:
                stratify.abstraction_levels(b.var, b.tree)
                lam = stratify.abstract(b.var, b.tree)
            except stratify.NotAbstractable:
                lam = None
            t3 = time.perf_counter()
            roundtrip += t1 - t0
            stratifying += t2 - t1
            abstracting += t3 - t2
            outputs.append((parsed, rendered, same, solved, lam))
        return outputs, {"roundtrip_nodes_per_s": roundtrip,
                         "stratify_nodes_per_s": stratifying,
                         "abstract_nodes_per_s": abstracting}

    def check_big(self, b: BigTerm, parsed, rendered, same, solved, lam) -> None:
        if not R.same(R.from_trc(parsed), b.tup):
            self.error(f"{b.label}: parse does not give the generated tree")
        if rendered != b.text:
            self.error(f"{b.label}: render differs from the canonical text")
        if same != (True, True):
            self.error(f"{b.label}: equal trees compare {same} under ==/hash")
        self.check_stratify(b, solved)
        self.check_abstract(b, lam)

    def check_stratify(self, b: BigTerm, solved) -> None:
        if solved.satisfiable != R.stratifiable(b.tup):
            self.error(f"{b.label}: stratify says satisfiable={solved.satisfiable}, "
                       "the benchmark's own solver disagrees")
        elif solved.assignment is not None:
            levels = solved.assignment
            if not R.satisfies_typing(b.tup, levels) or (levels and min(levels.values()) != 0):
                self.error(f"{b.label}: stratify assignment breaks the typing rule "
                           "or does not start at 0")
            elif b.expect is not None and levels != b.expect:
                self.error(f"{b.label}: stratify assignment differs from the closed form")
        elif not solved.conflict or R.replay_cycle(solved.conflict) == 0:
            self.error(f"{b.label}: conflict cycle does not replay to a nonzero offset")

    def check_abstract(self, b: BigTerm, lam) -> None:
        if R.admissible(b.var, b.tup) != (lam is not None):
            self.error(f"{b.label}: abstraction over {b.var} "
                       f"{'refused' if lam is None else 'accepted'} against the level rule")
            return
        if lam is None:
            return
        got = R.from_trc(lam)
        if b.verified is not None:
            if not R.same(got, b.verified):
                self.error(f"{b.label}: abstraction output changed between rounds")
            return
        if b.var in R.free_vars(got):
            self.error(f"{b.label}: abstraction output still contains {b.var}")
        elif b.sample and not R.abstraction_agrees(b.var, b.tup, got, "_fresh", DEFAULT_FUEL):
            self.error(f"{b.label}: abstraction output applied to a fresh variable "
                       "does not reach the substituted body's normal form")
        else:
            b.verified = got

    # -- deep probes -------------------------------------------------------

    def unit_probes(self) -> None:
        for label, tup, text, tree, copy in self.probe_inputs:
            self.probe(f"{label}.parse", lambda: terms.parse(text),
                       lambda out: R.same(R.from_trc(out), tup))
            self.probe(f"{label}.render", lambda: terms.render(tree), lambda out: out == text)
            self.probe(f"{label}.eq_hash", lambda: eq_hash(tree, copy),
                       lambda out: out == (True, True))

    def probe(self, operation: str, call, check) -> None:
        """One untimed deep-probe operation; what it raises is recorded."""
        self.attempted += 1
        try:
            out = call()
        except Exception as exc:  # the probes exist to record how deep input fails
            self.failed += 1
            self.failures[(operation, type(exc).__name__)] += 1
            return
        if not check(out):
            self.error(f"{operation}: wrong result")
