"""The trc benchmark.

    python3 bench/run.py --workload {corpus,rewrite,bigterms} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports ``trc`` from its
``src``.  The workload runs whole rounds of work units (see ``workloads``)
until ``--seconds`` have passed, in one process and one thread, checks every
output and prints, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` untraced and traced rounds alternate and
the metrics are the per-layer ones, plus the traced/untraced round-time ratio.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

END_TO_END = {
    "setup_s": "s",
    "corpus_check_s": "s",
    "mutants_per_s": "1/s",
    "normalize_steps_per_s": "steps/s",
    "ext_equal_per_s": "1/s",
    "roundtrip_nodes_per_s": "nodes/s",
    "stratify_nodes_per_s": "nodes/s",
    "abstract_nodes_per_s": "nodes/s",
    "peak_rss_mb": "MB",
}

MODULES = ("terms", "engine", "kernel", "stratify", "scriptfile", "corpus", "mutate")
SETUP_SPANS = ("scriptfile.parse_scripts", "corpus.load", "corpus.standard_context")
WORK_SPANS = (
    "terms.parse", "terms.render", "terms.eq_hash", "engine.normalize", "engine.ext_equal",
    "kernel.check_script", "stratify.stratify", "stratify.abstract", "stratify.selftest",
    "mutate.enumerate",
)
WORK_COUNTS = (
    "terms.match_calls", "terms.match_hits", "engine.rewrite_steps",
    "engine.rule_match_calls", "engine.ext_levels", "kernel.link_match_calls",
    "kernel.link_match_hits", "kernel.normalize_calls", "stratify.constraints",
    "mutate.mutants",
)
PER_LAYER = {
    **{f"import.{m}_s": "s" for m in ("trc",) + MODULES},
    **{f"{name}_s": "s" for name in SETUP_SPANS + WORK_SPANS},
    **{name: "count" for name in WORK_COUNTS},
    "terms.match_hit_ratio": "ratio",
    "stratify.selftest_total_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The program or the benchmark's own inputs are unusable."""


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``trc`` from it."""
    package = ROOT / "src" / "trc"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no trc package under {package.parent}: run from a source checkout")
    sys.path.insert(0, str(package.parent))
    import trc
    if Path(trc.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported trc from {trc.__file__}, not from {package}")


def setup_probe(traced: bool) -> dict:
    """Run the set-up probe in a fresh interpreter; with ``traced`` also
    collect per-module import self times from ``-X importtime``."""
    command = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        str(BENCH_DIR / "setup_probe.py"), str(ROOT), "1" if traced else "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if traced:
        result["imports"] = import_times(proc.stderr)
    return result


def import_times(stderr: str) -> dict[str, float]:
    """``import.trc_s`` (cumulative) and ``import.<module>_s`` (self) in seconds."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = (part.strip() for part in line[12:].split("|"))
        if name == "trc":
            out["import.trc_s"] = int(cumulative) / 1e6
        elif name.startswith("trc.") and name[4:] in MODULES:
            out[f"import.{name[4:]}_s"] = int(own) / 1e6
    return out


def measure(bench, workload: str, seconds: float, trace: bool) -> dict:
    """Whole rounds until ``seconds`` have passed; with ``trace`` every
    second round is traced and the run ends after an even number."""
    from tracer import Tracer
    from workloads import ROUNDS

    order = ROUNDS[workload]
    setups: list[dict] = []
    round_s: dict[bool, list[float]] = {False: [], True: []}  # calibrated round times
    traced_rounds: list[tuple[Tracer, float]] = []  # with the loop time around each
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        if traced or not trace:
            setups.append(setup_probe(traced))
        tracer = Tracer() if traced else None
        before = calibration.loop_s()
        if tracer is not None:
            tracer.install(bench.calls)
        start = time.perf_counter()
        try:
            for unit in order:
                bench.run(unit)
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        loop = (before + calibration.loop_s()) / 2
        round_s[traced].append(calibration.scaled("round_s", elapsed, loop))
        if tracer is not None:
            traced_rounds.append((tracer, loop))
        rounds += 1
        if time.perf_counter() >= deadline and (not trace or rounds % 2 == 0):
            break
    return {"rounds": rounds, "setups": setups, "round_s": round_s, "traced": traced_rounds}


def end_to_end_metrics(bench, measured: dict) -> dict[str, float]:
    """Medians of the calibrated samples (see ``calibration``)."""
    setups = measured["setups"]
    bench.raw_samples["setup_s"] = [s["setup_s"] for s in setups]
    bench.samples["setup_s"] = [calibration.scaled("setup_s", s["setup_s"], s["loop_s"])
                                for s in setups]
    values = {name: statistics.median(v) for name, v in bench.samples.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def per_layer_metrics(bench, measured: dict) -> dict[str, float]:
    """Work counts of one traced round (identical in every traced round) and
    medians of the self times, scaled like the end-to-end times."""
    traced = measured["traced"]
    counts = [dict(tracer.counts) for tracer, _ in traced]
    if any(c != counts[0] for c in counts):
        bench.error("work counts differ between traced rounds")
    values: dict[str, float] = {name: counts[0].get(name, 0) for name in WORK_COUNTS}
    calls = values["terms.match_calls"]
    values["terms.match_hit_ratio"] = values["terms.match_hits"] / calls if calls else 0.0

    def median_time(name: str, observed) -> float:
        return statistics.median(calibration.scaled(name, seconds, loop)
                                 for seconds, loop in observed)

    for name in WORK_SPANS:
        values[f"{name}_s"] = median_time(
            f"{name}_s", [(t.self_s.get(name, 0.0), loop) for t, loop in traced])
    # the compile self-test with the normalization it drives
    values["stratify.selftest_total_s"] = median_time(
        "stratify.selftest_total_s",
        [(t.total_s.get("stratify.selftest", 0.0), loop) for t, loop in traced])
    setups = measured["setups"]
    for name in SETUP_SPANS:
        values[f"{name}_s"] = median_time(
            f"{name}_s", [(s["self_s"].get(name, 0.0), s["loop_s"]) for s in setups])
    for name in PER_LAYER:
        if name.startswith("import."):
            values[name] = median_time(
                name, [(s["imports"].get(name, 0.0), s["loop_s"]) for s in setups])
    round_s = measured["round_s"]
    values["trace.overhead"] = statistics.median(round_s[True]) / statistics.median(round_s[False])
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "rewrite", "bigterms"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        load_program()
        from workloads import Bench
        bench = Bench(args.seed)
        measured = measure(bench, args.workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values, units = per_layer_metrics(bench, measured), PER_LAYER
    else:
        values, units = end_to_end_metrics(bench, measured), END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{measured['rounds']} rounds, {bench.attempted} operations, {bench.failed} failed")
    for (operation, exception), count in sorted(bench.failures.items()):
        print(f"failed {operation}: {exception} (x{count})")
    for message in bench.errors:
        print(f"CHECK FAILED {message}")
    for name in units:
        print(f"{name} {values[name]:.6g} {units[name]}")
    if not args.trace:
        for kind, samples in (("samples", bench.samples), ("raw", bench.raw_samples)):
            for name, seen in sorted(samples.items()):
                print(f"{kind} {name}: " + " ".join(f"{v:.6g}" for v in seen))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if not bench.errors else 1


if __name__ == "__main__":
    sys.exit(main())
