"""Command-line interface.

Commands: ``parse``, ``normalize``, ``eq``, ``stratify``, ``abstract``,
``compile``, ``check``, ``corpus``.  Exit codes: 0 on success or a passing
check, 1 on a mathematical failure (failed or unknown verdicts, rejected
abstraction, exhausted normalization), 2 on usage or syntax errors, including
malformed proof scripts (an undeclared name, a duplicate label, a hypothesis
not headed by its constant) and input nested too deeply for term equality,
``--optimize`` or the nested blocks of a proof script.  The checker finds an
undeclared name in a step's terms, or a duplicate label, only when it reaches
that step: a script that fails an earlier step exits 1 with that failure.

The commands that rewrite terms (``normalize``, ``eq``, ``compile``,
``check``, ``corpus``) take the engine configuration from a line-oriented
``key = value`` file passed with ``--config`` and from flags, a flag overriding
its key: ``--fuel N`` (``fuel``), ``--ext-depth D`` (``ext-depth``),
``--printed-axioms`` (``printed-axioms = yes``), ``--no-surjective-pairing``
(``surjective-pairing = no``) and ``--no-eq-refl`` (``eq-reflexivity = no``).
A boolean key takes ``true``/``on``/``1``/``yes`` or ``false``/``off``/``0``/``no``
in any case.  ``parse``, ``stratify`` and ``abstract`` take none of these
flags.  The rewriting commands first check the bundled equality theorems
in-process and use the derived rules they justify; with the uncorrected
axiom variants most of those theorems fail, and only the surviving rules are
used.  ``check`` also checks the bundled refutations, whose theorems scripts
may cite, and skips the corpus's compile checks, which register nothing.
When a compiled definition fails its self-test, ``compile`` says so on stdout
and prints the two normal forms that differed on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import (
    BASE_DEFINITIONS, EQUALITY_ENTRY_IDS, REFUTATION_ENTRY_IDS, list_theorems, load_corpus,
    run_corpus, standard_context,
)
from .engine import EngineConfig, ext_equal, normalize
from .kernel import check_script
from .scriptfile import parse_combinator_specs, parse_scripts
from .stratify import (
    CompileError, NotAbstractable, abstract, compile_combinator, optimize,
    replay_conflict, stratify,
)
from .terms import TrcError, expand_defined, parse, render, variable_name

USAGE_ERROR = 2
MATH_FAILURE = 1

_BOOL_WORDS = {"true": True, "on": True, "1": True, "yes": True,
               "false": False, "off": False, "0": False, "no": False}
_BOOLEAN = "one of " + ", ".join(_BOOL_WORDS)


def _config_bool(text: str) -> bool:
    return _BOOL_WORDS[text.lower()]


# config-file key -> (EngineConfig field, also its flag's dest; reader; what a valid text is)
_CONFIG_KEYS = {
    "fuel": ("fuel", int, "an integer"),
    "ext-depth": ("ext_depth", int, "an integer"),
    "printed-axioms": ("corrected_axioms", lambda text: not _config_bool(text), _BOOLEAN),
    "surjective-pairing": ("surjective_pairing", _config_bool, _BOOLEAN),
    "eq-reflexivity": ("eq_reflexivity", _config_bool, _BOOLEAN),
}


def build_config(args: argparse.Namespace) -> EngineConfig:
    """The ``--config`` file's settings, each overridden by its flag when that is given."""
    conf: dict[str, str] = {}
    for raw in Path(args.config).read_text().splitlines() if args.config else ():
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if key in conf:
            raise ValueError(f"config key {key!r} is given twice")
        conf[key] = value
    changes: dict[str, object] = {}
    for key, (field, read, wanted) in _CONFIG_KEYS.items():
        if key in conf:
            try:
                changes[field] = read(conf[key])
            except (KeyError, ValueError):
                raise ValueError(f"config key {key}: {conf[key]!r} is not {wanted}") from None
        if getattr(args, field) is not None:
            changes[field] = getattr(args, field)
    return EngineConfig(**changes)


def _term_text(args: argparse.Namespace) -> str:
    """The term given as the argument or, with ``--file``, read from a file."""
    if args.file:
        if args.term is not None:
            raise ValueError("give the term as an argument or with --file, not both")
        return Path(args.file).read_text()
    if args.term is None:
        raise ValueError("missing term argument (or use --file)")
    return args.term


def _variable_name(text: str) -> str:
    """The name of the variable ``text`` parses to; a usage error otherwise."""
    name = variable_name(text)
    if name is None:
        raise argparse.ArgumentTypeError(f"not a variable: {text!r}")
    return name


def cmd_parse(args) -> int:
    print(render(parse(_term_text(args))))
    return 0


def cmd_normalize(args) -> int:
    config = build_config(args)
    _, rs = standard_context(config)
    t = expand_defined(parse(_term_text(args)), BASE_DEFINITIONS)
    result = normalize(t, rs)
    if args.trace:
        for line in result.lines():
            print(line)
    print(render(result.result))
    if result.exhausted:
        print(f"exhausted after {config.fuel} steps", file=sys.stderr)
        return MATH_FAILURE
    return 0


def cmd_eq(args) -> int:
    config = build_config(args)
    _, rs = standard_context(config)
    evidence = ext_equal(parse(args.left), parse(args.right), rs, defs=BASE_DEFINITIONS)
    print(evidence.summary())
    if args.trace:
        for i, level in enumerate(evidence.levels):
            applied = f" (applied {level.fresh})" if level.fresh else ""
            print(f"level {i}{applied}: {render(level.left.result)} vs {render(level.right.result)}")
    return 0 if evidence.equal else MATH_FAILURE


def cmd_stratify(args) -> int:
    result = stratify(parse(_term_text(args)))
    if result.satisfiable:
        items = sorted(result.assignment.items(), key=lambda kv: (kv[1], kv[0]))
        print(" ".join(f"{name}:{level}" for name, level in items))
        return 0
    print("unsatisfiable")
    for c in result.conflict:
        print(f"  {c.a} = {c.b} + {c.offset}")
    print(f"  net offset {replay_conflict(result.conflict)}")
    return MATH_FAILURE


def cmd_abstract(args) -> int:
    t = parse(_term_text(args))
    try:
        out = abstract(args.variable, t)
    except NotAbstractable as exc:
        print(str(exc), file=sys.stderr)
        return MATH_FAILURE
    if args.optimize:
        out = optimize(out)
    print(render(out))
    return 0


def cmd_compile(args) -> int:
    config = build_config(args)
    _, rs = standard_context(config)
    specs = parse_combinator_specs(Path(args.specfile).read_text())
    failures = 0
    for spec in specs:
        try:
            compiled = compile_combinator(spec, rs, defs=BASE_DEFINITIONS,
                                          optimize_result=args.optimize)
            print(f"{spec.name} = {render(compiled)}")
        except NotAbstractable as exc:
            failures += 1
            print(f"{spec.name} FAILED: {exc.reason} (parameter {exc.variable})")
        except CompileError as exc:
            failures += 1
            print(f"{spec.name} FAILED: self-test rejected the output")
            print(f"{spec.name}: {exc.diagnostics}", file=sys.stderr)
    return MATH_FAILURE if failures else 0


def cmd_check(args) -> int:
    config = build_config(args)
    report = run_corpus(load_corpus(EQUALITY_ENTRY_IDS + REFUTATION_ENTRY_IDS), config)
    registry, ruleset = report.registry, report.ruleset
    failures = 0
    for path in args.files:
        for script in parse_scripts(Path(path).read_text(), path):
            result = check_script(script, registry, ruleset, BASE_DEFINITIONS)
            print(result.line())
            if not result.ok:
                failures += 1
    return MATH_FAILURE if failures else 0


def cmd_corpus(args) -> int:
    config = build_config(args)
    corpus = load_corpus()
    report = run_corpus(corpus, config)
    for line in list_theorems(corpus, report) if args.list else report.lines(trace=args.trace):
        print(line)
    return 0 if report.ok else MATH_FAILURE


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fuel", type=int, default=None,
                   help=f"rewrite step bound (default {EngineConfig().fuel})")
    p.add_argument("--ext-depth", type=int, default=None,
                   help=f"fresh-variable applications for equality (default {EngineConfig().ext_depth})")
    p.add_argument("--printed-axioms", dest="corrected_axioms", action="store_const", const=False,
                   help="use the uncorrected rule variants (documented misprint)")
    p.add_argument("--no-surjective-pairing", dest="surjective_pairing", action="store_const", const=False)
    p.add_argument("--no-eq-refl", dest="eq_reflexivity", action="store_const", const=False)
    p.add_argument("--config", default=None, help="key = value engine config file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a term and print its canonical form")
    p.add_argument("term", nargs="?")
    p.add_argument("--file", default=None)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("normalize", help="normalize a term")
    p.add_argument("term", nargs="?")
    p.add_argument("--file", default=None)
    p.add_argument("--trace", action="store_true", help="print one line per rewrite step")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("eq", help="decide equality up to extensionality")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--trace", action="store_true")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("stratify", help="solve the stratification constraints of a term")
    p.add_argument("term", nargs="?")
    p.add_argument("--file", default=None)
    p.set_defaults(fn=cmd_stratify)

    p = sub.add_parser("abstract", help="bracket-abstract a variable out of a term")
    p.add_argument("variable", type=_variable_name)
    p.add_argument("term", nargs="?")
    p.add_argument("--file", default=None)
    p.add_argument("--optimize", action="store_true")
    p.set_defaults(fn=cmd_abstract)

    p = sub.add_parser("compile", help="compile combinator definitions from a file")
    p.add_argument("specfile")
    p.add_argument("--optimize", action="store_true")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("check", help="check proof script files against the corpus registry")
    p.add_argument("files", nargs="+")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("corpus", help="check the bundled theorem corpus")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--list", action="store_true", help="list theorems with statements and status")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (TrcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
