from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trc.cli import build_config, main, make_parser
from trc.engine import EngineConfig

from golden_runs import GOLDEN_RUNS, with_config

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "src" / "trc" / "corpus" / "specs.trc"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_roundtrip(capsys):
    code, out, _ = run(capsys, "parse", "Abst   x (y   z)")
    assert code == 0
    assert out.strip() == "Abst x (y z)"


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "parse", "k(x")
    assert code == 2
    assert "error" in err


def test_normalize_example(capsys):
    code, out, _ = run(capsys, "normalize", "Abst Abst x y z")
    assert code == 0
    assert out.strip() == "y (x y z)"


def test_normalize_trace_lines(capsys):
    code, out, _ = run(capsys, "normalize", "--trace", "k(x) y")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 root K ⊢ x"
    assert lines[-1] == "x"


def test_normalize_identity(capsys):
    code, out, _ = run(capsys, "normalize", "I x")
    assert code == 0 and out.strip() == "x"


@pytest.mark.parametrize("argv, out", [
    (("Eq <x,x>",), "P1"),
    (("--no-eq-refl", "Eq <x,x>"), "Eq <x,x>"),
])
def test_normalize_eq_refl_toggle(capsys, argv, out):
    assert run(capsys, "normalize", *argv) == (0, out + "\n", "")


def test_eq_example(capsys):
    code, out, _ = run(capsys, "eq", "Abst I", "k(I)")
    assert code == 0
    assert out.startswith("EQUAL")
    # --trace adds each level's two normal forms after the summary
    assert run(capsys, "eq", "--trace", "Abst I", "k(I)") == (0, out + (
        "level 0: Abst <P1,P2> vs k(<P1,P2>)\n"
        "level 1 (applied v0): Abst <P1,P2> v0 vs <P1,P2>\n"
        "level 2 (applied v1): v1 vs v1\n"), "")


def test_eq_unknown_exits_one(capsys):
    code, out, _ = run(capsys, "eq", "P1", "P2")
    assert code == 1
    assert out.startswith("UNKNOWN")


def test_stratify_example(capsys):
    code, out, _ = run(capsys, "stratify", "y (x y z)")
    assert code == 0
    assert out.strip() == "z:0 y:1 x:2"


def test_stratify_conflict(capsys):
    code, out, err = run(capsys, "stratify", "x (y x)")
    assert code == 1 and not err
    assert out == (
        "unsatisfiable\n"
        "  node:argument = node:argument.argument + 0\n"
        "  node:function = node:argument + 1\n"
        "  node:function = var:x + 0\n"
        "  node:argument.argument = var:x + 0\n"
        "  net offset 1\n"
    )


@pytest.mark.parametrize("text, code, out", [
    ("x x", 1, "unsatisfiable\n"
               "  node:function = node:argument + 1\n"
               "  node:function = var:x + 0\n"
               "  node:argument = var:x + 0\n"
               "  net offset 1\n"),
    ("P1", 0, "\n"),
])
def test_stratify_output_is_pinned(capsys, text, code, out):
    assert run(capsys, "stratify", text) == (code, out, "")


def test_abstract_identity(capsys):
    code, out, _ = run(capsys, "abstract", "x", "x")
    assert code == 0 and out.strip() == "I"


@pytest.mark.parametrize("argv, out", [
    (("x", "k(P1) x"), "Abst k(k(P1)) I"),
    (("--optimize", "x", "k(P1) x"), "k(k(P1)) I"),
])
def test_abstract_optimize_is_opt_in(capsys, argv, out):
    assert run(capsys, "abstract", *argv) == (0, out + "\n", "")


def test_abstract_rejects(capsys):
    code, _, err = run(capsys, "abstract", "x", "x y")
    assert code == 1
    assert "x-at-nonzero-level" in err


# one word, as a spec parameter: a bracketed or commented variable is not one
@pytest.mark.parametrize("variable", ["", "x y", "P1", "I", "$x", "(x)", " x -- c", "k", "x-y"])
def test_abstract_variable_must_parse_as_a_variable(capsys, variable):
    code, out, err = run(capsys, "abstract", variable, "x")
    assert code == 2 and not out
    assert f"not a variable: {variable!r}" in err


@pytest.mark.parametrize("command", [["parse", "x"], ["stratify", "x"], ["abstract", "x", "x"]])
def test_commands_that_do_not_rewrite_take_no_engine_flags(capsys, command):
    code, out, err = run(capsys, *command, "--config", "/nonexistent")
    assert code == 2 and not out
    assert "unrecognized arguments: --config /nonexistent" in err


def test_abstract_reports_the_first_violation_in_walk_order(capsys):
    # x at level 2 (function.function) and k(x)'s body at level -1 both
    # violate; the level walk visits the right child first
    code, out, err = run(capsys, "abstract", "x", "(x y) k(x)")
    assert code == 1 and not out
    assert err == "not abstractable over x: negative-level at argument.k-body\n"


def test_compile_failure_exits_one(tmp_path, capsys):
    f = tmp_path / "m.defs"
    f.write_text("m x = x x\n")
    code, out, _ = run(capsys, "compile", str(f))
    assert code == 1
    assert "m FAILED" in out


def test_compile_success(tmp_path, capsys):
    f = tmp_path / "ok.defs"
    f.write_text("c x y = x (x y)\n")
    code, out, _ = run(capsys, "compile", str(f))
    assert code == 0
    assert out.startswith("c = ")


@pytest.mark.parametrize("second, error", [
    ("\n  D x y = x <y", "3:15: got 'EOF' (expected one of: ,)"),
    ("d x = x )", "2:9: trailing input in definition on line 2"),
    ("d x Y = x", "2:5: parameter 'Y' must be a variable"),
    ("  d x x = x", "2:3: d: parameters must be distinct"),
    ("d x = x @", "2:9: unexpected character '@'"),
])
def test_compile_errors_carry_the_file_position(tmp_path, capsys, second, error):
    f = tmp_path / "bad.defs"
    f.write_text(f"c x y = x (x y) -- fine\n{second}\n")
    code, out, err = run(capsys, "compile", str(f))
    assert code == 2 and not out
    assert err == f"error: {error}\n"


def test_check_command(tmp_path, capsys):
    f = tmp_path / "script.trc"
    f.write_text('''
        theorem user-1 "reuses the registry" {
          prove <Eq (k(x)), P2> != k(x)
          qed by theorem 2.4c with x := k(x)
        }
    ''')
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0
    assert "THEOREM user-1 PASS" in out


@pytest.mark.parametrize("body, error", [
    ("prove Q = Q\n  qed by chain [Q]", "user-3: undeclared names ['Q']"),
    # names in a chain's inner terms and in the terms cases splits on are stated too
    ("prove a = a\n  qed by chain [a, k(a) Foo, a]", "user-3: undeclared names ['Foo']"),
    ("prove a = a\n  qed by cases Eq <Foo, Foo> as (C, D) { p1 => { qed by chain [a] } }",
     "user-3: undeclared names ['Foo']"),
    ("prove P1 = P1\n  have a : P1 = P1 by chain [P1]\n  have a : P1 = P1 by chain [P1]\n  qed by chain [P1]",
     "duplicate label 'a'"),
    ("hypothesis M : P1 $x = $x $x\n  prove false\n  qed by chain [P1]",
     "hypothesis equation for M is not headed by it"),
    ("hypothesis N : N $x = $x\n  hypothesis M : N $x = $x\n  prove false\n  qed by chain [P1]",
     "hypothesis equation for M is not headed by it"),
    ("hypothesis M : M $x = $y\n  prove false\n  qed by chain [P1]",
     "hypothesis for M: rhs has unbound pattern variables"),
    ("prove Eq <P2,P2> != P2\n  qed by theorem 2.4a with x := P1, x := P2", "3:37: x is bound twice"),
    # so are names in a theorem's instantiation and in application arguments
    ("prove Eq <a, P2> != a\n  have n : Eq <a, P2> != a by theorem 2.4a with x := Foo\n  qed by n",
     "user-3: undeclared names ['Foo']"),
    ("prove a != b\n  qed by application [Foo] (l, r, n)", "user-3: undeclared names ['Foo']"),
    # a number with more digits than ``int`` converts
    pytest.param("prove a = a\n  qed by ext " + "9" * 5000, "3:14: a number of 5000 digits is too long",
                 id="a number of 5000 digits"),
    # a let binds a name a term can write, so not a constant, k or a word that is no identifier
    ("prove P1 = P2\n  let P1 := P2\n  qed by normalize", "3:7: let must bind a variable or a declared name, not 'P1'"),
    ("prove a = a\n  let k := a\n  qed by normalize", "3:7: let must bind a variable or a declared name, not 'k'"),
    ("prove a = a\n  let x.y := a\n  qed by normalize", "3:7: let must bind a variable or a declared name, not 'x.y'"),
    ("prove a = a\n  let a-b := a\n  qed by normalize", "3:7: let must bind a variable or a declared name, not 'a-b'"),
])
def test_a_malformed_script_is_usage_error(tmp_path, capsys, body, error):
    # malformed, not a failed proof: exit 1 is kept for verdicts
    f = tmp_path / "bad.trc"
    f.write_text(f'theorem user-3 "malformed" {{\n  {body}\n}}\n')
    assert run(capsys, "check", str(f)) == (2, "", f"error: {error}\n")


def test_a_malformed_step_after_a_failing_step_exits_1(tmp_path, capsys):
    # the checker stops at the failing step and never reaches the undeclared name
    f = tmp_path / "bad.trc"
    f.write_text('theorem t1 "t" {\n  prove a = a\n  have h : a = b by normalize\n'
                 '  qed by chain [a, Foo, a]\n}\n')
    assert run(capsys, "check", str(f)) == (
        1, "THEOREM t1 FAIL 1 step 1 (h): normal forms differ: a vs b\n", "")


def test_check_reports_failures(tmp_path, capsys):
    f = tmp_path / "bad.trc"
    f.write_text('''
        theorem user-2 "wrong" {
          prove P1 = P2
          qed by chain [P1, P2]
        }
    ''')
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert "THEOREM user-2 FAIL" in out


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert out.strip().endswith("CORPUS PASS (85 entries)")


def test_corpus_trace_deterministic(capsys):
    code1, out1, _ = run(capsys, "corpus", "--trace")
    code2, out2, _ = run(capsys, "corpus", "--trace")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, config_line, code, golden", GOLDEN_RUNS,
                         ids=[" ".join(Path(a).name for a in argv) + (f" with {line}" if line else "")
                              for argv, line, *_ in GOLDEN_RUNS])
def test_golden_output(tmp_path, monkeypatch, capsys, argv, config_line, code, golden):
    conf = None
    if config_line is not None:
        conf = tmp_path / "engine.conf"
        conf.write_text(config_line + "\n")
    monkeypatch.chdir(REPO)
    assert main(with_config(argv, conf)) == code
    assert capsys.readouterr().out.encode("utf-8") == (REPO / "tests" / "data" / golden).read_bytes()


def test_without_surjective_pairing_13_theorems_fail_and_20_entries_are_blocked():
    # as README states; a test_golden_output row pins the whole trace
    lines = (REPO / "tests" / "data" / "corpus_no_surjective_pairing_trace.txt").read_text("utf-8").splitlines()
    assert (sum(ln.startswith("THEOREM ") and " FAIL " in ln for ln in lines),
            sum(" BLOCKED " in ln for ln in lines)) == (13, 20)


def test_compile_prints_the_failed_self_test_on_stderr(capsys):
    # stdout is the golden above; stderr says which normal forms differed
    code, _, err = run(capsys, "compile", str(SPECS), "--printed-axioms")
    assert code == 1
    (b_line,) = (line for line in err.splitlines() if line.startswith("b: "))
    assert "applied form normalizes to" in b_line
    assert b_line.endswith("body to y (x y z) v0 v1 v2 v3")


def test_check_runs_no_compile_checks():
    # compile entries register no theorem and no rule, so check skips them
    # and never loads the compiler
    code = "import sys\nfrom trc.cli import main\nprint(main(sys.argv[1:]))\nprint('trc.stratify' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", code, "check", str(SPECS.parent / "17-2.6.trc")],
                          capture_output=True, text=True, env=_child_env(), timeout=60, check=True)
    assert (done.stdout, done.stderr) == ("THEOREM 2.6 PASS\n0\nFalse\n", "")


def test_corpus_printed_axioms_fails(capsys):
    code, out, _ = run(capsys, "corpus", "--printed-axioms")
    assert code == 1
    assert "CORPUS FAIL" in out
    assert "NOTE" in out


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "--list")
    assert code == 0
    assert "2.6 [refutation]" in out


def test_config_file(tmp_path, capsys):
    conf = tmp_path / "engine.conf"
    conf.write_text("fuel = 2\next-depth = 0\n")
    code, out, err = run(capsys, "normalize", "--config", str(conf),
                         "Abst Abst x y z")
    assert code == 1  # two steps are not enough
    assert "exhausted after 2 steps" in err


def test_fuel_exactly_sufficient_is_not_exhaustion(tmp_path, capsys):
    conf = tmp_path / "engine.conf"
    conf.write_text("fuel = 3\n")
    code, out, err = run(capsys, "normalize", "--config", str(conf),
                         "Abst Abst x y z")
    assert code == 0 and out.strip() == "y (x y z)" and not err


@pytest.mark.parametrize("argv", [["normalize", "x"], ["corpus"], ["compile", "specs.trc"]])
def test_no_engine_flags_build_the_default_config(argv):
    assert build_config(make_parser().parse_args(argv)) == EngineConfig()


def test_flag_overrides_config(tmp_path, capsys):
    conf = tmp_path / "engine.conf"
    conf.write_text("fuel = 3\n")
    code, out, _ = run(capsys, "normalize", "--config", str(conf), "--fuel", "100",
                       "Abst Abst x y z")
    assert code == 0
    assert out.strip() == "y (x y z)"


# each engine setting: its flag, its config line with the same non-default
# value, a config line with the other value, and the EngineConfig they build
ENGINE_SETTINGS = [
    (["--fuel", "7"], "fuel = 7", "fuel = 3", EngineConfig(fuel=7)),
    (["--ext-depth", "2"], "ext-depth = 2", "ext-depth = 0", EngineConfig(ext_depth=2)),
    (["--printed-axioms"], "printed-axioms = yes", "printed-axioms = no", EngineConfig(corrected_axioms=False)),
    (["--no-surjective-pairing"], "surjective-pairing = off", "surjective-pairing = on",
     EngineConfig(surjective_pairing=False)),
    (["--no-eq-refl"], "eq-reflexivity = no", "eq-reflexivity = true", EngineConfig(eq_reflexivity=False)),
]


@pytest.mark.parametrize("flag, line, other, expected", ENGINE_SETTINGS, ids=[s[0][0] for s in ENGINE_SETTINGS])
def test_a_flag_and_its_config_key_build_the_same_config(tmp_path, flag, line, other, expected):
    conf = tmp_path / "engine.conf"
    assert expected != EngineConfig()
    conf.write_text(line + "\n")
    assert build_config(make_parser().parse_args(["normalize", "x", *flag])) == expected
    assert build_config(make_parser().parse_args(["normalize", "x", "--config", str(conf)])) == expected
    conf.write_text(other + "\n")  # the flag wins over the file
    assert build_config(make_parser().parse_args(["normalize", "x", "--config", str(conf), *flag])) == expected


def test_usage_error_exit_code(capsys):
    assert main(["normalize"]) == 2  # missing term
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "engine.conf"
    conf.write_text("-- a comment line\nfuel\n")
    assert run(capsys, "normalize", "--config", str(conf), "x") == (2, "", "error: bad config line: 'fuel'\n")


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "engine.conf"
    conf.write_text("fule = 3\n")
    assert run(capsys, "normalize", "--config", str(conf), "k(x) y") == (
        2, "", "error: unknown config key 'fule'\n")


def test_repeated_config_key_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "engine.conf"
    conf.write_text("fuel = 2\nfuel = 3\n")
    assert run(capsys, "normalize", "--config", str(conf), "Abst Abst x y z") == (
        2, "", "error: config key 'fuel' is given twice\n")


@pytest.mark.parametrize("key", ["printed-axioms", "surjective-pairing", "eq-reflexivity"])
def test_bad_boolean_config_value_is_usage_error(tmp_path, capsys, key):
    conf = tmp_path / "engine.conf"
    conf.write_text(f"{key} = maybe\n")
    code, out, err = run(capsys, "normalize", "--config", str(conf), "k(x) y")
    assert code == 2
    assert not out
    assert key in err and "'maybe'" in err


@pytest.mark.parametrize("key, value", [("fuel", "abc"), ("ext-depth", "")])
def test_bad_integer_config_value_is_usage_error(tmp_path, capsys, key, value):
    conf = tmp_path / "engine.conf"
    conf.write_text(f"{key} = {value}\n")
    assert run(capsys, "normalize", "--config", str(conf), "k(x) y") == (
        2, "", f"error: config key {key}: {value!r} is not an integer\n")


def test_integer_config_values_are_read_as_int_reads_them(tmp_path):
    conf = tmp_path / "engine.conf"
    conf.write_text("fuel = +1_000\next-depth = 02\n")
    args = make_parser().parse_args(["normalize", "x", "--config", str(conf)])
    assert build_config(args) == EngineConfig(fuel=1000, ext_depth=2)


# ---------------------------------------------------------------------------
# deep input
# ---------------------------------------------------------------------------

def _spine_text(n):
    return " ".join(f"x{i}" for i in range(n))


DEPTH = 10_000


@pytest.mark.parametrize("text", [
    "k(" * DEPTH + "x" + ")" * DEPTH,
    "<" * DEPTH + "x" + ",x>" * DEPTH,
    "x (" * DEPTH + "x x" + ")" * DEPTH,
], ids=["k-nest", "pair-nest", "parenthesis-nest"])
def test_deep_parse_prints_the_nest(tmp_path, capsys, text):
    f = tmp_path / "nest.trc"
    f.write_text(text)
    code, out, err = run(capsys, "parse", "--file", str(f))
    assert code == 0 and not err
    assert out == text + "\n"


def test_stratify_deep_chain(tmp_path, capsys):
    f = tmp_path / "chain.trc"
    f.write_text("".join(f"f{i} (" for i in range(DEPTH)) + "y" + ")" * DEPTH)
    code, out, err = run(capsys, "stratify", "--file", str(f))
    assert code == 0 and not err
    assert out == "y:0 " + " ".join(f"{name}:1" for name in sorted(f"f{i}" for i in range(DEPTH))) + "\n"


def _child_env():
    """The environment for a child interpreter that imports ``trc`` from this checkout."""
    src = str(REPO / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_stratify_deep_conflict_is_linear(tmp_path):
    # f (f (... (x x))) at depth 20,000: building every node's key string
    # would take minutes and gigabytes, so the run gets a time and memory cap
    depth = 20_000
    f = tmp_path / "chain.trc"
    f.write_text("f (" * depth + "x x" + ")" * depth)

    def cap_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run([sys.executable, "-m", "trc.cli", "stratify", "--file", str(f)],
                          capture_output=True, text=True, env=_child_env(), timeout=60, preexec_fn=cap_memory)
    at = "argument." * depth
    assert (done.returncode, done.stdout, done.stderr) == (1, (
        "unsatisfiable\n"
        f"  node:{at}function = node:{at}argument + 1\n"
        f"  node:{at}function = var:x + 0\n"
        f"  node:{at}argument = var:x + 0\n"
        "  net offset 1\n"), "")


def test_deep_equality_is_usage_error(capsys):
    spine = _spine_text(3000)
    code, _, err = run(capsys, "eq", spine, spine)
    assert code == 2
    assert "nested too deeply" in err


@pytest.mark.parametrize("depth, expected", [
    (300, (1, "UNKNOWN (searched ext depth 300, 0 rewrite steps)\n", "")),
    (400, (2, "", "error: input is nested too deeply\n")),
])
def test_eq_ext_depth_bound(depth, expected):
    # each ext level lengthens both application spines by one, and term
    # equality recurses down the spine, so a deep enough search is too deep
    # for two variables; run in a child so that the test's own frames do not count
    done = subprocess.run([sys.executable, "-m", "trc", "eq", "x", "y", "--ext-depth", str(depth)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_a_wide_ext_step_names_its_arguments_in_linear_time(tmp_path):
    # 20,000 fresh names, each a scan from v0, take quadratic time; the sides are then too deep to compare
    f = tmp_path / "ext.trc"
    f.write_text('theorem e "wide ext" { prove k(x) = k(x) qed by ext 20000 }')
    done = subprocess.run([sys.executable, "-m", "trc", "check", str(f)],
                          capture_output=True, text=True, env=_child_env(), timeout=15)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: input is nested too deeply\n")


def test_an_ext_arity_over_the_bound_fails_before_any_name_is_made(tmp_path):
    # a billion fresh names would exhaust memory; the bound refuses the step first
    f = tmp_path / "ext.trc"
    f.write_text('theorem e "huge ext" { prove k(x) = k(x) qed by ext 1000000000 }')
    done = subprocess.run([sys.executable, "-m", "trc", "check", str(f)],
                          capture_output=True, text=True, env=_child_env(), timeout=15)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "THEOREM e FAIL 1 step 1 (_qed1): ext arity must be <= 100000\n", "")


def test_deeply_nested_proof_blocks_are_usage_error(tmp_path, capsys):
    proof = "qed by chain [a, a]"
    for _ in range(300):
        proof = f"qed by cases Eq <a, a> as (C, D) {{ p1 => {{ {proof} }} }}"
    f = tmp_path / "cases.trc"
    f.write_text(f'theorem deep "nested cases" {{ prove a = a {proof} }}')
    code, out, err = run(capsys, "check", str(f))
    assert code == 2 and not out
    assert err == "error: input is nested too deeply\n"


def test_normalize_deep_spine(tmp_path, capsys):
    f = tmp_path / "spine.trc"
    f.write_text(_spine_text(3000))
    code, out, err = run(capsys, "normalize", "--file", str(f))
    assert code == 0 and not err
    assert out.strip() == _spine_text(3000)


def test_file_errors_point_into_the_file(tmp_path, capsys):
    f = tmp_path / "term.trc"
    f.write_text("\n\n  (x y\n")
    code, out, err = run(capsys, "parse", "--file", str(f))
    assert (code, out) == (2, "")
    assert err == "error: 4:1: got 'EOF' (expected one of: ))\n"
    f.write_text("\n  x y\n")
    assert run(capsys, "parse", "--file", str(f)) == (0, "x y\n", "")


def test_python_dash_m_trc_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "trc", "parse", "Abst   x (y z)"],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "Abst x (y z)\n", "")


@pytest.mark.parametrize("command", ["parse", "normalize", "stratify", "abstract"])
def test_a_term_and_a_file_together_are_usage_error(tmp_path, capsys, command):
    f = tmp_path / "term.trc"
    f.write_text("y")
    variable = ["x"] if command == "abstract" else []
    code, out, err = run(capsys, command, *variable, "x", "--file", str(f))
    assert code == 2 and not out
    assert err == "error: give the term as an argument or with --file, not both\n"


# ---------------------------------------------------------------------------
# fuzzing: any input ends in an exit code, never an escaped exception
# ---------------------------------------------------------------------------

_TERM_TOKENS = ["x", "y", "z", "P1", "P2", "Abst", "Eq", "I", "M", "k(", "k", "(", ")",
                "<", ",", ">", "$x", "=", "!", "@"]
_SCRIPT_TOKENS = ["theorem", "t1", '"title"', "{", "}", "prove", "=", "!=", "false", "qed",
                  "by", "chain", "[", "]", ",", "normalize", "fuel", "ext", "0", "2", "let",
                  ":=", "have", ":", "cases", "as", "(", ")", "p1", "p2", "=>", "hypothesis",
                  "M", "$x", "2.4a", "VIII", "with", "contradiction", "k-injection",
                  "application", "x", "P1", "P2", "Eq", "<x,y>"]
_SCRIPTS = [
    'theorem f "t" {{ prove {a} = {b} qed by chain [{a}, {b}] }}',
    'theorem f "t" {{ prove {a} = {b} qed by normalize fuel 5 }}',
    'theorem f "t" {{ prove {a} = {b} qed by ext 2 }}',
    'theorem f "t" {{ prove {a} != {b} qed by theorem 2.4a with x := {a} }}',
    'theorem f "t" {{ hypothesis M : M $x = {a} prove false qed by normalize }}',
    'theorem f "t" {{ prove {a} = {b} qed by cases Eq <{a}, {b}> as (c, d) {{ '
    'p1 => {{ qed by chain [{a}, {b}] }} p2 => {{ qed by chain [{a}, {b}] }} }} }}',
    'theorem f "t" {{ prove {a} != {b} qed by contradiction as h {{ '
    'have e : {a} = {b} by chain [{a}, {b}] qed by contradiction e h }} }}',
]

term_text = st.one_of(
    st.recursive(
        st.sampled_from(["x", "y", "P1", "P2", "Abst", "Eq", "I"]),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: f"{p[0]} ({p[1]})"),
            sub.map(lambda s: f"k({s})"),
            st.tuples(sub, sub).map(lambda p: f"<{p[0]},{p[1]}>"),
        ),
        max_leaves=8,
    ),
    st.lists(st.sampled_from(_TERM_TOKENS), max_size=10).map(" ".join),
)
script_text = st.one_of(
    st.builds(lambda tpl, a, b: tpl.format(a=a, b=b), st.sampled_from(_SCRIPTS), term_text, term_text),
    st.lists(st.sampled_from(_SCRIPT_TOKENS), max_size=25).map(" ".join),
)
spec_text = st.one_of(
    st.builds(lambda params, body: f"c {params} = {body}",
              st.sampled_from(["x", "x y", "x y z", "x x", ""]), term_text),
    st.lists(st.sampled_from(_TERM_TOKENS + ["c", "\n"]), max_size=12).map(" ".join),
)
engine_flags = st.lists(st.one_of(
    st.integers(-1, 200).map(lambda n: ["--fuel", str(n)]),
    st.integers(-1, 3).map(lambda n: ["--ext-depth", str(n)]),
    st.sampled_from([["--printed-axioms"], ["--no-surjective-pairing"], ["--no-eq-refl"]]),
), max_size=3).map(lambda groups: [arg for g in groups for arg in g])


@st.composite
def command_lines(draw, tmp_path):
    """An argv for one of the eight commands, writing any input file it names."""
    command = draw(st.sampled_from(
        ["parse", "normalize", "eq", "stratify", "abstract", "compile", "check", "corpus"]))
    argv = [command]
    if command in ("parse", "normalize", "stratify", "abstract"):
        if command == "abstract":
            argv.append(draw(st.sampled_from(["x", "y", "I"])))
        text = draw(term_text)
        if draw(st.booleans()):
            f = tmp_path / "term.trc"
            f.write_text(text)
            argv += ["--file", str(f)]
        else:
            argv.append(text)
    elif command == "eq":
        argv += [draw(term_text), draw(term_text)]
    elif command in ("compile", "check"):
        f = tmp_path / "input.trc"
        f.write_text(draw(spec_text if command == "compile" else script_text))
        argv.append(str(f))
    switches = {"normalize": ["--trace"], "eq": ["--trace"], "abstract": ["--optimize"],
                "compile": ["--optimize"], "corpus": ["--trace", "--list"]}
    argv += draw(st.lists(st.sampled_from(switches.get(command, ["--trace"])), max_size=1))
    if command in ("parse", "stratify", "abstract"):
        return argv
    return argv + draw(engine_flags)


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_ends_in_an_exit_code(tmp_path, capsys, data):
    argv = data.draw(command_lines(tmp_path))
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()


PACKAGE = {f"trc.{path.stem}" for path in (REPO / "src" / "trc").glob("*.py")
           if path.stem not in ("__init__", "__main__")} | {"trc"}
LIGHT = {"trc", "trc.cli", "trc.engine", "trc.terms"}
PRINT_LOADED = "print(*sorted(name for name in sys.modules if name.partition('.')[0] == 'trc'))"


# only compile and corpus compile combinators, so only they load trc.stratify
# besides stratify and abstract
REWRITING = PACKAGE - {"trc.mutate", "trc.stratify"}


@pytest.mark.parametrize("argv, loaded", [
    (("parse", "x"), LIGHT),
    (("stratify", "x y"), LIGHT | {"trc.stratify"}),
    (("abstract", "x", "x"), LIGHT | {"trc.stratify"}),
    (("normalize", "x"), REWRITING),
    (("eq", "x", "x"), REWRITING),
    (("check", str(SPECS.parent / "17-2.6.trc")), REWRITING),
    (("compile", str(SPECS)), PACKAGE - {"trc.mutate"}),
    (("corpus",), PACKAGE - {"trc.mutate"}),
], ids=["parse", "stratify", "abstract", "normalize", "eq", "check", "compile", "corpus"])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded):
    code = f"import sys\nfrom trc.cli import main\nmain(sys.argv[1:])\n{PRINT_LOADED}\n"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_child_env(), timeout=60, check=True)
    assert set(done.stdout.splitlines()[-1].split()) == loaded


def test_the_corpus_and_the_standard_context_load_without_the_compiler():
    code = ("import sys\nfrom trc.corpus import load_corpus, standard_context\n"
            "load_corpus()\nstandard_context()\nprint('trc.stratify' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=60, check=True)
    assert done.stdout == "False\n"


def test_import_trc_loads_a_module_when_it_is_first_read():
    code = f"""import sys
import trc
{PRINT_LOADED}
print(hasattr(trc, "nope"))
kernel = trc.kernel
sys.modules["trc.kernel"] = None  # so importing trc.mutate fails inside the module
try:
    trc.mutate
except ImportError as exc:
    print(exc.name)
sys.modules["trc.kernel"] = kernel
print(all(getattr(trc, name[4:]) is sys.modules[name] for name in sys.argv[1:]))
"""
    done = subprocess.run([sys.executable, "-c", code, *sorted(PACKAGE - {"trc"})], capture_output=True,
                          text=True, env=_child_env(), timeout=60, check=True)
    assert done.stdout == "trc\nFalse\ntrc.kernel\nTrue\n"
