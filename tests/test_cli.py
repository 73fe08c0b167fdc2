from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trc.cli import build_config, main, make_parser
from trc.engine import EngineConfig

GOLDEN_TRACE = Path(__file__).parent / "data" / "corpus_trace.txt"


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


def test_eq_example(capsys):
    code, out, _ = run(capsys, "eq", "Abst I", "k(I)")
    assert code == 0
    assert out.startswith("EQUAL")


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


def test_abstract_rejects(capsys):
    code, _, err = run(capsys, "abstract", "x", "x y")
    assert code == 1
    assert "x-at-nonzero-level" in err


@pytest.mark.parametrize("variable", ["", "x y", "P1", "I", "$x"])
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


def test_corpus_trace_matches_golden(capsys):
    # the committed output pins the traced corpus run across changes, byte for byte
    code, out, _ = run(capsys, "corpus", "--trace")
    assert code == 0
    assert out.encode("utf-8") == GOLDEN_TRACE.read_bytes()


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


def test_usage_error_exit_code(capsys):
    assert main(["normalize"]) == 2  # missing term
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["printed-axioms", "surjective-pairing", "eq-reflexivity"])
def test_bad_boolean_config_value_is_usage_error(tmp_path, capsys, key):
    conf = tmp_path / "engine.conf"
    conf.write_text(f"{key} = maybe\n")
    code, out, err = run(capsys, "normalize", "--config", str(conf), "k(x) y")
    assert code == 2
    assert not out
    assert key in err and "'maybe'" in err


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


def test_deep_equality_is_usage_error(capsys):
    spine = _spine_text(3000)
    code, _, err = run(capsys, "eq", spine, spine)
    assert code == 2
    assert "nested too deeply" in err


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
