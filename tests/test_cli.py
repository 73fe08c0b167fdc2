from __future__ import annotations

from pathlib import Path

import pytest

from trc.cli import main

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
    code, out, _ = run(capsys, "stratify", "x (y x)")
    assert code == 1
    assert out.startswith("unsatisfiable")
    assert "net offset" in out


def test_abstract_identity(capsys):
    code, out, _ = run(capsys, "abstract", "x", "x")
    assert code == 0 and out.strip() == "I"


def test_abstract_rejects(capsys):
    code, _, err = run(capsys, "abstract", "x", "x y")
    assert code == 1
    assert "x-at-nonzero-level" in err


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
