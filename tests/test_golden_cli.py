import copy
import json

import pytest

from qkline import cli, golden, repring
from qkline.golden import check_classical_fixture, check_golden_fixture, load_fixture


def test_golden_sl3_passes(engine):
    res = check_golden_fixture("A2", engine("A2"))
    assert res.passed, res.mismatches
    assert res.rows_checked == 15  # 9 stored rows + 6 symmetry completions
    assert res.corrections_used == [("121", "121", 2, "21")]


def test_golden_sp4_passes(engine):
    res = check_golden_fixture("C2", engine("C2"))
    assert res.passed, res.mismatches
    assert res.rows_checked == 28
    assert res.corrections_used == []


def test_classical_parts_pass(engine):
    for label in ("A2", "C2"):
        res = check_classical_fixture(label, engine(label))
        assert res.passed, res.mismatches


def test_fixture_rows_cover_all_pairs(engine):
    # stored rows plus mirrors must cover every unordered pair of
    # nontrivial basis elements
    for label, expected in (("A2", 15), ("C2", 28)):
        e = engine(label)
        els = [w for w in e.W.elements() if w is not e.W.identity]
        assert expected == len(els) * (len(els) + 1) // 2


def test_comparator_detects_tampering(engine, monkeypatch):
    fixture = copy.deepcopy(load_fixture("C2"))
    fixture["rows"][0]["classical"]["1"] = "1-e(-a2)"
    monkeypatch.setattr(golden, "load_fixture", lambda group: fixture)
    res = check_golden_fixture("C2", engine("C2"))
    assert not res.passed
    assert any(m[0] == "1" and m[2] == "classical" for m in res.mismatches)


def test_symmetry_consistency_guards_fixture(engine, monkeypatch):
    # breaking one half of a mirror-symmetric pair is caught before comparison
    fixture = copy.deepcopy(load_fixture("A2"))
    assert fixture["rows"][1]["u"] == "1" and fixture["rows"][1]["v"] == "2"
    fixture["rows"][1]["classical"]["12"] = "2"
    monkeypatch.setattr(golden, "load_fixture", lambda group: fixture)
    with pytest.raises(ValueError, match="symmetry-consistent"):
        check_golden_fixture("A2", engine("A2"))


def test_misprint_entry_must_match_row(engine, monkeypatch):
    fixture = copy.deepcopy(load_fixture("A2"))
    fixture["misprints"][0]["printed"] = "e(-a1)"
    monkeypatch.setattr(golden, "load_fixture", lambda group: fixture)
    with pytest.raises(ValueError, match="misprint"):
        check_golden_fixture("A2", engine("A2"))


# -- command line -----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_constant_reference_values(capsys):
    code, out, _ = run_cli(
        capsys, "constant", "--group", "A2", "--parabolic", "", "--u", "1", "--v", "1",
        "--w", "e", "--k", "1",
    )
    assert code == 0
    assert out.splitlines() == ["e^{-a1}", "nonequivariant: 1"]

    code, out, _ = run_cli(
        capsys, "constant", "--group", "A2", "--parabolic", "", "--u", "1", "--v", "2",
        "--w", "1", "--k", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == "0"

    code, out, _ = run_cli(
        capsys, "constant", "--group", "C2", "--parabolic", "", "--u", "2", "--v", "2",
        "--w", "21", "--k", "2",
    )
    assert code == 0
    assert out.splitlines() == ["e^{-a1-a2}", "nonequivariant: 1"]


def test_cli_neighborhood(capsys):
    code, out, _ = run_cli(
        capsys, "neighborhood", "X", "--group", "A2", "--parabolic", "", "--u", "2", "--k", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "21"

    code, out, _ = run_cli(
        capsys, "neighborhood", "Y", "--group", "A2", "--parabolic", "", "--u", "1", "--k", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "e"

    code, _, err = run_cli(
        capsys, "neighborhood", "X", "--group", "A2", "--parabolic", "2", "--u", "1", "--k", "1"
    )
    assert code == 2
    assert "not 1-free" in err


def test_cli_table_text_deterministic(capsys):
    args = ("table", "--group", "A1", "--parabolic", "")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    assert out1 == "O^{1} * O^{1} = (1 - e^{-a1}) O^{1} + e^{-a1} q1 O^{e}\n"
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_table_json_roundtrip(capsys, engine):
    code, out, _ = run_cli(capsys, "table", "--group", "A2", "--parabolic", "", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "A2"
    e = engine("A2")
    from qkline.qklines import qk_product_degree1

    for row in payload["rows"]:
        u = e.W.parse_word(row["u"])
        v = e.W.parse_word(row["v"])
        prod = qk_product_degree1(e, u, v)
        classical = {
            w: repring.from_pairs(e.datum, pairs) for w, pairs in row["classical"]
        }
        assert classical == {w.word_str: c for w, c in prod.classical.coeffs.items()}
        for kstr, items in row["quantum"].items():
            got = {w: repring.from_pairs(e.datum, pairs) for w, pairs in items}
            exp = prod.quantum[int(kstr)]
            assert got == {w.word_str: c for w, c in exp.coeffs.items()}


def test_cli_table_latex_shape(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--group", "A2", "--parabolic", "", "--format", "latex",
        "--u", "1", "--v", "1",
    )
    assert code == 0
    assert out.startswith("\\begin{align*}")
    assert "{\\mathcal O}^{s_1}\\circ {\\mathcal O}^{s_1} &\\equiv" in out
    assert "q_1" in out


def test_cli_table_pair_filter_and_errors(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--group", "C2", "--parabolic", "", "--u", "2", "--v", "2"
    )
    assert code == 0
    assert out.count("\n") == 1
    code, _, err = run_cli(capsys, "table", "--group", "C2", "--parabolic", "", "--u", "2")
    assert code == 2 and "--u and --v" in err
    code, _, err = run_cli(capsys, "table", "--group", "Zk9", "--parabolic", "")
    assert code == 2


def test_cli_check_golden(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "golden")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert {rec["group"] for rec in lines} == {"A2", "C2"}
    assert all(rec["status"] == "pass" for rec in lines)
    a2 = next(rec for rec in lines if rec["group"] == "A2")
    assert a2["details"]["misprint_corrections"] == [["121", "121", "2", "21"]]


def test_cli_check_golden_without_fixture(capsys):
    code, out, err = run_cli(capsys, "check", "--suite", "golden", "--group", "B3")
    assert code == 2 and out == ""
    assert "no golden fixture for 'B3'" in err and "A2, C2" in err


def test_cli_check_golden_group_label_ignores_case(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "golden", "--group", "a2")
    assert code == 0
    assert [json.loads(line)["group"] for line in out.splitlines()] == ["A2"]
    assert check_golden_fixture(" c2 ").group == "C2"


def test_cli_refuses_groups_too_large_to_enumerate(tmp_path, capsys, monkeypatch):
    from qkline import weyl

    monkeypatch.setattr(weyl, "MAX_ELEMENTS", 100)
    # a D4 Cartan file is a group of its own, so no other test has enumerated it
    path = tmp_path / "d4.txt"
    path.write_text("4\n2 -1 0 0\n-1 2 -1 -1\n0 -1 2 0\n0 -1 0 2\n")
    code, out, err = run_cli(capsys, "table", "--group", str(path), "--parabolic", "2,3,4")
    assert code == 2 and out == ""
    assert "has 192 elements" in err
    code, out, err = run_cli(
        capsys, "constant", "--group", str(path), "--u", "1", "--v", "1", "--w", "e", "--k", "1"
    )
    assert code == 2 and "has 192 elements" in err


def test_cli_check_suites_on_small_group(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "vanishing", "--group", "A2")
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "--suite", "sign", "--group", "C2")
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "--suite", "gkm", "--group", "A2")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "check", "--suite", "peterson", "--group", "A2", "--parabolic", "2"
    )
    assert code == 0
    code, _, err = run_cli(capsys, "check", "--suite", "sign", "--group", "B2", "--parabolic", "1")
    assert code == 0  # no k-free nodes outside {1}: empty sweep set, vacuous pass


def test_cli_check_requires_group(capsys):
    code, _, err = run_cli(capsys, "check", "--suite", "vanishing")
    assert code == 2 and "needs --group" in err


def test_cli_check_failure_exit_code(capsys, monkeypatch):
    fixture = copy.deepcopy(load_fixture("C2"))
    fixture["rows"][0]["classical"]["1"] = "1-e(-a2)"
    real_load = golden.load_fixture
    monkeypatch.setattr(
        golden, "load_fixture", lambda g: fixture if g == "C2" else real_load(g)
    )
    code, out, _ = run_cli(capsys, "check", "--suite", "golden")
    assert code == 1
    recs = [json.loads(line) for line in out.splitlines()]
    assert any(rec["status"] == "fail" for rec in recs)


def test_cli_group_from_cartan_file(tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_text("2\n2 -2\n-1 2\n")
    code, out, _ = run_cli(
        capsys, "constant", "--group", str(path), "--parabolic", "", "--u", "2",
        "--v", "2", "--w", "21", "--k", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "e^{-a1-a2}"
    code, _, err = run_cli(
        capsys, "constant", "--group", str(tmp_path / "missing.txt"), "--parabolic", "",
        "--u", "2", "--v", "2", "--w", "21", "--k", "2",
    )
    assert code == 2


def test_demo_scripts_run(tmp_path):
    import pathlib
    import subprocess
    import sys

    demos = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("0*.py"))
    assert len(demos) == 5
    for script in demos:
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (script.name, proc.stderr[-500:])
        assert proc.stdout.strip()


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--suite", "bogus"])
    assert exc.value.code == 2
    code, _, err = run_cli(
        capsys, "constant", "--group", "B2", "--parabolic", "1", "--u", "2", "--v", "2",
        "--w", "2", "--k", "2",
    )
    assert code == 2
    assert "not admissible" in err
