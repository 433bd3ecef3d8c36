import copy
import json

import pytest

from qkline import cli, golden, repring
from qkline.golden import check_classical_fixture, check_golden_fixture, load_fixture
from qkline.qklines import QKProduct


def test_golden_sl3_passes():
    res = check_golden_fixture("A2")
    assert res.passed, res.mismatches
    assert res.rows_checked == 15  # 9 stored rows + 6 symmetry completions
    assert res.corrections_used == [("121", "121", 2, "21")]


def test_golden_sp4_passes():
    res = check_golden_fixture("C2")
    assert res.passed, res.mismatches
    assert res.rows_checked == 28
    assert res.corrections_used == []


def test_classical_parts_pass():
    for label in ("A2", "C2"):
        res = check_classical_fixture(label)
        assert res.passed, res.mismatches


def test_golden_checks_take_no_engine(engine):
    # each check builds its engine on the fixture's own datum, so a foreign
    # engine cannot be compared against it
    for check in (check_golden_fixture, check_classical_fixture):
        with pytest.raises(TypeError):
            check("A2", engine("C2"))


def test_fixture_rows_cover_all_pairs(engine):
    # stored rows plus mirrors must cover every unordered pair of
    # nontrivial basis elements
    for label, expected in (("A2", 15), ("C2", 28)):
        e = engine(label)
        els = [w for w in e.W.elements() if w is not e.W.identity]
        assert expected == len(els) * (len(els) + 1) // 2


def test_comparator_detects_tampering(monkeypatch):
    fixture = copy.deepcopy(load_fixture("C2"))
    fixture["rows"][0]["classical"]["1"] = "1-e(-a2)"
    monkeypatch.setattr(golden, "load_fixture", lambda group: fixture)
    res = check_golden_fixture("C2")
    assert not res.passed
    assert any(m[0] == "1" and m[2] == "classical" for m in res.mismatches)


def test_symmetry_consistency_guards_fixture(monkeypatch):
    # breaking one half of a mirror-symmetric pair is caught before comparison
    fixture = copy.deepcopy(load_fixture("A2"))
    assert fixture["rows"][1]["u"] == "1" and fixture["rows"][1]["v"] == "2"
    fixture["rows"][1]["classical"]["12"] = "2"
    monkeypatch.setattr(golden, "load_fixture", lambda group: fixture)
    with pytest.raises(ValueError, match="symmetry-consistent"):
        check_golden_fixture("A2")


def test_misprint_entry_must_match_row(monkeypatch):
    fixture = copy.deepcopy(load_fixture("A2"))
    fixture["misprints"][0]["printed"] = "e(-a1)"
    monkeypatch.setattr(golden, "load_fixture", lambda group: fixture)
    with pytest.raises(ValueError, match="misprint"):
        check_golden_fixture("A2")


def test_misprint_entry_must_change_the_value(monkeypatch):
    fixture = copy.deepcopy(load_fixture("A2"))
    fixture["misprints"][0]["consistent"] = fixture["misprints"][0]["printed"]
    monkeypatch.setattr(golden, "load_fixture", lambda group: fixture)
    with pytest.raises(ValueError, match="misprint entry does not change the value; remove it"):
        check_golden_fixture("A2")


def test_comparator_reports_a_fixture_node_the_engine_skipped(monkeypatch):
    real = golden.qk_product_degree1

    def skipping_every_node(*args):
        prod = real(*args)
        return QKProduct(prod.u, prod.v, prod.classical, {}, (1, 2))

    monkeypatch.setattr(golden, "qk_product_degree1", skipping_every_node)
    res = check_golden_fixture("C2")
    assert ("1", "1", "q1", "*", "expected terms", "node skipped") in res.mismatches
    assert not res.passed and all(m[3] == "*" for m in res.mismatches)


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


def test_cli_neighborhood_reads_words_from_rank_10(capsys):
    for u in ("10", "s10"):
        code, out, _ = run_cli(capsys, "neighborhood", "X", "--group", "A10", "--u", u, "--k", "1")
        assert code == 0
        assert out.splitlines()[0] == "1 10"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["constant", "--group", "A3", "--u", "٣", "--v", "٣", "--w", "٣٢", "--k", "3"], "٣"),
        (["constant", "--group", "A3", "--u", "1٣", "--v", "1", "--w", "1", "--k", "1"], "1٣"),
        (["table", "--group", "A3", "--parabolic", "٣"], "٣"),
        (["table", "--group", "A3", "--parabolic", "1,+3"], "1,+3"),
        (["table", "--group", "A3", "--parabolic", "1_0"], "1_0"),
        (["neighborhood", "X", "--group", "A3", "--u", "2", "--k", "٢"], "٢"),
        (["neighborhood", "X", "--group", "A3", "--u", "2", "--k", "+1"], "+1"),
        (["neighborhood", "X", "--group", "A3", "--u", "²", "--k", "1"], "²"),
    ],
)
def test_cli_numbers_are_ascii_digits(capsys, argv, named):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses --k itself
        code = exc.code
    assert code == 2
    assert repr(named) in capsys.readouterr().err


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
    code, out, _ = run_cli(capsys, "table", "--group", "A2", "--u", "e", "--v", "e", "--format", "latex")
    assert code == 0
    assert out.splitlines()[1] == "  {\\mathcal O}^{id}\\circ {\\mathcal O}^{id} &\\equiv 1{\\mathcal O}^{id}\\\\"


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


@pytest.mark.parametrize(
    "argv, named",
    [
        (["table", "--group", "A2", "--parabolic", "1", "--u", "2", "--v", "1"], "1 is not"),
        (["table", "--group", "A2", "--parabolic", "1", "--u", "21", "--v", "2"], "21 is not"),
        (["constant", "--group", "A2", "--parabolic", "1", "--u", "2", "--v", "2", "--w", "21", "--k", "2"], "21 is not"),
    ],
)
def test_cli_refuses_words_outside_wp(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert named + " a minimal representative for [1]" in err


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


def test_cli_check_exits_1_on_a_failing_sweep(capsys, monkeypatch):
    from qkline import qklines

    monkeypatch.setattr(qklines, "_fibre_sums", lambda engine, *args: {engine.W.identity: engine.ring_one()})
    code, out, _ = run_cli(capsys, "check", "--suite", "vanishing", "--group", "A2")
    assert code == 1
    assert [json.loads(line)["status"] for line in out.splitlines()] == ["fail", "fail"]


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


@pytest.mark.parametrize(
    "argv, named",
    [
        (["neighborhood", "X", "--group", "A٣", "--u", "2", "--k", "1"], "'A٣'"),
        (["constant", "--group", "a٢", "--u", "1", "--v", "1", "--w", "e", "--k", "1"], "'a٢'"),
    ],
)
def test_cli_type_label_ranks_are_ascii_digits(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err


@pytest.mark.parametrize(
    "text, named",
    [("٢\n2 -1\n-1 2\n", "'٢'"), ("2 9\n2 -1\n-1 2\n", "'2 9'")],
)
def test_cli_cartan_file_reads_ascii_integers(tmp_path, capsys, text, named):
    path = tmp_path / "a2.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "neighborhood", "X", "--group", str(path), "--u", "2", "--k", "1")
    assert code == 2 and out == ""
    assert named in err


def test_cli_refuses_a_directory_as_group(tmp_path, capsys):
    # open() raised IsADirectoryError past the CLI: a traceback and exit 1, the code of a failed check
    code, out, err = run_cli(capsys, "table", "--group", str(tmp_path))
    assert code == 2 and out == ""
    assert "neither a type label nor a readable file" in err


def test_cli_refuses_a_ragged_cartan_file(tmp_path, capsys):
    path = tmp_path / "ragged.txt"
    path.write_text("2\n2\n-1 2\n")
    code, out, err = run_cli(capsys, "table", "--group", str(path))
    assert code == 2 and out == ""
    assert "rank x rank" in err


def test_cli_exits_2_when_memory_runs_out(capsys, monkeypatch):
    # a MemoryError ended the CLI in a traceback with exit 1, the code of a failed check
    from qkline.ktheory import KTEngine

    def exhausted(self, p):
        raise MemoryError

    monkeypatch.setattr(KTEngine, "_build_classes", exhausted)
    code, out, err = run_cli(capsys, "constant", "--group", "A2", "--u", "1", "--v", "1", "--w", "1", "--k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "memory" in err


def test_demo_scripts_run(tmp_path):
    # each demo's stdout is pinned by its sha256 and byte count; a warning fails the demo, as it fails a test
    import hashlib
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).parent.parent
    demos = sorted((root / "demos").glob("0*.py"))
    pinned = json.loads((root / "tests" / "demo_outputs.json").read_text(encoding="utf-8"))
    assert [script.name for script in demos] == sorted(pinned)
    for script in demos:
        proc = subprocess.run([sys.executable, "-W", "error", str(script)], capture_output=True, timeout=120)
        assert proc.returncode == 0, (script.name, proc.stderr[-500:])
        got = {"sha256": hashlib.sha256(proc.stdout).hexdigest(), "bytes": len(proc.stdout)}
        assert got == pinned[script.name], script.name


def test_package_exports_resolve():
    import qkline

    assert [name for name in qkline.__all__ if not hasattr(qkline, name)] == []


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


def test_cli_table_json_prints_the_normalised_parabolic(capsys):
    assert cli.main(["table", "--group", "A2", "--parabolic", "1,1", "--format", "json"]) == 0
    repeated = capsys.readouterr().out
    assert json.loads(repeated)["parabolic"] == [1]
    assert cli.main(["table", "--group", "A2", "--parabolic", "1", "--format", "json"]) == 0
    assert capsys.readouterr().out == repeated


def test_cli_latex_table_braces_indices_from_ten_on(tmp_path, capsys):
    # the class word was split into characters (s_1s_0 for s_10), and alpha_10 and q_10 went unbraced
    path = tmp_path / "a1x10.txt"
    path.write_text("10\n" + "".join(" ".join("2" if j == i else "0" for j in range(10)) + "\n" for i in range(10)))
    code, out, _ = run_cli(
        capsys, "table", "--group", str(path), "--parabolic", "1,2,3,4,5,6,7,8,9", "--format", "latex"
    )
    assert code == 0
    assert out.splitlines()[1] == (
        "  {\\mathcal O}^{s_{10}}\\circ {\\mathcal O}^{s_{10}} &\\equiv "
        "(1 - e^{-\\alpha_{10}}){\\mathcal O}^{s_{10}}+e^{-\\alpha_{10}}q_{10}\\\\"
    )
