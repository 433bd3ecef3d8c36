"""Byte-identical CLI output: the benchmark workloads' stdout and exit code
must match the hashes recorded in perfbench/references.json, so a change to
any computed coefficient fails here as well as in the benchmark run.  The
quotient tables in quotient_tables.json were recorded the same way, before
the quotient solve moved from the points of W to the points of W^P, and the
subcommand outputs in cli_outputs.json before the W^P checks moved into the
hypothesis gates (the peterson sweep on A3/{2} before kgw3 became a pairing
of memoised structure constants, the one on A3/{3} before every
membership check became WeylGroup.require, and the one on A3/{1} before the
sweep paired each (u_k, v_k) row once).  On A3/{3} at k = 1 and on A3/{1}
at k = 3, P_k = P is not empty, so the sweep compares the pairing row on
G/P_k with the one on G/B: unlike the other pinned peterson sweeps, where
P_k is empty and nothing is computed, these two can fail."""

import hashlib
import json
import pathlib

import pytest

from qkline import cli

HERE = pathlib.Path(__file__).resolve().parent
REFERENCES = json.loads((HERE.parent / "perfbench" / "references.json").read_text())
QUOTIENT_TABLES = json.loads((HERE / "quotient_tables.json").read_text())
CLI_OUTPUTS = json.loads((HERE / "cli_outputs.json").read_text())


def _check(ref, capsys):
    code = cli.main(list(ref["argv"]))
    out = capsys.readouterr().out.encode("utf-8")
    assert code == ref["exit_code"]
    assert len(out) == ref["stdout_bytes"]
    assert hashlib.sha256(out).hexdigest() == ref["sha256"]


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_stdout_matches_reference(name, capsys):
    _check(REFERENCES[name], capsys)


@pytest.mark.parametrize("name", sorted(QUOTIENT_TABLES))
def test_quotient_table_matches_reference(name, capsys):
    _check(QUOTIENT_TABLES[name], capsys)


@pytest.mark.parametrize("name", sorted(CLI_OUTPUTS))
def test_cli_output_matches_reference(name, capsys):
    _check(CLI_OUTPUTS[name], capsys)
