"""Byte-identical CLI output: the benchmark workloads' stdout and exit code
must match the hashes recorded in perfbench/references.json, so a change to
any computed coefficient fails here as well as in the benchmark run."""

import hashlib
import json
import pathlib

import pytest

from qkline import cli

REFERENCES = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "references.json").read_text()
)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_stdout_matches_reference(name, capsys):
    ref = REFERENCES[name]
    code = cli.main(list(ref["argv"]))
    out = capsys.readouterr().out.encode("utf-8")
    assert code == ref["exit_code"]
    assert len(out) == ref["stdout_bytes"]
    assert hashlib.sha256(out).hexdigest() == ref["sha256"]
