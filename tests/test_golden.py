"""Byte-identity of the CLI against stored outputs.

Each case of golden/cases.json holds an argument list, the exit code and
the stderr text; golden/<name>.out holds the stdout.  Together they cover
all seven commands, all three formats, a failing check, a violation
outside check, a table family read past its end and a refused --limit.
"""

import json
from pathlib import Path

import pytest

from engeldim.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_bytes())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_matches_golden_output(case, capsys):
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit_code"]
    assert captured.out == (GOLDEN / f"{case['name']}.out").read_bytes().decode()
    assert captured.err == case["stderr"]
