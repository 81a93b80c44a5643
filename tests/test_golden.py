"""Byte-identity of the CLI against stored outputs.

Each case of golden/cases.json holds an argument list, the exit code and
the stderr text; golden/<name>.out holds the stdout.  Together they cover
all seven commands, all three formats, a failing check, a violation
outside check, a table family read past its end and a refused --limit.

The stdout of the cases in golden/digests.json runs to megabytes, with
exact values of up to about 80,000 bits, so only its length and sha256 are
stored, next to the exit code and the stderr text.  They cover quantities
in all three formats, dim as csv and json, an integer, a rational and a
power-geometric family, and a rational pair table whose exact columns are
not multiples or divisors of the row before.
"""

import hashlib
import json
from pathlib import Path

import pytest

from engeldim.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_bytes())
DIGESTS = json.loads((GOLDEN / "digests.json").read_bytes())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_matches_golden_output(case, capsys):
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit_code"]
    assert captured.out == (GOLDEN / f"{case['name']}.out").read_bytes().decode()
    assert captured.err == case["stderr"]


@pytest.mark.parametrize("case", DIGESTS, ids=[case["name"] for case in DIGESTS])
def test_cli_matches_golden_digest(case, capsys):
    code = main(case["argv"])
    captured = capsys.readouterr()
    out = captured.out.encode()
    assert code == case["exit_code"]
    assert len(out) == case["stdout_bytes"]
    assert hashlib.sha256(out).hexdigest() == case["stdout_sha256"]
    assert captured.err == case["stderr"]
