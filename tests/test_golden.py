"""Byte-identity of the CLI against stored outputs.

Each case of golden/cases.json holds an argument list, the exit code and
the stderr text; golden/<name>.out holds the stdout.  Together they cover
each of the seven commands, and level --sample, in each of the three
formats (a test checks that none is missing), a failing check, a
violation outside check, a table family read past its end, a violation
found only at the level after the last row, and a refused --limit.
Four pin cover-fit refusals, each with an empty stdout: a middle depth
refused at --limit 1000, depth 2000 refused at the default limit with a
count of at least 10^602361, a table read past its end before its
refusal, and a depth refused from unsorted --depths 3,2,1.  Ten more
pin how an argument list is read: a flag with no value at the end,
"--x -1/3", "--depth -5", "--x=1/3", a repeated --x, an unknown
flag, a stray token, a bare "--" at the end and before the flags, and an
unknown command.

The stdout of the cases in golden/digests.json runs to megabytes, with
exact values of up to about 80,000 bits, so only its length and sha256 are
stored, next to the exit code and the stderr text.  They cover quantities
in all three formats, dim as csv and json, an integer, a rational and a
power-geometric family, and a rational pair table whose exact columns are
not multiples or divisors of the row before, also as json, with a null
lower_n, and the integral table s_k = 2^k + 1, t_k = 2 (quantities as
csv, dim as json), whose bound denominators are neither multiples nor
divisors of the row before.  dim as json on the rational family (n_max
150) and quantities as json on it (depth 300) pin exact cells of rational
terms.  So does quantities as csv on a pair table that is integral to
level 3 and rational after it, whose s_1...s_n = A/B shares factors with
the short factors x and y of a bound x*B/(y*A): gcd(x, A) > 1 on most
rows and gcd(y, B) > 1 on two.  A level --sample of 15 words at level 40
of (4^n, 2^n) as json pins long sampled endpoints.
They also cover full levels: 8,192 intervals of (2^n, 2) in all three
formats and its 65,536 intervals of level 16 as text, 1,100 intervals of
the rational-ratio family s_n = 3(10/3)^n, t_n = 2(7/3)^n in all three
formats, a pair table with mixed branching as text and json, which state
the minimum gap, and 1,260 intervals of a rational pair table with 2 to 7
digits per window as csv.  Three pin cover-fit on many depths: (2^n, 2)
at depths 1..60 then 7, 60, 33, dense, unsorted and repeated, as json;
the rational family at depths 40, 5, 25, 5, 12 under a limit of 10^320,
its count at depth 40 of 314 digits, as csv; and a seeded rational pair
table of 41 entries at ascending depths 1 to 40 as text.

The same cases and digests are also replayed under every python3.10 to
python3.13 on PATH, or else installed by pyenv, since the output must not
depend on the interpreter.  One child process per interpreter runs
engeldim.cli.main on every case, with stdout and stderr captured as bytes,
and one `python -m engeldim` run per interpreter covers the entry point.
"""

import base64
import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from engeldim.cli import _COMMAND_OPTIONS, _OUTPUTS, main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
CASES = json.loads((GOLDEN / "cases.json").read_bytes())
DIGESTS = json.loads((GOLDEN / "digests.json").read_bytes())


def _path(argv):
    """(command, format) of an argument list; level --sample is its own."""
    command = argv[0] + (" --sample" if "--sample" in argv else "")
    output = argv[argv.index("--output") + 1] if "--output" in argv else "text"
    return command, output


def test_every_command_and_format_has_a_golden():
    commands = [*_COMMAND_OPTIONS, "level --sample"]
    # a case pins a format only if it writes something in it
    pinned = {_path(case["argv"]) for case in CASES
              if (GOLDEN / f"{case['name']}.out").stat().st_size}
    pinned |= {_path(case["argv"]) for case in DIGESTS if case["stdout_bytes"]}
    missing = [(command, output) for command in commands for output in _OUTPUTS
               if (command, output) not in pinned]
    assert missing == []


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


def _runs(exe) -> bool:
    return exe is not None and subprocess.run(
        [exe, "-c", "pass"], capture_output=True, timeout=60).returncode == 0


def _interpreter(python):
    """A runnable python3.<minor>: the one on PATH, else one that pyenv
    installed, as pyenv's shim on PATH runs only the versions it selects;
    None when neither runs."""
    exe = shutil.which(python)
    if _runs(exe):
        return exe
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    minor = python.removeprefix("python")
    for candidate in sorted(root.glob(f"versions/{minor}.*/bin/{python}")):
        if _runs(str(candidate)):
            return str(candidate)
    return None


# the replay child: reads [argv, digested] pairs on stdin, runs each argv
# through cli.main with stdout and stderr on byte buffers encoded as its
# own, and writes one [exit code, stdout, stderr] per case as JSON, stdout
# as [length, sha256] when digested and as base64 otherwise, stderr as
# base64.  An exception leaves exit code 1 and its traceback, as
# `python -m engeldim` would.
REPLAY = """
import base64, hashlib, io, json, sys, traceback
from engeldim.cli import main

def captured(real):
    return io.TextIOWrapper(io.BytesIO(), encoding=real.encoding, errors=real.errors)

results = []
for argv, digested in json.load(sys.stdin):
    sys.stdout, sys.stderr = captured(sys.__stdout__), captured(sys.__stderr__)
    try:
        code = main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    out, err = sys.stdout.buffer.getvalue(), sys.stderr.buffer.getvalue()
    out = ([len(out), hashlib.sha256(out).hexdigest()] if digested
           else base64.b64encode(out).decode())
    results.append([code, out, base64.b64encode(err).decode()])
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
json.dump(results, sys.stdout)
"""


def _expected(case):
    """(exit code, stdout or its (length, sha256), stderr) of a case."""
    if "stdout_sha256" in case:
        out = (case["stdout_bytes"], case["stdout_sha256"])
    else:
        out = (GOLDEN / f"{case['name']}.out").read_bytes()
    return case["exit_code"], out, case["stderr"]


@pytest.mark.parametrize("python", [f"python3.{minor}" for minor in range(10, 14)])
def test_every_interpreter_replays_the_goldens(python):
    exe = _interpreter(python)
    if exe is None:
        pytest.skip(f"{python} does not run here")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cases = CASES + DIGESTS
    request = [[case["argv"], "stdout_sha256" in case] for case in cases]
    proc = subprocess.run([exe, "-c", REPLAY], input=json.dumps(request).encode(),
                          env=env, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    mismatched = []
    for case, (code, out, err) in zip(cases, json.loads(proc.stdout), strict=True):
        out = tuple(out) if "stdout_sha256" in case else base64.b64decode(out)
        if (code, out, base64.b64decode(err).decode()) != _expected(case):
            mismatched.append(case["name"])
    assert mismatched == []

    # the entry point, on a case that writes stdout and exits non-zero
    case = next(case for case in CASES if case["name"] == "check-csv-fail")
    proc = subprocess.run([exe, "-m", "engeldim", *case["argv"]], env=env,
                          capture_output=True, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == _expected(case)
