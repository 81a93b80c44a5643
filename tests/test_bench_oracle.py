"""The bench's independent oracles on one fixed seed of each workload.

Every request that bench/workloads.py generates for the seed runs through
engeldim.cli.main in this process, with stdout and stderr captured, and
bench/oracle.py must accept each output.  The bench's negative self-test
runs too: one digit of the smallest fully checked output of each request
kind is replaced by oracle.corrupt, and oracle.check must reject every such
output, so an oracle that accepts anything fails here.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from engeldim.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def workload_run(request):
    """(workload, [(request, exit code, stdout, stderr, verdict)]) for the
    seed, each output checked once."""
    runs = []
    for req in workloads.generate(request.param, SEED):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(req.argv))
        result = (code, out.getvalue(), err.getvalue())
        runs.append((req, *result, oracle.check(req, *result)))
    return request.param, runs


def test_oracle_accepts_every_output_of_the_seed(workload_run):
    _, runs = workload_run
    failed = [(" ".join(req.argv), verdict.reason)
              for req, *_, verdict in runs if not verdict.ok]
    assert failed == []


def test_oracle_flags_a_corrupted_digit_in_each_request_kind(workload_run):
    workload, runs = workload_run
    smallest = {}
    for req, code, out, err, verdict in runs:
        if out and verdict.ok and verdict.full:
            if req.kind not in smallest or len(out) < len(smallest[req.kind][2]):
                smallest[req.kind] = (req, code, out, err)
    assert smallest
    rng = random.Random(f"selftest:{workload}:{SEED}")
    accepted = [kind for kind, (req, code, out, err) in sorted(smallest.items())
                if oracle.check(req, code, oracle.corrupt(out, rng), err).ok]
    assert accepted == []
