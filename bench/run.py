"""engeldim benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload dim-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from src/.  One
client sends requests through engeldim.cli.main in a closed loop, in a
fresh interpreter per run (bench/worker.py), and every output is checked
against the independent oracles in bench/oracle.py.

--trace 0 reports the end-to-end metrics: setup_s (spawn to imported
engeldim.cli, median of several spawns), wall_s (median time of one pass
over the workload's requests), req_p50_s and req_p90_s (request latency
over every pass), peak_rss_mb (the worker's peak RSS, from wait4).  Times
are calibrated seconds (bench/calibrate.py): each is scaled by the speed
of a fixed reference computation timed next to it, which removes most of
the shared machine's drift; the raw seconds are printed alongside.
--trace 1 spends half the time on an untraced worker and half on a traced
one (bench/tracing.py) and reports the per-layer metrics, including the
tracing overhead.  Everything runs in one thread without queues, so no
layer waits on another and there is no wait-time metric.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The lines before it give each metric with its sample count, the
failed share (failed_frac, which is 0 when the program is right and so is
not a declared metric), the oracle self-test and the environment.

bench/sweep.py repeats runs over seeds and reports the quartile spread;
bench/baseline.json holds such sweeps of the baseline commit, and
bench/layer_map.json says which end-to-end metric each layer metric
should move, on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 11
# self-test corrupts only outputs the oracle parses in full and this small
SELFTEST_MAX_BYTES = 256 * 1024
# workers still running this long after the run started are killed, so a
# run ends within the 180 s a run may take
RUN_LIMIT_S = 160.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.set_int_max_str_digits(0)  # the oracle parses exact values of any size
    if not (root / "src" / "engeldim" / "cli.py").is_file():
        print("bench: src/engeldim/cli.py not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it holds other files


def _run(args, root: Path, workdir: Path) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    requests = workloads.generate(args.workload, args.seed)
    setup = None if args.trace else _setup_times(env)
    budget = args.seconds / 2 if args.trace else args.seconds
    plain, rusage = _worker(args, env, workdir / "plain", budget, deadline)
    verdicts = [oracle.check(req, code, _read(workdir / "plain" / f"{i}.out"), err)
                for i, (req, code, err) in enumerate(
                    zip(requests, plain["codes"][0], plain["stderr"]))]
    flagged, tried = _selftest(args, requests, verdicts, plain, workdir / "plain")
    failed = _failures(verdicts, plain, plain["digests"][0])
    attempted = len(requests) * len(plain["latencies"])
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"requests/pass {len(requests)}  passes {len(plain['latencies'])}",
             "env " + json.dumps(_environment(root, plain["env"], args.seed))]
    if args.trace:
        traced, _ = _worker(args, env, workdir / "traced", budget, deadline,
                            trace=True)
        failed += _failures(verdicts, traced, plain["digests"][0])
        attempted += len(requests) * len(traced["latencies"])
        emitted = sum(v.info.get("intervals", 0) for v in verdicts)
        metrics = _per_layer(plain, traced, workdir / "traced", emitted)
        kind = "per_layer"
        lines.append(f"per pass; {len(traced['latencies'])} traced passes")
    else:
        metrics, notes = _end_to_end(plain, setup, rusage)
        kind = "end_to_end"
        lines += notes
    units = {m["name"]: m["unit"] for m in _declared(kind)}
    if args.trace:
        lines += [f"{name:34s} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    lines.append(f"failed_frac  {failed / attempted:.4f}   {failed} of {attempted} "
                 "requests: wrong exit code, oracle mismatch or differing repeat")
    lines.append(f"self-test    {flagged} of {tried} one-digit corruptions flagged")
    lines += [f"FAILED request {i}: {' '.join(requests[i].argv)[:160]}: {v.reason}"
              for i, v in enumerate(verdicts) if not v.ok]
    result = {
        "correct": failed == 0 and tried > 0 and flagged == tried,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _end_to_end(plain: dict, setup: list[float], rusage) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and a line per metric with its sample count."""
    walls = [sum(p) for p in _calibrated(plain)]
    latencies = sorted(x for p in _calibrated(plain) for x in p)
    raw = sorted(x for p in plain["latencies"] for x in p)
    n = len(latencies)
    rank90 = math.ceil(0.9 * n)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "req_p50_s": statistics.median(latencies),
        "req_p90_s": latencies[rank90 - 1],
        "peak_rss_mb": rusage.ru_maxrss / 1024,
    }
    raw_wall = statistics.median(sum(p) for p in plain["latencies"])
    return metrics, [
        "times in calibrated seconds (bench/calibrate.py); raw seconds in brackets",
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} spawns",
        f"wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)} passes "
        f"(raw {raw_wall:.4f}): " + " ".join(f"{w:.3f}" for w in walls),
        f"req_p50_s    {metrics['req_p50_s']:.5f} s   n={n} "
        f"(raw {statistics.median(raw):.5f})",
        f"req_p90_s    {metrics['req_p90_s']:.5f} s   n={n}, {n - rank90} beyond "
        f"(raw {raw[rank90 - 1]:.5f})",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   worker maxrss from wait4",
    ]


def _per_layer(plain: dict, traced: dict, tracedir: Path, emitted: int) -> dict:
    factors = [f for refs in traced["refs"] for f in calibrate.factors(refs)]
    metrics = tracing.layer_metrics(str(tracedir / "trace.spans"),
                                    len(traced["latencies"]), emitted, factors)
    traced_wall = statistics.median(sum(p) for p in _calibrated(traced))
    plain_wall = statistics.median(sum(p) for p in _calibrated(plain))
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    return metrics


def _declared(kind: str) -> list[dict]:
    with open(BENCH.parent / "BENCHMARK.json") as handle:
        return json.load(handle)[kind]


def _read(path: Path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _calibrated(result: dict) -> list[list[float]]:
    """Per-pass request latencies in calibrated seconds."""
    return [[t * f for t, f in zip(lats, calibrate.factors(refs))]
            for lats, refs in zip(result["latencies"], result["refs"])]


def _setup_times(env: dict) -> list[float]:
    """Calibrated seconds from spawning an interpreter until engeldim.cli
    is imported.

    The first spawn is not kept: it compiles the package's bytecode,
    which a user pays once per install, not per invocation.
    """
    code = ("import sys, engeldim.cli; sys.stdout.write('ready'); "
            "sys.stdout.flush()")
    times, refs = [], []
    for _ in range(SETUP_SPAWNS + 1):
        refs.append(calibrate.time_reference())
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE)
        ready = proc.stdout.read(5)
        times.append(time.perf_counter() - started)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or ready != b"ready":
            raise RuntimeError("interpreter failed to import engeldim.cli")
    refs.append(calibrate.time_reference())
    return [t * f for t, f in zip(times, calibrate.factors(refs))][1:]


def _worker(args, env: dict, workdir: Path, budget: float, deadline: float,
            trace: bool = False):
    """Run bench/worker.py to completion; returns its result and rusage."""
    workdir.mkdir()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", str(budget),
           "--workdir", str(workdir)] + (["--trace"] if trace else [])
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    # reap the child ourselves: wait4 gives this pid's own peak RSS, where
    # RUSAGE_CHILDREN would be a maximum over every child so far
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError("worker overran the run's time limit and was killed")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(workdir / "result.json") as handle:
        return json.load(handle), rusage


def _failures(verdicts, result: dict, reference: list[str]) -> int:
    """Requests, over every pass, that failed the oracle or differed from
    the checked pass-0 output (exit code or stdout digest)."""
    failed = 0
    for codes, digests in zip(result["codes"], result["digests"]):
        for i, verdict in enumerate(verdicts):
            same = codes[i] == result["codes"][0][i] and digests[i] == reference[i]
            failed += not (verdict.ok and same)
    return failed


def _selftest(args, requests, verdicts, result: dict, outdir: Path) -> tuple[int, int]:
    """Corrupt one digit of the smallest fully checked output of each kind
    and count how many of those corruptions the oracle flags."""
    rng = random.Random(f"selftest:{args.workload}:{args.seed}")
    smallest = {}
    for i, (req, verdict) in enumerate(zip(requests, verdicts)):
        size = result["out_bytes"][i]
        if verdict.ok and verdict.full and 0 < size <= SELFTEST_MAX_BYTES:
            if req.kind not in smallest or size < result["out_bytes"][smallest[req.kind]]:
                smallest[req.kind] = i
    flagged = 0
    for i in smallest.values():
        bad = oracle.corrupt(_read(outdir / f"{i}.out"), rng)
        flagged += not oracle.check(requests[i], result["codes"][0][i], bad,
                                    result["stderr"][i]).ok
    return flagged, len(smallest)


def _environment(root: Path, worker_env: dict, seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        **worker_env,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine_note": "shared sandbox: other tenants' load adds noise",
        "commit": _git_commit(root),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
