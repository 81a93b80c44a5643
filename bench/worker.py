"""One measured run of a workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
generates the pass's requests from the seed, then sends them one at a time
through engeldim.cli.main in a closed loop: the next request starts only
after the previous one returned and its stdout file was closed.  The
calibration reference (calibrate.py) is timed before each request and
after the last.  Passes repeat until the time budget is spent.  Pass 0 keeps every output for the
oracle; later passes keep only a digest, which must match pass 0's.

    python3 bench/worker.py --workload W --seed N --budget S --workdir DIR
                            [--trace]

Writes DIR/result.json and, when traced, DIR/trace.spans.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
import traceback

import calibrate
import workloads


def _digest(path: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import engeldim.cli as cli

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    requests = workloads.generate(args.workload, args.seed)
    scratch = os.path.join(args.workdir, "scratch.out")
    latencies, refs, codes, digests, errs, sizes = [], [], [], [], [], []
    started = time.perf_counter()
    real_stdout, real_stderr = sys.stdout, sys.stderr
    while True:
        p = len(latencies)
        pass_lat, pass_refs, pass_codes, pass_digests = [], [], [], []
        for i, req in enumerate(requests):
            path = os.path.join(args.workdir, f"{i}.out") if p == 0 else scratch
            err = io.StringIO()
            pass_refs.append(calibrate.time_reference())
            if tracer is not None:
                tracer.begin_request(p * len(requests) + i)
            out = open(path, "w", encoding="utf-8")
            sys.stdout, sys.stderr = out, err
            t0 = time.perf_counter()
            try:
                code = cli.main(list(req.argv))
            except Exception:
                code = -1
                err.write(traceback.format_exc())
            finally:
                out.close()
                t1 = time.perf_counter()
                sys.stdout, sys.stderr = real_stdout, real_stderr
            pass_lat.append(t1 - t0)
            pass_codes.append(code)
            pass_digests.append(_digest(path))
            if p == 0:
                errs.append(err.getvalue())
                sizes.append(os.path.getsize(path))
        pass_refs.append(calibrate.time_reference())
        latencies.append(pass_lat)
        refs.append(pass_refs)
        codes.append(pass_codes)
        digests.append(pass_digests)
        if time.perf_counter() - started >= args.budget:
            break

    result = {
        "latencies": latencies,
        "refs": refs,
        "codes": codes,
        "digests": digests,
        "stderr": errs,
        "out_bytes": sizes,
        "elapsed": time.perf_counter() - started,
        "env": _env(),
    }
    if tracer is not None:
        tracer.finish()
        tracer.save(os.path.join(args.workdir, "trace.spans"),
                    {"passes": len(latencies), "out_bytes": sum(sizes) * len(latencies)})
    with open(os.path.join(args.workdir, "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


def _env() -> dict:
    """What the measured process ran on; mpmath only if the program loaded it."""
    mpmath = sys.modules.get("mpmath")
    env = {
        "python": sys.version.split()[0],
        "mpmath": getattr(mpmath, "__version__", None),
        "mpmath_backend": None,
    }
    if mpmath is not None:
        env["mpmath_backend"] = mpmath.libmp.BACKEND
    return env


if __name__ == "__main__":
    sys.exit(main())
