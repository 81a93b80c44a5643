"""The bench trajectory kept at the root of the repository: every
BENCH_<n>.json parses and gives the change side's median wall_s of each
workload, read from whichever of its two layouts the file uses.  The files
are only read, so none is rewritten and nothing under bench/ is touched.
"""

import hashlib
import json
import math
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dim-sweep", "geometry", "exact-export")


def bench_files() -> list[Path]:
    """The BENCH_<n>.json files in the order of n."""
    files = ROOT.glob("BENCH_*.json")
    return sorted((p for p in files if re.fullmatch(r"BENCH_\d+\.json", p.name)),
                  key=lambda p: int(p.stem.split("_")[1]))


def change_median(workload: dict, metric: str) -> float:
    """The change side's median of one metric of one workload entry.

    The older layout holds workloads.<w>.<metric>.change as a summary with
    its median; the newer one holds workloads.<w>.metrics.<metric>.change
    as the list of runs."""
    if "metrics" in workload:
        return statistics.median(workload["metrics"][metric]["change"])
    return workload[metric]["change"]["median"]


def digests(paths: list[Path]) -> dict[str, str]:
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_every_bench_file_gives_the_change_wall_s_of_each_workload():
    files = bench_files()
    assert files
    watched = files + sorted((ROOT / "bench").rglob("*"))
    before = {p: p.stat().st_mtime_ns for p in watched}, digests(
        [p for p in watched if p.is_file()])
    medians = {}
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        for name in WORKLOADS:
            value = change_median(doc["workloads"][name], "wall_s")
            assert isinstance(value, float) and math.isfinite(value) and value > 0, (
                path.name, name, value)
            medians[path.name, name] = value
    assert len(medians) == len(files) * len(WORKLOADS)
    after = {p: p.stat().st_mtime_ns for p in watched}, digests(
        [p for p in watched if p.is_file()])
    assert after == before
    assert sorted((ROOT / "bench").rglob("*")) == sorted(watched[len(files):])


def test_both_layouts_are_read():
    summary = {"wall_s": {"change": {"median": 0.4, "q1": 0.3, "q3": 0.5}}}
    runs = {"metrics": {"wall_s": {"change": [0.5, 0.3, 0.4]}}}
    assert change_median(summary, "wall_s") == change_median(runs, "wall_s") == 0.4
