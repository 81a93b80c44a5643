"""Span tracing of the engeldim modules from outside the package.

install() wraps the public functions of cli, dimension, ratmath,
construction and engel.  Each wrapper is bound wherever the original is
looked up: every engeldim module global that holds the function object is
replaced, so `dimension.log_rational`, `construction.reconstruct` and the
names cli imported are all traced, not only the defining module's copy.
SequenceFamily methods are replaced on the class, so internal `self.` calls
(min_gap calling level_intervals) are traced too.  Generator functions are
timed per next().

Spans (name, start, end, parent, request, argument, failed) stay in
parallel arrays in memory and are written once, at exit, with save().
layer_metrics() turns a saved trace into the per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "dimension", "ratmath", "construction", "engel")

# construction methods by the metric group their time is reported under
CONSTRUCTION_GROUPS = {
    "seq": ("s", "t"),
    "check": ("check_conditions", "_require_conditions"),
    "enum": ("iter_words", "sample_words", "basic_interval", "_interval_from_word",
             "level_intervals", "min_gap"),
    "bounds": ("digit_range", "branch_count", "word_count", "max_interval_length",
               "diameter_bound", "gap_bound", "iter_level_quantities",
               "level_quantities"),
}
WRAPPED = {
    "cli": ("main", "parse_config", "run"),
    "dimension": ("estimate_dimension", "empirical_cover_fit", "formula_quotient",
                  "upper_bound_quotient", "lower_bound_quotient"),
    "ratmath": ("log_rational", "parse_rational", "exact_kth_root"),
    "engel": ("is_admissible", "reconstruct", "engel_digits", "engel_map",
              "cylinder_interval", "cylinder_length"),
}
EXPAND = ("engel.engel_digits", "engel.cylinder_interval", "engel.cylinder_length")


def _bits(value) -> float:
    return float(value.numerator.bit_length() + value.denominator.bit_length())


# a numeric argument recorded with some spans
ARGUMENTS = {
    "ratmath.log_rational": lambda value: _bits(value),
    "dimension.estimate_dimension": lambda family, n_max, *rest, **kw: float(n_max),
}


class Tracer:
    """Open-span stack plus the span arrays of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.arg = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.current_request = -1
        self.counts = {"seq_distinct": 0, "intervals_built": 0}
        self._seen: set = set()

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, nid: int, arg: float = 0.0) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.current_request)
        self.arg.append(arg)
        self.failed.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        if failed:
            self.failed[idx] = 1

    def begin_request(self, index: int) -> None:
        self.current_request = index
        self.counts["seq_distinct"] += len(self._seen)
        self._seen.clear()

    def finish(self) -> None:
        self.begin_request(-1)

    def save(self, path: str, extra: dict) -> None:
        """Write every span once: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "counts": self.counts, **extra}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in self._columns():
                column.tofile(handle)

    def _columns(self):
        return (self.name, self.start, self.end, self.parent, self.request,
                self.arg, self.failed)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        argument = ARGUMENTS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return _TimedIterator(tracer, nid, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid, argument(*args, **kwargs) if argument else 0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            return result
        return traced

    def wrap_sequence(self, fn, name: str):
        # s and t also record which (family, sequence, index) they served
        traced = self.wrap(fn, "construction." + name)
        seen = self._seen

        @functools.wraps(fn)
        def counted(family, n):
            seen.add((id(family), name, n))
            return traced(family, n)
        return counted


class _TimedIterator:
    """Generator proxy that opens one span per next()."""

    def __init__(self, tracer: Tracer, nid: int, gen):
        self.tracer, self.nid, self.gen = tracer, nid, gen

    def __iter__(self):
        return self

    def __next__(self):
        idx = self.tracer.open(self.nid)
        try:
            item = next(self.gen)
        except StopIteration:
            self.tracer.close(idx)
            raise
        except BaseException:
            self.tracer.close(idx, failed=True)
            raise
        self.tracer.close(idx)
        return item


def install(tracer: Tracer) -> None:
    """Wrap the package in place; call before the first request."""
    import engeldim.cli  # noqa: F401  (loads every engeldim module)
    from engeldim import construction, engel

    modules = [m for key, m in sys.modules.items()
               if key == "engeldim" or key.startswith("engeldim.")]
    for layer, names in WRAPPED.items():
        defining = sys.modules[f"engeldim.{layer}"]
        for attr in names:
            original = getattr(defining, attr, None)
            if original is None:
                continue
            wrapped = tracer.wrap(original, f"{layer}.{attr}")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    family_cls = construction.SequenceFamily
    for methods in CONSTRUCTION_GROUPS.values():
        for attr in methods:
            raw = family_cls.__dict__.get(attr)
            if raw is None:
                continue
            if attr in ("s", "t"):
                setattr(family_cls, attr, tracer.wrap_sequence(raw, attr))
            elif isinstance(raw, staticmethod):
                setattr(family_cls, attr,
                        staticmethod(tracer.wrap(raw.__func__, f"construction.{attr}")))
            else:
                setattr(family_cls, attr, tracer.wrap(raw, f"construction.{attr}"))

    # intervals built inside the construction layer, counted at creation
    interval_cls = engel.RatInterval
    post_init = interval_cls.__post_init__
    construction_ids = {i for i, n in enumerate(tracer.names)
                        if n.startswith("construction.")}
    counts, stack, name = tracer.counts, tracer.stack, tracer.name

    def counting_post_init(self):
        if stack and name[stack[-1]] in construction_ids:
            counts["intervals_built"] += 1
        post_init(self)

    interval_cls.__post_init__ = counting_post_init


# -- analysis ----------------------------------------------------------------


def load(path: str):
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = []
        for code in ("i", "d", "d", "i", "i", "d", "b"):
            column = array(code)
            column.fromfile(handle, count)
            columns.append(column)
    return header, columns


def _group_of(name: str) -> str:
    layer, _, attr = name.partition(".")
    if layer == "construction":
        for group, methods in CONSTRUCTION_GROUPS.items():
            if attr in methods:
                return f"construction.{group}"
    if name == "ratmath.log_rational":
        return "ratmath.log"
    if name == "engel.reconstruct":
        return "engel.reconstruct"
    if name in EXPAND:
        return "engel.expand"
    return name


def layer_metrics(path: str, passes: int, emitted: int,
                  factors: list[float]) -> dict[str, float]:
    """Per-layer numbers per pass from a saved trace.

    Span durations are scaled by their request's calibration factor, so
    they are in the same calibrated seconds as the end-to-end times.

    "Time in" a group sums the spans of that group that have no enclosing
    span of the same group, so recursion and self-calls are not counted
    twice; self time is a span's duration minus the durations of its
    direct children, which in one thread cover disjoint parts of it.
    """
    header, (name, start, end, parent, request, arg, failed) = load(path)
    names = header["names"]
    groups = sorted({_group_of(n) for n in names})
    group_bit = {g: 1 << i for i, g in enumerate(groups)}
    name_group = [_group_of(n) for n in names]
    name_layer = [n.partition(".")[0] for n in names]

    total = {}          # inclusive time of outermost spans, by group
    calls = {}          # span count, by function name
    self_fn = {}        # self time, by function name
    self_time = dict.fromkeys(LAYERS, 0.0)
    spans = range(len(start))
    scale = [factors[request[i]] for i in spans]
    dur = [(end[i] - start[i]) * scale[i] for i in spans]
    child_time = [0.0] * len(start)
    enclosing = [0] * len(start)  # bitmask of groups open above a span
    write_s = args_sum = log_bits = 0.0
    errors = dimension_calls = 0
    for i in spans:
        p = parent[i]
        if p >= 0:
            child_time[p] += dur[i]
            enclosing[i] = enclosing[p] | group_bit[name_group[name[p]]]
    for i in spans:
        fn = names[name[i]]
        group = name_group[name[i]]
        layer = name_layer[name[i]]
        p = parent[i]
        entered = p < 0 or name_layer[name[p]] != layer  # called from outside
        calls[fn] = calls.get(fn, 0) + 1
        if not enclosing[i] & group_bit[group]:
            total[group] = total.get(group, 0.0) + dur[i]
        own = dur[i] - child_time[i]
        self_fn[fn] = self_fn.get(fn, 0.0) + own
        self_time[layer] += own
        if fn == "cli.run" and p >= 0:
            write_s += (end[p] - end[i]) * scale[i]
        elif fn == "dimension.estimate_dimension":
            args_sum += arg[i]
        elif fn == "ratmath.log_rational":
            log_bits += arg[i]
        dimension_calls += layer == "dimension" and entered
        errors += bool(failed[i]) and layer == "construction" and entered

    def count(*fns):
        return sum(calls.get(f, 0) for f in fns)

    seq_evals = count("construction.s", "construction.t")
    built = header["counts"]["intervals_built"]
    per_pass = {
        "cli.parse_s": total.get("cli.parse_config", 0.0),
        "cli.render_s": self_fn.get("cli.run", 0.0),
        "cli.write_s": write_s,
        "cli.out_bytes": header["out_bytes"],
        "cli.self_s": self_time["cli"],
        "dimension.calls": dimension_calls,
        "dimension.levels": args_sum,
        "dimension.self_s": self_time["dimension"],
        "ratmath.log_calls": count("ratmath.log_rational"),
        "ratmath.log_in_bits": log_bits,
        "ratmath.log_s": total.get("ratmath.log", 0.0),
        "ratmath.self_s": self_time["ratmath"],
        "construction.seq_evals": seq_evals,
        "construction.seq_s": total.get("construction.seq", 0.0),
        "construction.check_s": total.get("construction.check", 0.0),
        "construction.enum_s": total.get("construction.enum", 0.0),
        "construction.intervals_built": built,
        "construction.bounds_s": total.get("construction.bounds", 0.0),
        "construction.errors": errors,
        "construction.self_s": self_time["construction"],
        "engel.reconstruct_calls": count("engel.reconstruct"),
        "engel.reconstruct_s": total.get("engel.reconstruct", 0.0),
        "engel.words_validated": count("engel.is_admissible"),
        "engel.expand_s": total.get("engel.expand", 0.0),
        "engel.self_s": self_time["engel"],
        "trace.spans": len(start),
    }
    metrics = {key: value / passes for key, value in per_pass.items()}
    # ratios of counts; 1.0 when the layer did no such work at all
    metrics["construction.seq_useful_frac"] = (
        header["counts"]["seq_distinct"] / seq_evals if seq_evals else 1.0)
    metrics["construction.interval_useful_frac"] = (
        emitted * passes / built if built else 1.0)
    return metrics
