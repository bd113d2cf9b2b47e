"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: each wrapped function is
replaced, under the name its caller looks it up by, with a wrapper that
appends (name, start, end, parent, op, amount) to an in-memory list.
Nothing inside `src/` changes.  Spans are written to disk only when the
run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover; the union is taken, so overlapping children are
not counted twice.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("seeds", "linalg", "jack", "bessel", "hypergroup", "dunkl", "limits", "cli")


def _batch(pos, key):
    """Amount: leading dimension of the array passed at `pos` or as `key`."""
    def amount(args, kwargs):
        return int((kwargs[key] if key in kwargs else args[pos]).shape[0])
    return amount


def _count_arg(pos, key):
    """Amount: the integer passed at `pos` or as `key`."""
    def amount(args, kwargs):
        return int(kwargs[key] if key in kwargs else args[pos])
    return amount


# (span name, [(module, attribute path), ...], amount extractor or None).
# Each attribute is patched where its caller resolves it: modules import
# each other's functions by name (`from .jack import layer_values`), and the
# cli handlers import lazily from the defining module at call time.
TARGETS = (
    ("seeds.substream",
     [("conebessel.seeds", "substream"), ("conebessel.limits", "substream")], None),
    ("linalg.ConeMatrix", [("conebessel.linalg", "ConeMatrix.__init__")], None),
    ("linalg.psd_sqrt", [("conebessel.hypergroup", "psd_sqrt")], None),
    ("linalg.haar_batch", [("conebessel.dunkl", "_haar_batch")], _count_arg(3, "n")),
    ("jack.layer_values",
     [("conebessel.bessel", "layer_values"), ("conebessel.dunkl", "layer_values")],
     _batch(3, "xi_batch")),
    ("jack.monomial_values", [("conebessel.jack", "_monomial_values")], None),
    ("jack.table_build", [("conebessel.jack", "_JackTable._build")], None),
    ("bessel.series",
     [("conebessel.bessel", "_series_from_eigs"), ("conebessel.dunkl", "_series_from_eigs")],
     _batch(1, "eigs")),
    ("bessel.bessel_series", [("conebessel.bessel", "bessel_series")], None),
    ("bessel.integral_mc", [("conebessel.bessel", "bessel_integral_mc")],
     _count_arg(3, "n_samples")),
    ("bessel.ball_proposal_weights", [("conebessel.bessel", "_ball_proposal_weights")], None),
    ("hypergroup.walk_simulate",
     [("conebessel.hypergroup", "walk_simulate"), ("conebessel.limits", "walk_simulate")], None),
    ("hypergroup.convolve_sample", [("conebessel.hypergroup", "convolve_sample")], None),
    ("hypergroup.sample_ball_batch", [("conebessel.hypergroup", "_sample_ball_batch")], None),
    ("hypergroup.RadialLaw.sample_index",
     [("conebessel.hypergroup", "RadialLaw.sample_index")], None),
    ("dunkl.bessel_B_mc", [("conebessel.dunkl", "bessel_B_mc")], None),
    ("dunkl.hyper_0F0", [("conebessel.dunkl", "hyper_0F0")], None),
    ("limits.free_energy_empirical", [("conebessel.limits", "free_energy_empirical")], None),
    ("limits.free_energy_limit", [("conebessel.limits", "free_energy_limit")], None),
    ("limits.rate_function", [("conebessel.limits", "rate_function")], None),
)

ROOT = "cli.main"
# Reported as the generic calls/self_s/total_s triple; table builds happen
# in set-up and are reported as a run total instead.
FUNCTIONS = (ROOT,) + tuple(name for name, _, _ in TARGETS if name != "jack.table_build")
AMOUNTS = {
    "jack.layer_values": "jack.layer_values.points",
    "bessel.series": "bessel.series.points",
    "bessel.integral_mc": "bessel.integral_mc.samples",
    "linalg.haar_batch": "linalg.haar_batch.samples",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        units[f"{fn}.total_s"] = "s"
    for metric in AMOUNTS.values():
        units[metric] = "count"
    units["bessel.series.weight_reached"] = "count"
    units["jack.table_builds"] = "count"
    units["jack.table_build_s"] = "s"
    units["trace.ops"] = "count"
    units["trace.op_wall_s"] = "s"
    units["trace.self_sum_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Recorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, op id, amount)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, amount=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            qty = amount(args, kwargs) if amount is not None else 0
            idx = len(spans)
            spans.append(None)  # filled in when the call returns
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op, qty)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every target; uninstall() restores the originals."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        # Import every module before patching any: a module imported after
        # a patch would bind the wrapper as its own name and keep it.
        for _, sites, _ in TARGETS:
            for module, _ in sites:
                importlib.import_module(module)
        for name, sites, amount in TARGETS:
            for module, path in sites:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, amount))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path, t0: float):
        """Spans as tab-separated text, times relative to t0."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\tamount\n")
            for i, (nid, start, end, parent, op, qty) in enumerate(self.spans):
                fh.write(
                    f"{i}\t{self.names[nid]}\t{start - t0:.9f}\t{end - t0:.9f}"
                    f"\t{parent}\t{op}\t{qty}\n"
                )


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reached = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reached), min(b, hi)
        if b > a:
            total += b - a
            reached = b
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration less what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        kids = children.get(i)
        covered = covered_length(kids, s[1], s[2]) if kids else 0.0
        out.append((s[2] - s[1]) - covered)
    return out


def layer_metrics(recorder: Recorder, ops: int, op_wall_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics, as means per traced op (op id >= 0).

    Jack table builds are the exception: they are counted over the whole
    run, set-up included, because a warm run builds none.
    """
    names = recorder.names
    spans = recorder.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    amounts = defaultdict(int)
    builds = 0
    build_s = 0.0
    series_layers = 0
    for s, own in zip(spans, selfs):
        name = names[s[0]]
        if name == "jack.table_build":
            builds += 1
            build_s += s[2] - s[1]
        if s[4] < 0:
            continue
        calls[name] += 1
        self_s[name] += own
        total_s[name] += s[2] - s[1]
        amounts[name] += s[5]
        if name == "jack.layer_values" and s[3] >= 0 and names[spans[s[3]][0]] == "bessel.series":
            series_layers += 1
    per_op = 1.0 / ops
    out = {}
    for mod in MODULES:
        out[f"{mod}.self_s"] = per_op * sum(v for k, v in self_s.items() if k.split(".")[0] == mod)
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = per_op * calls[fn]
        out[f"{fn}.self_s"] = per_op * self_s[fn]
        out[f"{fn}.total_s"] = per_op * total_s[fn]
    for fn, metric in AMOUNTS.items():
        out[metric] = per_op * amounts[fn]
    out["bessel.series.weight_reached"] = (
        series_layers / calls["bessel.series"] if calls["bessel.series"] else 0.0
    )
    out["jack.table_builds"] = builds
    out["jack.table_build_s"] = build_s
    out["trace.ops"] = ops
    out["trace.op_wall_s"] = op_wall_s
    out["trace.self_sum_s"] = per_op * sum(self_s.values())
    out["trace.overhead_ratio"] = overhead_ratio
    return out
