"""Traced replay of the workloads' ops and the per-layer metrics drawn from it.

A traced op calls the workload's public entry point inside a span, then
replays, as separate calls on the same inputs, the sequence of public
calls that the entry point makes. Each replayed call gets a span whose
parent is the call that makes it inside the library: ``ustat_within_fast``
is a child of ``dof_estimates``, which is a child of ``run_glht``. A span's
self time is its duration minus the durations of its children. The
replay's own p-values must equal the op's.

Span targets are looked up by name on the ``mfdglht`` package. When a
name is gone or no longer accepts the replayed arguments, the spans that
need it are skipped and the metrics built on them are reported absent
with the reason.
"""

from __future__ import annotations

import inspect
import json
import statistics as stats_mod
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import STATISTICS, FLOAT_RTOL, compare

STUDY, LONG = "study_table1", "test_long_grid"
ALL = (STUDY, LONG)
F_APPROX = ("f_approx_mfw", "f_approx_mflh", "f_approx_mfp", "f_sf")


class Absent(Exception):
    """A span target is not exported by mfdglht or rejects the replayed call."""

    def __init__(self, name: str, reason: str):
        super().__init__(reason)
        self.name = name


class Tracer:
    """Spans of one workload's traced ops, kept in memory until the run ends."""

    def __init__(self, lib):
        self.lib = lib
        self.op = 0
        self.spans: list[tuple] = []  # (name, op, parent, start, end); the index is the span id
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: dict[str, str] = {}
        self.facts: dict[str, float] = {}
        self._signatures: dict[str, inspect.Signature] = {}

    def _record(self, name, parent, start, end) -> int:
        self.spans.append((name, self.op, parent, start, end))
        return len(self.spans) - 1

    def resolve(self, name: str):
        target = getattr(self.lib, name, None)
        if not callable(target):
            raise Absent(name, f"mfdglht.{name} is not exported")
        return target

    @contextmanager
    def span(self, name, parent=None):
        """Record a span around a block; nothing is recorded if the block raises."""
        start = time.perf_counter()
        yield
        self._record(name, parent, start, time.perf_counter())

    def call(self, name, *args, parent=None, **kwargs):
        """Call ``mfdglht.<name>`` inside a span; return (result, span id)."""
        target = self.resolve(name)
        if name not in self._signatures:
            self._signatures[name] = inspect.signature(target)
        try:
            self._signatures[name].bind(*args, **kwargs)
        except TypeError as exc:
            raise Absent(name, f"mfdglht.{name} rejects the replayed call ({exc})") from None
        start = time.perf_counter()
        result = target(*args, **kwargs)
        return result, self._record(name, parent, start, time.perf_counter())

    def maybe(self, name, *args, parent=None, **kwargs):
        """``call`` for a replayed child: if it is absent, note why and return None."""
        try:
            return self.call(name, *args, parent=parent, **kwargs)[0]
        except Absent as exc:
            self.absent.setdefault(exc.name, str(exc))
            return None

    @contextmanager
    def optional(self, label: str):
        """Run child replays whose loss only makes their own metrics absent."""
        try:
            yield
        except Absent as exc:
            self.absent.setdefault(exc.name, str(exc))
        except AttributeError as exc:
            self.absent.setdefault(label, f"{label}: {exc}")

    def gram_floor(self, ds):
        """Time one weighted BLAS Gram of the dataset's pooled curves."""
        pooled = np.concatenate([g.values for g in ds.groups])
        flat = np.ascontiguousarray(pooled.reshape(-1, pooled.shape[2]))
        weights = self.resolve("quad_weights")(ds.grid).weights
        with self.span("gram_floor"):
            (flat * weights) @ flat.T
        self.facts["gram_gflop"] = 2.0 * flat.shape[0] ** 2 * flat.shape[1] / 1e9

    def write(self, fh, workload: str) -> None:
        for sid, (name, op, parent, start, end) in enumerate(self.spans):
            record = {"workload": workload, "id": sid, "name": name, "op": op,
                      "parent": parent, "start": start, "end": end}
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Replays: the public calls each entry point makes, on the same inputs
# ---------------------------------------------------------------------------


def construct(tr: Tracer, grid, arrays, parent):
    """FunctionalDataset(grid, groups), GroupSample validation included."""
    dataset_cls = tr.resolve("FunctionalDataset")
    group_cls = tr.resolve("GroupSample")
    with tr.span("FunctionalDataset", parent):
        ds = dataset_cls(grid, tuple(group_cls(a) for a in arrays))
    return ds


def build_children(tr: Tracer, ds, spec, w, glht, parent):
    with tr.optional("build_glht children"):
        n = np.asarray(ds.n)
        tr.maybe("hn_matrix", spec.c, n, parent=parent)
        means = tr.maybe("group_means", ds, parent=parent)
        if means is not None:
            tr.maybe("b_matrix", means, spec, w, n, parent=parent)
        sigmas = [tr.maybe("sigma_hat", ds, i, w, parent=parent) for i in range(ds.k)]
        if all(sigma is not None for sigma in sigmas):
            tr.maybe("omega_hat", sigmas, np.diag(glht.hn), n, parent=parent)
            tr.maybe("e_matrix", sigmas, glht.hn, n, parent=parent)


def dof_children(tr: Tracer, ds, w, glht, dof, parent):
    tr.counts["dof_calls"] += 1
    tr.counts["dof_clamped"] += bool(dof.any_clamped)
    with tr.optional("dof_estimates children"):
        for i in range(ds.k):
            tr.maybe("ustat_within_fast", ds, i, glht.omega, w, parent=parent)
            tr.maybe("k4_hat", ds, i, glht.omega, w, dof.within[i], parent=parent)
        for i1 in range(ds.k):
            for i2 in range(i1 + 1, ds.k):
                tr.maybe("cross_terms", ds, i1, i2, glht.omega, w, parent=parent)


def build_and_dof(tr: Tracer, ds, spec, w, parent):
    glht, sid = tr.call("build_glht", ds, spec, w, parent=parent)
    build_children(tr, ds, spec, w, glht, sid)
    dof, sid = tr.call("dof_estimates", ds, spec, w, glht=glht, parent=parent)
    dof_children(tr, ds, w, glht, dof, sid)
    return glht, dof


def run_glht_children(tr: Tracer, ds, spec, report, parent) -> list[str]:
    """Replay run_glht's calls; return mismatches of the replayed p-values."""
    with tr.optional("run_glht children"):
        w, _ = tr.call("quad_weights", ds.grid, parent=parent)
        glht, dof = build_and_dof(tr, ds, spec, w, parent)
        st, _ = tr.call("statistics", dof.d_b * glht.bn, dof.d_e * glht.en, parent=parent)
        approx = {
            name: tr.call(f"f_approx_{name}", st.by_name(name), ds.p, dof.d_b, dof.d_e,
                          parent=parent)[0]
            for name in STATISTICS
        }
        p_values = {
            name: tr.call("f_sf", fa.f_stat, fa.df1, fa.df2, parent=parent)[0]
            for name, fa in approx.items()
        }
        tr.counts["run_glht_calls"] += 1
        tr.counts["pole_fallback"] += any(fa.pole_fallback for fa in approx.values())
        want = {name: float(report.p_values[name]) for name in STATISTICS}
        return compare(want, {k: float(v) for k, v in p_values.items()}, FLOAT_RTOL, "replay")
    return []


def replay_study(tr: Tracer, args, kwargs, result, sid) -> list[str]:
    """Serial replay of size_power_study: gen_sample + run_glht per replication."""
    (cfg,) = args
    spec = cfg.contrast_spec()
    degeneracy = getattr(tr.lib, "DegeneracyError", ())
    tr.counts["errored_reps"] += int(result.errored)
    rejections = dict.fromkeys(STATISTICS, 0)
    errored = 0
    issues = []
    with tr.optional("size_power_study replay"):
        for rep in range(cfg.reps):
            # Replication r of a study draws from SeedSequence([master_seed, r]).
            ds, gen_sid = tr.call("gen_sample", cfg, [cfg.seed, rep], parent=sid)
            with tr.optional("FunctionalDataset"):
                construct(tr, ds.grid, [g.values for g in ds.groups], gen_sid)
            if rep == 0:
                with tr.optional("gram_floor"):
                    tr.gram_floor(ds)
            try:
                report, run_sid = tr.call("run_glht", ds, spec, parent=sid)
            except degeneracy:
                errored += 1
                continue
            for name in STATISTICS:
                rejections[name] += bool(report.decisions[name])
            issues += run_glht_children(tr, ds, spec, report, run_sid)
        want = {"rejections": dict(result.rejections), "errored": int(result.errored)}
        issues += compare(want, {"rejections": rejections, "errored": errored}, 0.0,
                          "serial replay")
    return issues


def replay_long_grid(tr: Tracer, args, kwargs, report, sid) -> list[str]:
    ds, spec = args
    with tr.optional("FunctionalDataset"):
        construct(tr, ds.grid, [g.values for g in ds.groups], None)
    with tr.optional("gram_floor"):
        tr.gram_floor(ds)
    return run_glht_children(tr, ds, spec, report, sid)


REPLAYS = {STUDY: replay_study, LONG: replay_long_grid}


def traced_op(workload, tr: Tracer, state, j: int):
    """Run op ``j`` in a span and replay it; return (output, error, replay issues)."""
    tr.op = j
    args, kwargs = workload.call_args(state, j)
    try:
        result, sid = tr.call(workload.entry, *args, **kwargs)
    except Exception as exc:  # a failed op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}", []
    issues = REPLAYS[workload.name](tr, args, kwargs, result, sid)
    return workload.summarize(result), None, issues


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class Summary:
    """Per-op sums of span durations and self times."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        child_time = defaultdict(float)
        for name, op, parent, start, end in tr.spans:
            if parent is not None:
                child_time[parent] += end - start
        self.child_time = child_time

    def per_op(self, names, self_time=False) -> list[float]:
        totals: dict[int, float] = defaultdict(float)
        for sid, (name, op, parent, start, end) in enumerate(self.tr.spans):
            if name in names:
                totals[op] += end - start - (self.child_time[sid] if self_time else 0.0)
        return list(totals.values())

    def median_ms(self, *names, self_time=False):
        values = self.per_op(names, self_time)
        return 1e3 * stats_mod.median(values) if values else None

    def study_vs_serial(self):
        ratios = []
        spans = self.tr.spans
        serial = defaultdict(float)
        for name, op, parent, start, end in spans:
            if parent is not None and name in ("gen_sample", "run_glht") \
                    and spans[parent][0] == "size_power_study":
                serial[parent] += end - start
        for sid, total in serial.items():
            ratios.append(total / (spans[sid][4] - spans[sid][3]))
        return stats_mod.median(ratios) if ratios else None

    def per_1k(self, hits: str, calls: str):
        total = self.tr.counts.get(calls, 0)
        return 1e3 * self.tr.counts.get(hits, 0) / total if total else None


# Replayed children of each span that has any; a self time needs all of them.
CHILDREN = {
    "run_glht": ("quad_weights", "build_glht", "dof_estimates", "statistics") + F_APPROX,
    "build_glht": ("hn_matrix", "group_means", "b_matrix", "sigma_hat", "omega_hat", "e_matrix"),
    "dof_estimates": ("ustat_within_fast", "k4_hat", "cross_terms"),
}

# (metric, unit, better, workloads it is reported for, how, names it is built on).
# how: "sum" / "self" = median per op of the spans' summed durations / self times;
# "fact" = a value measured outside the spans; "count" and "per_1k" = counters;
# "serial" = serial replay time of a study's reps over the study's wall time.
LAYER_METRICS = [
    ("dataset.load_csv_s", "s", "lower", (LONG,), "fact", ("load_csv_s",)),
    ("dataset.construct_ms", "ms", "lower", ALL, "sum", ("FunctionalDataset",)),
    ("simulate.gen_sample_ms", "ms", "lower", (STUDY,), "sum", ("gen_sample",)),
    ("simulate.study_vs_serial", "ratio", "higher", (STUDY,), "serial",
     ("gen_sample", "run_glht")),
    ("simulate.errored_reps", "count", "lower", (STUDY,), "count", ("errored_reps",)),
    ("fstats.run_glht_ms", "ms", "lower", ALL, "sum", ("run_glht",)),
    ("fstats.run_glht_self_ms", "ms", "lower", ALL, "self", ("run_glht",)),
    ("fstats.statistics_ms", "ms", "lower", ALL, "sum", ("statistics",)),
    ("fstats.f_approx_ms", "ms", "lower", ALL, "sum", F_APPROX),
    ("fstats.pole_fallback_per_1k", "per_1000", "lower", ALL, "per_1k",
     ("pole_fallback", "run_glht_calls")),
    ("glht.build_ms", "ms", "lower", ALL, "sum", ("build_glht",)),
    ("glht.hn_matrix_ms", "ms", "lower", ALL, "sum", ("hn_matrix",)),
    ("glht.b_matrix_ms", "ms", "lower", ALL, "sum", ("b_matrix",)),
    ("glht.build_self_ms", "ms", "lower", ALL, "self", ("build_glht",)),
    ("moments.group_means_ms", "ms", "lower", ALL, "sum", ("group_means",)),
    ("moments.sigma_hat_ms", "ms", "lower", ALL, "sum", ("sigma_hat",)),
    ("moments.omega_hat_ms", "ms", "lower", ALL, "sum", ("omega_hat",)),
    ("dof.estimates_ms", "ms", "lower", ALL, "sum", ("dof_estimates",)),
    ("dof.within_ms", "ms", "lower", ALL, "sum", ("ustat_within_fast",)),
    ("dof.k4_ms", "ms", "lower", ALL, "sum", ("k4_hat",)),
    ("dof.cross_ms", "ms", "lower", ALL, "sum", ("cross_terms",)),
    ("dof.combine_self_ms", "ms", "lower", ALL, "self", ("dof_estimates",)),
    ("dof.clamped_per_1k", "per_1000", "lower", ALL, "per_1k", ("dof_clamped", "dof_calls")),
    ("ref.gram_floor_ms", "ms", "lower", ALL, "sum", ("gram_floor",)),
    ("ref.gram_gflop", "GFLOP_computed", "lower", ALL, "fact", ("gram_gflop",)),
    ("trace.overhead_ratio", "ratio", "higher", ALL, "fact", ("overhead_ratio",)),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    return [
        (f"{workload}.{metric}", unit, better)
        for workload in ALL
        for metric, unit, better, workloads, _, _ in LAYER_METRICS
        if workload in workloads
    ]


def _value(summary: Summary, facts: dict, how: str, names):
    if how == "sum":
        return summary.median_ms(*names)
    if how == "self":
        return summary.median_ms(*names, self_time=True)
    if how == "fact":
        return facts.get(names[0])
    if how == "count":
        return summary.tr.counts.get(names[0])
    if how == "per_1k":
        return summary.per_1k(*names)
    return summary.study_vs_serial()


def layer_metrics(workload: str, tr: Tracer, facts: dict) -> dict:
    """Per-layer metrics of one workload; an absent one carries its reason."""
    summary = Summary(tr)
    facts = {**tr.facts, **facts}
    out = {}
    for metric, unit, _, workloads, how, names in LAYER_METRICS:
        if workload not in workloads:
            continue
        needs = names + (CHILDREN.get(names[0], ()) if how == "self" else ())
        missing = [tr.absent[name] for name in needs if name in tr.absent]
        value = None if missing else _value(summary, facts, how, names)
        entry = {"value": value, "unit": unit}
        if value is None:
            entry["absent"] = "; ".join(missing or sorted(set(tr.absent.values()))) or (
                "no span recorded"
            )
        out[f"{workload}.{metric}"] = entry
    return out
