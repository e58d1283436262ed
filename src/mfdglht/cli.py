"""Command-line interface: run tests on data, run studies, render summaries.

Exit codes: 0 success, 2 invalid input (files, config, arguments), 3
numerical degeneracy (singular pooled or error matrix, undefined
approximation, degenerate degrees of freedom). Every error path prints a
single-line JSON object to standard error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .dataset import load_c0_csv, load_contrast_csv, load_csv
from .errors import DegeneracyError, InputError, MfdGlhtError
from .fstats import STATISTIC_NAMES, run_glht
from .glht import ContrastSpec
from .simulate import are_metric, load_config_file, size_power_study

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

RATE_COLUMNS = (
    "kind",
    "label",
    "contrast",
    "scenario",
    "model",
    "rho",
    "delta",
    "n",
    "reps",
    "completed",
    "errored",
    "statistic",
    "rejections",
    "rate_pct",
)


# The numeric columns ``report`` reads, with their parsers.
REPORT_NUMBERS = {"delta": float, "rate_pct": float, "completed": int}


def cmd_test(args) -> int:
    ds = load_csv(args.data)
    c = load_contrast_csv(args.contrast, k=ds.k)
    c0 = load_c0_csv(args.c0, p=ds.p, m=ds.m, q=c.shape[0]) if args.c0 else None
    spec = ContrastSpec(c, c0)
    if not (0.0 < args.alpha < 1.0):
        raise InputError(f"alpha must lie in (0, 1), got {args.alpha}")
    try:
        report = run_glht(ds, spec, alpha=args.alpha)
    except DegeneracyError as exc:
        payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        raise
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    return EXIT_OK


def _study_rows(result) -> list[dict]:
    cfg = result.config
    contrast = cfg.contrast if isinstance(cfg.contrast, str) else "custom"
    return [
        {
            "kind": "rate",
            "label": cfg.label or "",
            "contrast": contrast,
            "scenario": cfg.scenario,
            "model": cfg.model,
            "rho": cfg.rho,
            "delta": cfg.delta,
            "n": "/".join(str(v) for v in cfg.n),
            "reps": cfg.reps,
            "completed": result.completed,
            "errored": result.errored,
            "statistic": name,
            "rejections": result.rejections[name],
            "rate_pct": result.rate_percent(name),
        }
        for name in STATISTIC_NAMES
    ]


def cmd_simulate(args) -> int:
    configs = load_config_file(args.config)
    if args.reps is not None:
        if args.reps < 1:
            raise InputError("--reps must be >= 1")
        configs = [dataclasses.replace(cfg, reps=args.reps) for cfg in configs]
    if args.seed is not None:
        configs = [dataclasses.replace(cfg, seed=args.seed) for cfg in configs]
    results = [size_power_study(cfg) for cfg in configs]

    are = {}
    if len(results) > 1:
        alpha_pct = 100.0 * results[0].config.alpha
        are = {
            name: are_metric([r.rate_percent(name) for r in results], alpha_pct)
            for name in STATISTIC_NAMES
        }
    rows = [row for result in results for row in _study_rows(result)]
    rows += [{"kind": "are", "reps": len(results), "statistic": name, "rate_pct": value}
             for name, value in are.items()]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, RATE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    summary = {
        "settings": [
            {
                "label": r.config.label,
                "scenario": r.config.scenario,
                "model": r.config.model,
                "rho": r.config.rho,
                "delta": r.config.delta,
                "n": list(r.config.n),
                "alpha": r.config.alpha,
                "reps": r.config.reps,
                "seed": r.config.seed,
                "completed": r.completed,
                "errored": r.errored,
                "errors_by_kind": r.errors_by_kind,
                "dof_clamped": r.dof_clamped,
                "pole_fallbacks": r.pole_fallbacks,
                "rates_pct": {name: r.rate_percent(name) for name in STATISTIC_NAMES},
                "elapsed_seconds": r.elapsed_seconds,
            }
            for r in results
        ]
    }
    if are:
        summary["are"] = are
    with open(_summary_path(args.out), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return EXIT_OK


def _summary_path(out_path: str) -> str:
    stem, ext = os.path.splitext(out_path)
    return stem + ".summary.json" if ext == ".csv" else out_path + ".summary.json"


def _read_rate_rows(path) -> list[dict]:
    """The rate rows of a ``simulate`` table, as strings whose numbers parse.

    The reader sees the file as written, so a quoted field keeps its commas,
    quotes and line breaks; then every field is stripped and rows with no
    nonblank field are dropped.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            table = [[field.strip() for field in row] for row in csv.reader(fh)]
    except UnicodeDecodeError as exc:
        raise InputError(f"results file is not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise InputError(f"malformed results file: {exc}") from None
    table = [row for row in table if any(row)]
    if not table:
        raise InputError("results file is empty")
    header, *body = table
    if not {"kind", "statistic", *REPORT_NUMBERS} <= set(header):
        raise InputError("results file lacks the expected rate columns")
    if any(len(row) != len(header) for row in body):
        raise InputError("malformed results row")
    rows = [row for row in (dict(zip(header, row)) for row in body) if row["kind"] == "rate"]
    if not rows:
        raise InputError("results file has no rate rows")
    for row in rows:
        for name, parse in REPORT_NUMBERS.items():
            try:
                parse(row[name])
            except ValueError:
                raise InputError(f"malformed results row: {name} {row[name]!r}") from None
    return rows


def _svg_chart(rows: list[dict]) -> str:
    deltas = sorted({float(r["delta"]) for r in rows})
    x_is_delta = len(deltas) > 1
    series: dict[str, list[tuple[float, float]]] = {name: [] for name in STATISTIC_NAMES}
    for row in rows:
        name = row["statistic"]
        if name not in series:
            continue
        x = float(row["delta"]) if x_is_delta else float(len(series[name]))
        series[name].append((x, float(row["rate_pct"])))
    # A setting whose every replication errored has rate nan: it has no point.
    series = {
        name: [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]
        for name, pts in series.items()
    }
    width, height, margin = 640, 420, 56
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        raise InputError(f"results file has no rate rows for {', '.join(STATISTIC_NAMES)}")
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    y_max = max(10.0, 1.1 * max(ys))

    def sx(x):
        return margin + (x - x_min) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - y / y_max * (height - 2 * margin)

    colors = {"mfw": "#1f77b4", "mflh": "#d62728", "mfp": "#2ca02c"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">{"delta" if x_is_delta else "setting index"}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.1f})">rejection rate (%)</text>',
    ]
    for tick in range(0, int(y_max) + 1, max(1, int(y_max // 5) or 1)):
        parts.append(
            f'<text x="{margin - 6}" y="{sy(tick):.1f}" text-anchor="end" '
            f'font-size="11">{tick}</text>'
        )
    for name, pts in series.items():
        if not pts:
            continue
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{colors[name]}" stroke-width="2" '
            f'points="{coords}"/>'
        )
    for i, name in enumerate(STATISTIC_NAMES):
        y = margin + 16 * i
        parts.append(
            f'<rect x="{width - margin - 90}" y="{y - 9}" width="12" height="12" '
            f'fill="{colors[name]}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 72}" y="{y + 1}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_report(args) -> int:
    rows = _read_rate_rows(args.infile)
    if args.format == "svg":
        svg = _svg_chart(rows)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
        return EXIT_OK
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, [*rows[0], "mc_se"], lineterminator="\n")
        writer.writeheader()
        for row in rows:
            rate = float(row["rate_pct"])
            completed = int(row["completed"])
            se = float(np.sqrt(rate * (100.0 - rate) / completed)) if completed else float("nan")
            writer.writerow({**row, "mc_se": se})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfdglht",
        description="Finite-sample linear hypothesis tests for multivariate functional data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the three tests on a dataset")
    p_test.add_argument("--data", required=True, help="dataset CSV (long format)")
    p_test.add_argument("--contrast", required=True, help="contrast CSV (row,col,value)")
    p_test.add_argument("--c0", default=None, help="optional constant-curve CSV")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--out", required=True, help="output report JSON")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run Monte Carlo size/power studies")
    p_sim.add_argument("--config", required=True, help="simulation config JSON")
    p_sim.add_argument("--reps", type=int, default=None, help="override replication count")
    p_sim.add_argument("--seed", type=int, default=None, help="override master seed")
    p_sim.add_argument("--out", required=True, help="output rates CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="render a results CSV as SVG or annotated CSV")
    p_rep.add_argument("--in", dest="infile", required=True, help="results CSV from simulate")
    p_rep.add_argument("--format", choices=("svg", "csv"), default="svg")
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MfdGlhtError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_DEGENERATE if isinstance(exc, DegeneracyError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
