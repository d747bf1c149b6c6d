"""Command-line front end: run / sweep / plan / check.

Exit codes: 0 success, 2 configuration error, 3 runtime error, 4 threshold
failure in check mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import theory
from ._svg import line_chart
from .dataio import canonical_json, write_csv, write_report
from .errors import ConfigError
from .scenarios import (BUNDLED, SWEEP_AXES, bundled_config, check_bundled,
                        run_scenario, sweep_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK = 4


def _load_config(args) -> dict:
    if args.config is not None and args.scenario is not None:
        raise ConfigError("config: pass either --config or --scenario, not both")
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        return raw
    if args.scenario is not None:
        return bundled_config(args.scenario)
    raise ConfigError("config: need --config FILE or --scenario NAME")


def _add_run_options(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output directory (run, sweep: default stdout)")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="path to a scenario config (JSON)")
    p.add_argument("--scenario", help="bundled scenario name "
                   f"({', '.join(sorted(BUNDLED))})")
    _add_run_options(p)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_scenario(cfg, seed=args.seed)
    name = result.report["config"]["name"]
    if args.out:
        path = os.path.join(args.out, f"{name}_report.json")
        write_report(result.report, path)
        print(f"report written to {path}")
    else:
        sys.stdout.write(canonical_json(result.report))
    return EXIT_OK


def _parse_values(text: str, axis: str):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            vals.append(SWEEP_AXES[axis].type(tok))
        except ValueError:
            raise ConfigError(f"sweep.values: bad value {tok!r} for axis {axis}") from None
    return vals


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"sweep: --jobs must be >= 1, got {args.jobs}")
    cfg = _load_config(args)
    values = _parse_values(args.values, args.axis)
    header, rows, reports = sweep_scenario(cfg, args.axis, values, jobs=args.jobs,
                                           seed=args.seed)
    name = reports[0]["config"]["name"]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, f"{name}_{args.axis}_sweep.csv")
        with open(csv_path, "w", newline="") as fh:
            write_csv(fh, header, rows)
        print(f"sweep written to {csv_path}")
        svg_path = os.path.join(args.out, f"{name}_{args.axis}_sweep.svg")
        with open(svg_path, "w") as fh:
            fh.write(_sweep_chart(args.axis, values, reports))
        print(f"chart written to {svg_path}")
    else:
        write_csv(sys.stdout, header, rows)
    return EXIT_OK


def _sweep_chart(axis, values, reports):
    th = [rep["theory"] for rep in reports]
    if "trials" in reports[0]:  # a trial loop reports its success rate on any axis
        series = [("predicted success", values, [t["one_shot_success"] for t in th]),
                  ("measured success", values, [rep["trials"]["success_rate"] for rep in reports])]
        y = "success probability"
    else:
        series = [("measured exact fraction", values,
                   [rep["recovery"]["exact_fraction"] for rep in reports])]
        if SWEEP_AXES[axis].path != "defense.sigma":
            # predictions are expected counts; scale each point by its own batch size
            series += [(name, values, [None if t[key] is None else t[key] / rep["n"]
                                       for t, rep in zip(th, reports)])
                       for name, key in (("composition model", "prop1_expected"),
                                         ("iid model", "iid_expected"))]
        y = "exact fraction"
    series = [s for s in series if any(v is not None for v in s[2])]  # no empty legend rows
    return line_chart(series, title=f"{axis} sweep", x_label=axis, y_label=y)


def _cmd_plan(args) -> int:
    if (args.k is None) == (args.p is None):
        raise ConfigError("plan: pass exactly one of --k or --p")
    # the one-shot optimum needs two elements to share the batch
    for flag, value, lo in (("--n", args.n, 1 if args.p is None else 2),
                            ("--k", args.k, 1), ("--m", args.m, 1),
                            ("--decoys", args.decoys, 0),
                            ("--bridge-params", args.bridge_params, 0),
                            ("--base-params", args.base_params, 1)):
        if value is not None and value < lo:
            raise ConfigError(f"plan: {flag} must be >= {lo}, got {value}")
    lines = [f"batch size n = {args.n}"]
    if args.k is not None:
        lines.append(f"bins k = {args.k}")
        try:
            v = theory.prop1_closed_form(args.n, args.k)
            lines.append(f"expected exactly-recovered (composition model): {v:.4f}")
        except ValueError as exc:
            lines.append(f"composition model unavailable: {exc}")
        lines.append(f"expected exactly-recovered (iid model):         "
                     f"{theory.iid_expected(args.n, args.k):.4f}")
    else:
        if not (0.0 < args.p < 1.0):
            raise ConfigError(f"plan: --p must lie in (0, 1), got {args.p}")
        lines.append(f"fused interval mass p = {args.p}")
        lines.append(f"one-shot success probability: "
                     f"{theory.one_shot_success(args.n, args.p):.4f}")
        p_star, v_star = theory.one_shot_optimum(args.n)
        lines.append(f"optimal mass p* = {p_star:.6g} with success {v_star:.4f}")
    absolute = theory.overhead(args.m, args.k or 2, decoys=args.decoys,  # a trap is two rows
                               bridge_params=args.bridge_params)
    lines.append(f"imprint parameter overhead: {absolute}")
    if args.base_params is not None:
        lines.append(f"relative to base model: {absolute / args.base_params * 100:.2f}%")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_check(args) -> int:
    failures = 0
    for name in sorted(BUNDLED):
        result = run_scenario(bundled_config(name), seed=args.seed)
        if args.out:
            write_report(result.report, os.path.join(args.out, f"{name}_report.json"))
        for label, ok, detail in check_bundled(result):
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label} ({detail})")
            failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_CHECK
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imprintlab",
        description="Gradient-inversion imprint attack simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit its report")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across an axis of values")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES, metavar="AXIS",
                         help="bins, batch, sigma, mass or a numeric config leaf path "
                         "such as model.imprint.placement")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 8,16,32")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker threads for sweep points (rows do not change)")

    p_plan = sub.add_parser("plan", help="expected recovery and overhead, no simulation")
    p_plan.add_argument("--n", type=int, required=True, help="batch size")
    p_plan.add_argument("--k", type=int, default=None, help="number of bins")
    p_plan.add_argument("--p", type=float, default=None, help="fused interval mass")
    p_plan.add_argument("--m", type=int, required=True, help="feature width")
    p_plan.add_argument("--decoys", type=int, default=0)
    p_plan.add_argument("--bridge-params", type=int, default=0)
    p_plan.add_argument("--base-params", type=int, default=None,
                        help="parameter count of the carrier model")

    p_check = sub.add_parser("check", help="run every bundled scenario against its thresholds")
    _add_run_options(p_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "plan": _cmd_plan,
                "check": _cmd_check}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
