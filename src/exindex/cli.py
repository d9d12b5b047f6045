"""Command-line entry point exposing the library as subcommands.

Conventions: series files are plain text, one value per line; measures are
CSV with header s,t,w; numeric output is printed with 12 significant digits;
exit code 0 on success, 1 on domain errors (reported on stderr as
``CODE: message``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import warnings

import numpy as np

from ._version import __version__
from .biascorrect import (
    DEFAULT_DELTA_PROBE,
    check_conditions,
    corrected_curve,
    corrected_estimate,
    write_measure_csv,
)
from .errors import DegenerateDenominator, ExindexError, MeasureConditionError
from .estimate import (
    BlocksEvaluator,
    EstimatorConfig,
    blocks_fixed,
    check_grid,
    default_grid,
    runs_estimator,
    sweep,
)
from .harness import (
    _INNOVATIONS,
    _MEASURES,
    _MODELS,
    ExperimentConfig,
    _measure_from_dict,
    figure1_bundle,
    model_from_dict,
    normality_check,
    run,
)
from .oracle import MMExpansionReport
from .sim import config_fields, generate

__all__ = ["dispatch", "main"]


class _Usage(Exception):
    """Invalid flag combination detected after argparse."""


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _read_series(path) -> np.ndarray:
    """A file's values, one per line; several columns stay 2-D, which the estimators reject."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(path, ndmin=2, dtype=float)
    if values.size == 0:
        raise ValueError(f"series file {path} holds no values")
    return values[:, 0] if values.shape[1] == 1 else values


def _emit(lines, out) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(spec):
    """Comma list of levels, single level, or an integer count N meaning j/N."""
    if spec is None:
        return None
    s = str(spec).strip()
    if "," in s:
        return [float(p) for p in s.split(",") if p.strip()]
    if any(ch in s for ch in ".eE"):
        return [float(s)]
    return default_grid(int(s)) if int(s) > 0 else []  # a count below 1 is an empty grid


# ---------------------------------------------------------------------------
# Model flags shared by simulate / oracle / kernel
# ---------------------------------------------------------------------------


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=list(_MODELS))
    p.add_argument("--psi", type=float, help="repeat probability (wn)")
    p.add_argument("--phi", type=float, help="autoregression coefficient (ar1_cauchy)")
    p.add_argument("--coeffs", help="comma-separated coefficients (mm)")
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--innovation", default="uniform", choices=list(_INNOVATIONS))
    p.add_argument("--alpha", type=float, help="tail exponent (pareto innovation)")


def _model_dict(args, innovation=False) -> dict:
    """Config form of ``--model`` (or of ``--innovation``), read from its flags.

    Each constructor field of the chosen class is the flag of the same name,
    checked in field order; ``--coeffs`` is a comma list and ``innovation``
    is the ``--innovation`` law with its own flags.
    """
    name = args.innovation if innovation else args.model
    cls = (_INNOVATIONS if innovation else _MODELS)[name]
    owner = f"{cls.name} innovation" if innovation else f"the {cls.name} model"
    d = {"name": name}
    for key in config_fields(cls):
        if key == "innovation":
            d[key] = _model_dict(args, innovation=True)
            continue
        value = getattr(args, key)
        if value is None:
            raise _Usage(f"--{key} required for {owner}")
        try:
            d[key] = [float(c) for c in value.split(",") if c.strip()] if key == "coeffs" else value
        except ValueError:
            raise ValueError(
                f"--coeffs takes comma-separated numbers for {owner}, got {value!r}"
            ) from None
    return d


# the measure kinds of ``harness._MEASURES`` that have a flag of their own
_MEASURE_FLAGS = {"--two-atom": "two_atom", "--product": "product"}


def _add_measure_args(p: argparse.ArgumentParser, file_flag: str) -> None:
    p.add_argument(file_flag, dest="measure", help="measure CSV (s,t,w)")
    for flag, kind in _MEASURE_FLAGS.items():
        p.add_argument(flag, dest=kind, help=",".join(_MEASURES[kind][1]))


def _flag_numbers(value: str, flag: str, keys: tuple) -> dict:
    """The comma-separated numbers given to ``flag``, one for each of ``keys``, by key."""
    try:
        numbers = [float(p) for p in value.split(",")]
    except ValueError:
        numbers = []
    if len(numbers) != len(keys):
        raise ValueError(f"{flag} takes the numbers {','.join(keys)}, got {value!r}")
    return dict(zip(keys, numbers))


def _load_measure(args, file_flag="--measure"):
    """The measure of the one measure flag given, parsed as the config form of its kind."""
    flags = {file_flag: args.measure, **{f: getattr(args, k) for f, k in _MEASURE_FLAGS.items()}}
    given = [(flag, value) for flag, value in flags.items() if value]
    if len(given) != 1:
        raise _Usage(f"exactly one of {', '.join(flags)} is required")
    [(flag, value)] = given
    kind = _MEASURE_FLAGS.get(flag, "file")
    keys = {"path": value} if kind == "file" else _flag_numbers(value, flag, _MEASURES[kind][1])
    return _measure_from_dict({"kind": kind, **keys}, where=flag)[0]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> None:
    model = model_from_dict(_model_dict(args))
    x = generate(model, args.n, args.seed)
    _emit([_fmt(v) for v in x.values], args.out)


def _cmd_blocks(args) -> None:
    _emit([_fmt(blocks_fixed(_read_series(args.series), args.r, args.u))], args.out)


def _cmd_runs(args) -> None:
    _emit(
        [_fmt(runs_estimator(_read_series(args.series), args.run_length, args.u))],
        args.out,
    )


def _curve_lines(curve):
    lines = ["t,k_t,theta_hat,variant,flag"]
    for t, k_t, value, code in zip(curve.t, curve.k_t, curve.theta_hat, curve.code):
        shown = "" if code else _fmt(value)
        lines.append(f"{_fmt(t)},{k_t},{shown},{curve.variant},{code}")
    return lines


def _cmd_sweep(args) -> None:
    x = _read_series(args.series)
    cfg = EstimatorConfig(r=args.r, k=args.k)
    _emit(_curve_lines(sweep(x, cfg, _parse_grid(args.grid))), args.out)


def _cmd_correct(args) -> None:
    x = _read_series(args.series)
    cfg = EstimatorConfig(r=args.r, k=args.k)
    mu = _load_measure(args)
    grid = _parse_grid(args.grid)
    if grid is None:
        val = corrected_estimate(BlocksEvaluator(x, cfg.r, cfg.k), mu)
        _emit([_fmt(val)], args.out)
        return
    _emit(_curve_lines(corrected_curve(x, cfg, mu, grid)), args.out)


def _cmd_check_measure(args) -> None:
    mu = _load_measure(args, file_flag="--in")
    probes = list(DEFAULT_DELTA_PROBE)
    if args.delta is not None and args.delta not in probes:
        probes.append(args.delta)
    report = check_conditions(mu, probes)
    lines = [
        f"m1 {'pass' if report.m1_ok else 'FAIL'} max_group_residual {_fmt(report.m1_max_group_residual)}",
        f"m2 {'pass' if report.m2_ok else 'FAIL'}",
    ]
    for d in sorted(report.m2_integrals):
        lines.append(f"m2_integral[{_fmt(d)}] {_fmt(report.m2_integrals[d])}")
    lines.append(f"m3_value {_fmt(report.m3_value)}")
    lines.append(f"total_weight {_fmt(report.total_weight)}")
    if args.out:
        write_measure_csv(mu, args.out)
    _emit(lines, None)
    violations = report.violations()
    if violations:
        raise MeasureConditionError(
            f"measure fails {violations[0]}", code=violations[0]
        )


def _cmd_oracle(args) -> None:
    model = model_from_dict(_model_dict(args))
    theta_nt = model.theta_nt(args.r, args.v, args.t)
    if theta_nt is None:
        raise _Usage("no closed-form curve target for this model")
    exp, extra = model.bias_expansion(args.r, args.v), []
    if isinstance(exp, MMExpansionReport):
        exp, extra = exp.expansion, [f"branch {exp.selected}", f"d {_fmt(exp.diagnostics['d'])}"]
    lines = [
        f"theta_nt {_fmt(theta_nt)}",
        f"theta_n {_fmt(exp.theta_n)}",
        f"c_n {_fmt(exp.c_n)}",
        f"delta {_fmt(exp.delta)}",
    ]
    _emit(lines + extra, args.out)


def _cmd_kernel(args) -> None:
    from .clusterproc import ClosedFormIID, estimate_kernel_mc, tail_chain_probabilities

    grid = check_grid(sorted({args.s, args.t}))  # every method reads the kernel at s and t
    model = model_from_dict(_model_dict(args))
    independent = args.model == "iid"
    method = args.method
    if method == "auto":
        method = "iid" if independent else "tail"
    if method == "iid":
        if not independent:
            raise _Usage("--method iid holds for independent data only; use --model iid")
        kern = ClosedFormIID()
    elif method == "tail":
        if args.v is None:
            raise _Usage("--v required for the tail-chain method")
        kern = tail_chain_probabilities(
            model, args.v, K=args.K, replicates=args.replicates, seed=args.seed, n=args.n
        )
    else:
        if args.r is None or args.k is None:
            raise _Usage("--r and --k required for the mc method")
        cfg = EstimatorConfig(r=args.r, k=args.k)
        kern = estimate_kernel_mc(
            model, args.n, cfg, grid, replicates=args.replicates, seed=args.seed
        )
    # entry (0, 1) is the pair (s, t) and entry (1, 0) the pair (t, s)
    c, c_g, c_fg = kern.matrices([args.s, args.t], [args.s, args.t])
    _emit(
        [
            f"c {_fmt(c[0, 1])}",
            f"c_g {_fmt(c_g[0, 1])}",
            f"c_fg_st {_fmt(c_fg[0, 1])}",
            f"c_fg_ts {_fmt(c_fg[1, 0])}",
        ],
        args.out,
    )


def _cmd_mc(args) -> None:
    cfg = ExperimentConfig.from_json(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if cfg.out_dir is None:
        raise _Usage("set out_dir in the config or pass --out")
    # a config the normality check rejects writes nothing
    rep = normality_check(cfg) if args.normality else None
    files = figure1_bundle(cfg) if args.figure1 else run(cfg).files
    lines = [f"wrote {p}" for p in files]
    if rep is not None:
        lines += [
            f"normality_t {_fmt(rep.t)}",
            f"skewness {_fmt(rep.skewness)}",
            f"kurtosis_excess {_fmt(rep.kurtosis_excess)}",
            f"normality_stat {_fmt(rep.stat)}",
            f"normality_pvalue {_fmt(rep.pvalue)}",
            f"variance {_fmt(rep.variance)}",
            f"variance_doubled {_fmt(rep.variance_doubled)}",
            f"variance_ratio {_fmt(rep.variance_ratio)}",
            f"degenerate {rep.degenerate}",
        ]
    _emit(lines, None)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``exindex`` parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="exindex",
        description="Extremal index estimation with signed-measure bias removal.",
    )
    parser.add_argument("--version", action="version", version=f"exindex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a model and print the series")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("blocks", help="blocks estimate at a fixed threshold")
    p.add_argument("--series", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("runs", help="runs estimate at a fixed threshold")
    p.add_argument("--series", required=True)
    p.add_argument("--run-length", type=int, required=True, dest="run_length")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_runs)

    p = sub.add_parser("sweep", help="blocks estimates over a threshold grid")
    p.add_argument("--series", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", help="comma list of levels, or an integer count")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("correct", help="bias-corrected estimate(s)")
    p.add_argument("--series", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_measure_args(p, "--measure")
    p.add_argument("--grid", help="comma list of levels, or an integer count")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("check-measure", help="validate a signed measure")
    _add_measure_args(p, "--in")
    p.add_argument("--delta", type=float, help="extra exponent to probe")
    p.add_argument("--out", help="write the measure CSV here")
    p.set_defaults(func=_cmd_check_measure)

    p = sub.add_parser("oracle", help="closed-form curve targets and bias terms")
    _add_model_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("kernel", help="limit covariance kernel values")
    _add_model_args(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument(
        "--method", default="auto", choices=["auto", "iid", "tail", "mc"]
    )
    p.add_argument("--v", type=float, help="exceedance fraction (tail method)")
    p.add_argument("--K", type=int, default=50)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("mc", help="run a config-driven Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--figure1", action="store_true")
    p.add_argument("--normality", action="store_true")
    p.set_defaults(func=_cmd_mc)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.func(args)
    except _Usage as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except DegenerateDenominator as err:
        extra = f" (fallback {_fmt(err.fallback)})" if err.fallback is not None else ""
        print(f"{err.code}: {err}{extra}", file=sys.stderr)
        return 1
    except ExindexError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"INVALID_ARGUMENT: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"IO_ERROR: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
