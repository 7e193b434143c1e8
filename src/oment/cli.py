"""Command-line interface: point, stability, sweep and figure subcommands.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
failure.  Every numerical failure marks its own point: ``point`` exits 3 where
the status is not ok (unstable, marginal, or error: a failed check, disagreeing
eta routes, an overflow), ``stability`` where the quartic gate's verdict is
undecided (where ``point`` reads error for an overflow), and a sweep or figure
writes the point's row.  An ArithmeticError or LinAlgError would exit 3 too,
but the pipeline raises none for input that passes its checks.

The argparse parser is built on the first :func:`main` call and kept, so
in-process callers (a benchmark, a test suite) share one parser; every call
parses into a fresh namespace, so no value carries over between calls.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from .gaussian import CM_SCALE, log_negativity_of
from .linmodel import coupling_threshold_blue, coupling_threshold_red, drift_matrix
from .linmodel import routh_conditions, spectral_abscissa
from .params import ConfigError, PhysicalParams, default_params, load_config
from .steadystate import SteadyState
from .sweep import FIGURE_NAMES, STATUS_OK, SweepSpec, emit, evaluate_point, figure_preset
from .sweep import run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="parameter config file (key = value)")
    parser.add_argument("--delta-norm", type=float, default=-1.0,
                        help="effective detuning in units of omega_m (default -1)")
    parser.add_argument("--beta", type=float, help="geometrical nonlinearity")
    parser.add_argument("--power-mw", type=float, help="input power in mW")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--temp-k", type=float, help="bath temperature in K")
    group.add_argument("--nth", type=float, help="bath occupation (overrides temperature)")


def _params_from_args(args: argparse.Namespace) -> tuple[PhysicalParams, float | None]:
    params = load_config(args.config) if args.config else default_params()
    updates = {}
    if getattr(args, "beta", None) is not None:
        updates["beta"] = args.beta
    if getattr(args, "power_mw", None) is not None:
        updates["power"] = args.power_mw * 1e-3
    if getattr(args, "temp_k", None) is not None:
        updates["temperature"] = args.temp_k
    if updates:
        params = replace(params, **updates)
    return params, getattr(args, "nth", None)


def _abscissa(params: PhysicalParams, steady: SteadyState) -> float:
    """Spectral abscissa of the point's drift matrix, NaN where that is not finite."""
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    a = drift_matrix(omega_m, gamma_m, kappa, steady.delta_eff, steady.g_eff, steady.beta)
    return float(spectral_abscissa(a))


def _cmd_point(args: argparse.Namespace) -> int:
    params, nth = _params_from_args(args)
    point = evaluate_point(params, args.delta_norm, nth)
    print(f"status={point.status}")
    print(f"n_s={_fmt(point.steady.n_s)}")
    print(f"g_eff={_fmt(point.steady.g_eff)}")
    if point.status != STATUS_OK:
        print(f"spectral_abscissa={_fmt(_abscissa(params, point.steady))}")
        if point.covariance is not None:  # solved, then failed a check: say which
            print(f"condition={_fmt(point.covariance.condition)}")
            print(f"residual={_fmt(point.covariance.residual)}")
        return EXIT_NUMERICAL
    report = point.report
    print(f"sigma_v={_fmt(report.sigma_v)}")
    print(f"det_v={_fmt(report.det_v)}")
    print(f"eta={_fmt(report.eta)}")
    print(f"log_negativity={_fmt(report.log_negativity)}")
    print(f"entangled={'true' if report.entangled else 'false'}")
    # the unrescaled CM is V / CM_SCALE, so its eta is eta / CM_SCALE
    raw = float(log_negativity_of(report.eta / CM_SCALE))
    if raw != report.log_negativity:
        print(f"log_negativity_raw_cm={_fmt(raw)}")
    return EXIT_OK


def _cmd_stability(args: argparse.Namespace) -> int:
    params, nth = _params_from_args(args)
    point = evaluate_point(params, args.delta_norm, nth)
    stability = point.stability
    s1, s2 = routh_conditions(
        params.omega_m, params.gamma_m, params.kappa, point.steady.delta_eff, point.steady.g_eff
    )
    print(f"s1={_fmt(s1)}")
    print(f"s2={_fmt(s2)}")
    print(f"routh_stable={'true' if s1 > 0 and s2 > 0 else 'false'}")
    print(f"spectral_abscissa={_fmt(_abscissa(params, point.steady))}")
    print(f"spectral_stable={'true' if stability.spectral_stable else 'false'}")
    print(f"g_eff={_fmt(point.steady.g_eff)}")
    print(f"g_threshold_blue={_fmt(coupling_threshold_blue(params))}")
    print(f"g_threshold_red={_fmt(coupling_threshold_red(params))}")
    # the quartic gate's verdict, as `point` reads it: a coefficient or
    # Hurwitz determinant beyond the float range leaves it undecided
    return EXIT_NUMERICAL if stability.undecided else EXIT_OK


def _parse_curves(text: str) -> tuple[str, tuple[float, ...]]:
    name, sep, values = text.partition("=")
    if not sep or not values:
        raise ConfigError(f"curves must look like 'beta=0,0.3,0.6', got {text!r}")
    try:
        parsed = tuple(float(v) for v in values.split(","))
    except ValueError as exc:
        raise ConfigError(f"invalid curve values in {text!r}") from exc
    return name.strip(), parsed


def _write_output(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        return
    try:
        with open(out, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    params, nth = _params_from_args(args)
    curve_param, curves = ("beta", None)
    if args.curves:
        curve_param, curves = _parse_curves(args.curves)
    spec = SweepSpec(
        axis=args.axis, start=args.start, stop=args.stop, count=args.count, fixed=params,
        delta_norm=args.delta_norm, n_th=nth, curve_param=curve_param, curves=curves,
    )
    _write_output(emit(run_sweep(spec), args.format), args.out)
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    params, _ = _params_from_args(args)
    spec = figure_preset(args.name, base=params)
    _write_output(emit(run_sweep(spec), args.format), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``oment`` parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="oment",
        description="Stationary optomechanical entanglement with geometrical nonlinearity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one operating point")
    _add_point_flags(point)
    point.set_defaults(func=_cmd_point)

    stability = sub.add_parser("stability", help="stability conditions and thresholds")
    _add_point_flags(stability)
    stability.set_defaults(func=_cmd_stability)

    sweep = sub.add_parser("sweep", help="sweep one axis, optionally with curves")
    _add_point_flags(sweep)
    sweep.add_argument("--axis", required=True, choices=("delta_norm", "beta", "n_th", "power"))
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--count", type=int, default=201)
    sweep.add_argument("--curves", help="second parameter, e.g. beta=0,0.3,0.6")
    sweep.add_argument("--out", help="output path (default stdout)")
    sweep.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    figure = sub.add_parser("figure", help="run a named figure preset")
    figure.add_argument("--config", help="parameter config file (key = value)")
    figure.add_argument("--name", required=True, choices=FIGURE_NAMES)
    figure.add_argument("--out", help="output path (default stdout)")
    figure.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    figure.set_defaults(func=_cmd_figure)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError but is a numerical failure
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
