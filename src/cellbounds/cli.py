"""Command-line front end: figure-style CSV sweeps and verification suites.

Defaults reproduce the reference configuration (P = 1, a = d = 4/sqrt(3),
h = 2, alpha = 4, SNR = 0 dB), so bare invocations emit the headline
tables.  Every output starts with ``#`` comment lines echoing the
parameters; identical flags and seed give byte-identical files.

Exit codes: 0 success, 1 usage or configuration error, 2 infeasible
analytic request, 3 any Monte Carlo violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

from ._textio import write_lines
from .bounds import _bound_rows
from .guarantees import (InfeasibleError, _critical_power_grid,
                         criticality_feasible, link_at_snr,
                         rate_always_active, rate_scheduled,
                         solve_critical_hk)
from .hexnet import REUSE, hardcore_for_reuse, hex_rate_sweep
from .pathloss import BoundedPowerLaw, DivergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VIOLATION = 3

_DEFAULT_A = 4 / math.sqrt(3.0)
_SUITES = ("ball", "interference", "scheduled", "all")
_MAX_GRID_POINTS = 10 ** 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    """An option's value as its ``#`` line prints it: a float, int, str or
    list of them."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return " ".join(map(_fmt, value))
    return str(value)


def _write_csv(args, header: list[str], rows, footer: list[str] = ()) -> None:
    """Write the CSV to ``args.out`` (default stdout).  It opens with one
    ``#`` line per set option, in declaration order, after the command.
    The lines are written as they are formatted."""
    write_lines(args.out or sys.stdout, itertools.chain(
        [f"# command = {args.subcommand}"],
        (f"# {key} = {_fmt(val)}" for key, val in vars(args).items()
         if key not in ("subcommand", "out", "func") and val is not None),
        [",".join(header)],
        _format_rows(rows),
        (f"# {note}" for note in footer)))


# the %-format of each type a CSV cell can have, matched exactly (a bool
# or a numpy scalar has none)
_EXACT_FORMATS = {float: "%.12g", int: "%d", str: "%s", type(None): "%.0s"}


def _format_rows(rows):
    """The CSV lines of ``rows``, whose cells are floats (printed to 12
    significant digits), ints, strs and Nones (printed empty).  The rows of
    one sequence of types share one %-format, built once."""
    formats = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(_EXACT_FORMATS[t] for t in types)
        yield fmt % row


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """The points lo, lo + step, ... up to hi (inclusive within step/2).

    Equal bit for bit to ``np.arange(lo, hi + step / 2, step)``: the same
    length, and numpy's fill rule lo + i*((lo + step) - lo) for i >= 2.
    A grid of more than ``_MAX_GRID_POINTS`` (10**6) points is a usage
    error, raised before any point is built.
    """
    if not all(map(math.isfinite, (lo, hi, step))):
        raise _UsageError("grid bounds and step must be finite")
    if step <= 0:
        raise _UsageError("grid step must be positive")
    if hi < lo:
        raise _UsageError("grid upper end must not be below the lower end")
    span = (hi + step / 2 - lo) / step
    if not span <= _MAX_GRID_POINTS:  # also catches hi + step/2 overflowing
        raise _UsageError(f"grid of {span:.3g} points is too long "
                          f"(more than {_MAX_GRID_POINTS})")
    length = math.ceil(span)
    if length < 2:
        return [lo][:length]
    delta = (lo + step) - lo
    return [lo, lo + step] + [lo + i * delta for i in range(2, length)]


def cmd_bound_compare(args) -> int:
    args.alpha = args.alpha or [2.5, 3.0, 4.0]
    h = args.hardcore
    # sweeping the exclusion radius directly: the serving distance d = t
    # realizes t = max(d, 2h - d) whenever t >= h, and h is the smallest
    # reachable exclusion radius
    distances = [max(t, h) for t in _grid(args.t_min, args.t_max,
                                          args.t_step)]
    rows = _bound_rows(map(BoundedPowerLaw, args.alpha), h, distances)
    _write_csv(args, ["t", "alpha", "new_bound", "legacy_bound"], rows)
    return EXIT_OK


def cmd_rate_vs_hk(args) -> int:
    link = link_at_snr(args.power, args.d, BoundedPowerLaw(args.alpha),
                       args.snr_db)
    aa = rate_always_active(link, args.hardcore, args.log_base)
    feasible = criticality_feasible(link, args.hardcore, args.k)
    hk_star = solve_critical_hk(link, args.hardcore, args.k) if feasible else None
    rows = []
    for h_k in _grid(args.hk_min, args.hk_max, args.hk_step):
        sched = rate_scheduled(link, args.k, h_k, args.log_base)
        rows.append((h_k, sched, aa, hk_star))
    footer = [] if feasible else [
        "criticality infeasible: log(1+SNR) < k*log(1+theta); "
        "always active dominates for every h_k"]
    _write_csv(args, ["H_K", "rate_scheduled", "rate_aa", "H_K_star"], rows,
               footer)
    return EXIT_OK


def cmd_critical_power(args) -> int:
    args.k = args.k or [3, 4]
    link = link_at_snr(args.power, args.d, BoundedPowerLaw(args.alpha),
                       args.snr_db)
    hk_grid = _grid(args.hk_min, args.hk_max, args.hk_step)
    rows = []
    for k, h_k, p in _critical_power_grid(link, args.hardcore, args.k,
                                          hk_grid):
        feasible = p is not None and p <= args.power
        rows.append((k, h_k, p, "true" if feasible else "false"))
    _write_csv(args, ["K", "H_K", "P_K_star", "feasible"], rows)
    return EXIT_OK


def cmd_hex_sweep(args) -> int:
    model = BoundedPowerLaw(args.alpha)
    snr_grid = _grid(args.snr_min, args.snr_max, args.snr_step)
    rows = hex_rate_sweep(args.a, args.power, model, snr_grid, args.log_base)
    _write_csv(args, ["snr_db", "rate_aa", "rate_k3", "rate_k4"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Run the verification suites.

    The suites run in one process per usable CPU (see
    :func:`cellbounds.montecarlo.run_suites`); the output is the same for
    any number of processes.
    """
    from .montecarlo import (ball_regulation_suite, interference_suite,
                             lattice_factory, matern_factory, run_suites,
                             scheduled_suite)
    from .pointset import Rect, color_lattice

    if args.trials < 0:
        raise _UsageError("--trials must be non-negative")
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative")
    model = BoundedPowerLaw(args.alpha)
    h = args.hardcore
    matern_window = Rect(0.0, args.window, 0.0, args.window)
    matern = matern_factory(args.intensity, 2 * h, matern_window)
    lattice = lattice_factory(args.a, args.lattice_half_width)

    suites = []
    if args.suite in ("ball", "all"):
        r_grid = [2.0, 4.0, 8.0, 16.0]
        suites.append(ball_regulation_suite(lattice, h, r_grid,
                                            args.trials, args.seed))
        suites.append(ball_regulation_suite(matern, h, r_grid,
                                            args.trials, args.seed + 1))
    if args.suite in ("interference", "all"):
        suites.append(interference_suite(lattice, h, model,
                                         min(args.trials, 1), args.seed))
        suites.append(interference_suite(matern, h, model,
                                          args.trials, args.seed + 2))
    if args.suite in ("scheduled", "all"):  # building checks the model
        scheduled = [scheduled_suite(color_lattice(lattice, k),
                                     hardcore_for_reuse(args.a, k), model,
                                     args.seed) for k in REUSE]
        suites += scheduled if args.trials > 0 else []
    reports = run_suites(suites)  # raises on a suite that checked nothing
    footer = [rep.summary() for rep in reports]
    _write_csv(args, ["seed", "d", "t", "realized", "bound", "ratio"],
               [(*r, r.ratio) for rep in reports for r in rep.records], footer)
    total = sum(rep.violations for rep in reports)
    for rep in reports:
        print(rep.summary())
    print(f"total violations: {total}")
    return EXIT_OK if total == 0 else EXIT_VIOLATION


@functools.cache
def build_parser() -> _Parser:
    """The parser, the only list of each command's options.  Declaration
    order is the order of the CSV's ``#`` lines.

    It is built once per process and shared by every caller, so treat it
    as read-only."""
    parser = _Parser(prog="cellbounds",
                     description="Worst-case interference and rate guarantees "
                                 "for hardcore-regulated cellular downlinks")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def alpha_option(p):
        p.add_argument("--alpha", type=float, default=4.0,
                       help="path-loss exponent")

    def link_options(p):
        p.add_argument("--hardcore", type=float, default=2.0)
        p.add_argument("--d", type=float, default=_DEFAULT_A)
        p.add_argument("--snr-db", type=float, default=0.0)
        alpha_option(p)
        p.add_argument("--power", type=float, default=1.0)
        p.add_argument("--hk-min", type=float, default=2.0)
        p.add_argument("--hk-max", type=float, default=8.0)
        p.add_argument("--hk-step", type=float, default=0.1)

    p = sub.add_parser("bound-compare",
                       help="new vs legacy interference bound over the "
                            "exclusion radius t")
    p.add_argument("--alpha", type=float, action="append",
                   help="path-loss exponent; repeatable")
    p.add_argument("--hardcore", type=float, default=1.0,
                   help="hardcore half-distance h")
    p.add_argument("--t-min", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-step", type=float, default=0.1)
    p.set_defaults(func=cmd_bound_compare)

    p = sub.add_parser("rate-vs-hk",
                       help="scheduled vs always-active rate over the class "
                            "separation h_k")
    p.add_argument("--k", type=int, default=3, help="reuse factor")
    link_options(p)
    p.add_argument("--log-base", choices=("nat", "2"), default="nat")
    p.set_defaults(func=cmd_rate_vs_hk)

    p = sub.add_parser("critical-power",
                       help="reduced power preserving the always-active "
                            "guarantee, over h_k")
    p.add_argument("--k", type=int, action="append",
                   help="reuse factor; repeatable")
    link_options(p)
    p.set_defaults(func=cmd_critical_power)

    p = sub.add_parser("hex-sweep",
                       help="hexagonal-network rate guarantees vs SNR")
    p.add_argument("--a", type=float, default=_DEFAULT_A,
                   help="hexagon edge length")
    alpha_option(p)
    p.add_argument("--power", type=float, default=1.0)
    p.add_argument("--snr-min", type=float, default=-15.0)
    p.add_argument("--snr-max", type=float, default=15.0)
    p.add_argument("--snr-step", type=float, default=0.1)
    p.add_argument("--log-base", choices=("nat", "2"), default="nat")
    p.set_defaults(func=cmd_hex_sweep)

    p = sub.add_parser("verify",
                       help="run the Monte Carlo and lattice verification "
                            "suites")
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    alpha_option(p)
    p.add_argument("--hardcore", type=float, default=2.0)
    p.add_argument("--a", type=float, default=_DEFAULT_A)
    p.add_argument("--intensity", type=float, default=0.1,
                   help="Poisson intensity before thinning")
    p.add_argument("--window", type=float, default=100.0,
                   help="side length of the Matern sampling window")
    p.add_argument("--lattice-half-width", type=float, default=40.0)
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out", type=str, default=None,
                       help="output CSV path (default: stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (DivergenceError, InfeasibleError) as exc:
        code, message = EXIT_INFEASIBLE, exc
    except MemoryError as exc:  # e.g. a sample too large to hold
        code, message = EXIT_USAGE, f"out of memory: {exc}"
    except (_UsageError, ValueError) as exc:
        # ValueError includes ConfigurationError and UnsupportedReuseError
        code, message = EXIT_USAGE, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
