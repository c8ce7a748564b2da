"""Command-line harness: dataset synthesis, partitioning, evaluation,
parameter sweeps and a task-assignment simulation.

Exit codes: 0 success, 1 usage error, 2 infeasible privacy parameters,
3 unreadable or inconsistent input data.
"""

import argparse
import math
import sys

from . import _csvio
from .adversary import MetricsReport, compute_metrics, save_metrics
from .domain import (
    _EPS_MAX,
    _EPS_RULE,
    DomainFormatError,
    InfeasibleParamsError,
    PrivacyParams,
    load_domain,
    save_domain,
    synth_domain,
)
from .experiment import (
    _DEFAULT_EPS_RANGE,
    ALGORITHMS,
    _personalize,
    parse_sweep_config,
    run_partition,
    run_sweep,
    run_wtd,
)
from .hilbert import MAX_ORDER
from .mechanism import build_matrix, save_matrix
from .partition import load_partition, save_partition, weighted_avg_diameter
from .qkmeans import QkConfig

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _checked(cast, ok, requirement):
    """argparse type: cast the text, then require ok(value); NaN fails every bound."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid float value" errors
    return parse


_nonneg_int = _checked(int, lambda v: v >= 0, ">= 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
_nonneg_float = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_order = _checked(int, lambda v: 0 <= v <= MAX_ORDER, f"between 0 and {MAX_ORDER}")
_eps = _checked(float, lambda v: 0 < v <= _EPS_MAX, _EPS_RULE)


def _eps_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    low, high = float(parts[0]), float(parts[1])
    if not 0 < low <= high <= _EPS_MAX:
        raise argparse.ArgumentTypeError(f"need LO <= HI, both {_EPS_RULE}")
    return low, high


def cmd_synth(args):
    if args.prior_low > args.prior_high:
        raise _UsageError("need --prior-low <= --prior-high")
    domain = synth_domain(args.n, args.cell_km, args.prior_low, args.prior_high,
                          args.seed, args.grid_side)
    if args.eps_range is not None:
        domain = _personalize(domain, args.eps_range, args.seed)
    save_domain(domain, args.out or sys.stdout)
    return 0


def cmd_partition(args):
    if args.algorithm == "em-baseline":
        raise _UsageError("em-baseline does not produce a partition; use evaluate or sweep")
    domain = load_domain(args.dataset)
    params = PrivacyParams(args.eps, args.em, args.lam)
    config = QkConfig(max_samp=args.max_samp, max_iter=args.max_iter, seed=args.seed)
    part, dom = run_partition(domain, args.algorithm, params, args.seed, order=args.order,
                              qk_config=config, eps_range=args.eps_range)
    save_partition(part, args.out or sys.stdout)
    sizes = [p.size for p in part.plss]
    summary = (
        f"k={part.k} avg_diam_km={_csvio.num(weighted_avg_diameter(part.plss))} "
        f"min_size={min(sizes)} max_size={max(sizes)}"
    )
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_evaluate(args):
    domain = load_domain(args.dataset)
    partition = load_partition(domain, args.partition)
    metrics = tuple(m.strip() for m in args.metrics.split(",")) if args.metrics else None
    if metrics:
        unknown = [m for m in metrics if m not in MetricsReport.NAMES]
        if unknown:
            raise _UsageError(
                f"unknown metric {unknown[0]!r}; valid names: {', '.join(MetricsReport.NAMES)}"
            )
    matrix = build_matrix(domain, partition)
    if args.matrix_out:
        save_matrix(matrix, args.matrix_out)
    report = compute_metrics(domain, matrix)
    save_metrics(report, args.out or sys.stdout, metrics)
    return 0


def cmd_sweep(args):
    run_sweep(parse_sweep_config(args.config), args.out)
    return 0


def cmd_wtd(args):
    domain = load_domain(args.dataset)
    params = PrivacyParams(args.eps, args.em, args.lam)
    private, reference = run_wtd(domain, args.algorithm, params, args.seed, args.tasks,
                                 args.idle, args.eps_range)
    private, reference = _csvio.num(private), _csvio.num(reference)
    if args.out:
        _csvio.write(args.out, ["metric", "value"],
                     [["wtd_km", private], ["nonprivate_km", reference]])
    print(f"wtd_km={private} nonprivate_km={reference}")
    return 0


def build_parser():
    parser = _Parser(prog="locobf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    def seeded(p):
        p.add_argument("--seed", type=_nonneg_int, default=0, help="master RNG seed")
        common(p)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--n", type=_checked(int, lambda v: v >= 2, ">= 2"), required=True)
    p.add_argument("--cell-km", type=_positive_float, default=1.0, dest="cell_km")
    p.add_argument("--prior-low", type=_nonneg_float, default=0.01, dest="prior_low")
    p.add_argument("--prior-high", type=_nonneg_float, default=0.03, dest="prior_high")
    p.add_argument("--grid-side", type=_positive_int, default=16, dest="grid_side")
    p.add_argument("--eps-range", type=_eps_pair, default=None, dest="eps_range",
                   help="add per-location budgets drawn uniformly from LO,HI")
    seeded(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("partition", help="partition a dataset into protection sets")
    p.add_argument("--dataset", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="hilbert")
    p.add_argument("--eps", type=_eps, required=True)
    p.add_argument("--em", type=_nonneg_float, required=True)
    p.add_argument("--lam", type=_nonneg_float, default=0.5)
    p.add_argument("--order", type=_order, default=None, help="Hilbert grid order override")
    p.add_argument("--max-samp", type=_positive_int, default=10, dest="max_samp")
    p.add_argument("--max-iter", type=_positive_int, default=100, dest="max_iter")
    p.add_argument("--eps-range", type=_eps_pair, default=_DEFAULT_EPS_RANGE,
                   dest="eps_range",
                   help="budgets drawn for qk-personalized when the dataset has none")
    seeded(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("evaluate", help="adversary metrics for a stored partition")
    p.add_argument("--dataset", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--metrics", default=None,
                   help="comma-separated subset of " + ",".join(MetricsReport.NAMES))
    p.add_argument("--matrix-out", default=None, dest="matrix_out",
                   help="also write the release matrix CSV here")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("wtd", help="worker travel distance simulation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="hilbert")
    p.add_argument("--eps", type=_eps, required=True)
    p.add_argument("--em", type=_nonneg_float, required=True)
    p.add_argument("--lam", type=_nonneg_float, default=0.5)
    p.add_argument("--tasks", type=_positive_int, default=100)
    p.add_argument("--idle", type=_checked(int, lambda v: v >= 3, ">= 3"), default=30)
    p.add_argument("--eps-range", type=_eps_pair, default=_DEFAULT_EPS_RANGE,
                   dest="eps_range")
    seeded(p)
    p.set_defaults(func=cmd_wtd)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
