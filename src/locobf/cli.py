"""Command-line harness: dataset synthesis, partitioning, evaluation,
parameter sweeps and a task-assignment simulation.

Exit codes: 0 success, 1 usage error, 2 infeasible privacy parameters,
3 unreadable or inconsistent input data.
"""

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversary import MetricsReport, compute_metrics, save_metrics
from .domain import (
    DomainFormatError,
    InfeasibleParamsError,
    PrivacyParams,
    assign_personal_eps,
    load_domain,
    save_domain,
    synth_domain,
)
from .hilbert import MAX_ORDER
from .mechanism import (
    ObfuscationMatrix,
    build_matrix,
    build_matrix_constant,
    save_matrix,
    worker_travel_distance,
)
from .partition import (
    best_hilbert_partition,
    load_partition,
    save_partition,
    weighted_avg_diameter,
)
from .qkmeans import QkConfig, qk_partition

__all__ = [
    "ALGORITHMS",
    "SweepConfig",
    "parse_sweep_config",
    "run_sweep",
    "aggregate_cells",
    "worker_travel_distance",
    "main",
]

ALGORITHMS = ("hilbert", "qk", "qk-personalized", "em-baseline")
SWEEP_METRICS = ("qloss", "exp_err", "min_cond_err", "avg_diam", "num_pls")

# rng substream purposes, combined with the user seed so that adding a
# consumer never shifts another consumer's draws
_PURPOSE_PERSONAL_EPS = 2
_PURPOSE_WTD = 3

_DEFAULT_EPS_RANGE = (0.5, 1.5)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _substream(seed, purpose):
    return np.random.default_rng([int(seed), int(purpose)])


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


def _float_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    low, high = float(parts[0]), float(parts[1])
    if not 0 < low <= high < math.inf:
        raise argparse.ArgumentTypeError("need 0 < LO <= HI < inf")
    return low, high


def _open_out(args):
    if args.out:
        return open(args.out, "w", newline="")
    return sys.stdout


def _personalize(domain, eps_range, seed):
    if domain.personal_eps is not None:
        return domain
    low, high = eps_range
    return assign_personal_eps(domain, low, high, [int(seed), _PURPOSE_PERSONAL_EPS])


def _walk(domain, params, order, walks):
    """The best curve walk, looked up in (and added to) `walks` when given.

    `walks` maps params to the walk partition, or to the infeasibility
    it raised, which is raised again on every lookup.
    """
    if walks is None:
        return best_hilbert_partition(domain, params, order=order)
    if params not in walks:
        try:
            walks[params] = best_hilbert_partition(domain, params, order=order)
        except InfeasibleParamsError as exc:
            walks[params] = exc
    if isinstance(walks[params], InfeasibleParamsError):
        raise walks[params]
    return walks[params]


def _partition_for(domain, algorithm, params, seed, order=None, qk_config=None,
                   eps_range=_DEFAULT_EPS_RANGE, walks=None):
    """Partition (or baseline matrix inputs) for one algorithm choice."""
    if algorithm == "hilbert":
        return _walk(domain, params, order, walks), domain
    config = qk_config or QkConfig(seed=seed)
    if algorithm == "qk":
        return qk_partition(domain, params, config), domain
    if algorithm == "qk-personalized":
        dom = _personalize(domain, eps_range, seed)
        return qk_partition(dom, params, config, personalized=True), dom
    raise _UsageError(f"algorithm {algorithm!r} does not produce a partition")


def _matrix_for(domain, algorithm, params, seed, order=None, qk_config=None,
                eps_range=_DEFAULT_EPS_RANGE, walks=None):
    """Matrix plus descriptive extras for any algorithm, baseline included."""
    if algorithm == "em-baseline":
        base = _walk(domain, params, order, walks)
        d_max = max(p.diam for p in base.plss)
        return build_matrix_constant(domain, d_max, params.eps), domain, {
            "avg_diam": d_max, "num_pls": 1,
        }
    part, dom = _partition_for(domain, algorithm, params, seed, order, qk_config, eps_range,
                               walks)
    return build_matrix(dom, part), dom, {
        "avg_diam": weighted_avg_diameter(dom, part.plss),
        "num_pls": part.k,
    }


def cmd_synth(args):
    if args.prior_low > args.prior_high:
        raise _UsageError("need --prior-low <= --prior-high")
    domain = synth_domain(args.n, args.cell_km, args.prior_low, args.prior_high,
                          args.seed, args.grid_side)
    if args.eps_range is not None:
        low, high = args.eps_range
        domain = assign_personal_eps(domain, low, high,
                                     [args.seed, _PURPOSE_PERSONAL_EPS])
    out = _open_out(args)
    try:
        save_domain(domain, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_partition(args):
    domain = load_domain(args.dataset)
    if args.algorithm == "em-baseline":
        raise _UsageError("em-baseline does not produce a partition; use evaluate or sweep")
    params = PrivacyParams(args.eps, args.em, args.lam)
    config = QkConfig(max_samp=args.max_samp, max_iter=args.max_iter, seed=args.seed)
    part, dom = _partition_for(domain, args.algorithm, params, args.seed,
                               order=args.order, qk_config=config,
                               eps_range=args.eps_range)
    out = _open_out(args)
    try:
        save_partition(part, out)
    finally:
        if out is not sys.stdout:
            out.close()
    sizes = [p.size for p in part.plss]
    summary = (
        f"k={part.k} avg_diam_km={weighted_avg_diameter(dom, part.plss):.12g} "
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
        with open(args.matrix_out, "w", newline="") as fh:
            save_matrix(matrix, fh)
    report = compute_metrics(domain, matrix)
    out = _open_out(args)
    try:
        save_metrics(report, out, metrics)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


@dataclass(frozen=True)
class SweepConfig:
    """Grid of sweep cells plus where to put the result files."""

    dataset: str
    eps_values: tuple
    em_values: tuple
    algorithms: tuple
    seeds: tuple
    output_dir: str

    def __post_init__(self):
        for field in ("eps_values", "em_values", "algorithms", "seeds"):
            if not getattr(self, field):
                raise ValueError(f"{field} must be non-empty")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}; valid: {', '.join(ALGORITHMS)}")
        # checked up front: cells that share a result never build their own params
        if not all(0 < eps < math.inf for eps in self.eps_values):
            raise ValueError("eps_values must be finite and > 0")
        if not all(0 <= em < math.inf for em in self.em_values):
            raise ValueError("em_values must be finite and >= 0")


def parse_sweep_config(source):
    """Parse the flat key = value sweep format (comma-separated lists)."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return parse_sweep_config(fh)
    values = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    required = {"dataset", "eps_values", "em_values", "algorithms", "seeds", "output_dir"}
    missing = required - values.keys()
    if missing:
        raise ValueError(f"missing config keys: {', '.join(sorted(missing))}")
    unknown = values.keys() - required
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return SweepConfig(
        dataset=values["dataset"],
        eps_values=tuple(float(v) for v in values["eps_values"].split(",")),
        em_values=tuple(float(v) for v in values["em_values"].split(",")),
        algorithms=tuple(a.strip() for a in values["algorithms"].split(",")),
        seeds=tuple(int(v) for v in values["seeds"].split(",")),
        output_dir=values["output_dir"],
    )


def _parse_synth_spec(spec):
    kwargs = {}
    body = spec[len("synth:"):]
    casts = {"n": int, "grid_side": int, "cell_km": float,
             "prior_low": float, "prior_high": float}
    for item in filter(None, body.split(",")):
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in casts:
            raise ValueError(f"unknown synth dataset key {key!r}")
        kwargs[key] = casts[key](val)
    if "n" not in kwargs:
        raise ValueError("synth dataset spec needs n=<count>")
    return kwargs


def _resolve_domain(dataset, seed):
    if dataset.startswith("synth:"):
        return synth_domain(seed=seed, **_parse_synth_spec(dataset))
    return load_domain(dataset)


def _run_cell(domain, algorithm, eps, em, seed, walks=None):
    """Metric dict for one sweep cell, or None when the cell is infeasible.

    `walks` shares curve walks between cells, as in _walk.
    """
    params = PrivacyParams(eps, em)
    try:
        matrix, dom, extras = _matrix_for(domain, algorithm, params, seed, walks=walks)
    except InfeasibleParamsError:
        return None
    report = compute_metrics(dom, matrix)
    return {
        "qloss": report.qloss,
        "exp_err": report.exp_err,
        "min_cond_err": float(report.cond_err.min()),
        "avg_diam": extras["avg_diam"],
        "num_pls": extras["num_pls"],
    }


def aggregate_cells(cells):
    """Long-format rows plus per-(metric, algorithm) tables.

    Pure function of the per-cell results: aggregating the same cells
    twice gives identical output.
    """
    long_rows = []
    tables = {}
    for algorithm, eps, em, seed, values in cells:
        for metric in SWEEP_METRICS:
            value = "NA" if values is None else f"{values[metric]:.12g}"
            long_rows.append((algorithm, f"{eps:.12g}", f"{em:.12g}", str(seed), metric, value))
            tables.setdefault((metric, algorithm), []).append(
                (f"{eps:.12g}", f"{em:.12g}", str(seed), value)
            )
    return long_rows, tables


def run_sweep(config, output_dir=None):
    """Run every (algorithm, eps, em, seed) cell and write the result CSVs.

    Cells that must give the same result are computed once: hilbert and
    em-baseline cells of one seed share their curve walk, and
    qk-personalized cells that differ only in eps share everything,
    because per-location budgets replace eps there.
    """
    out_dir = Path(output_dir or config.output_dir)
    cells = []
    for seed in config.seeds:
        base = _resolve_domain(config.dataset, seed)
        walks = {}
        for algorithm in config.algorithms:
            domain = base
            personalized = algorithm == "qk-personalized"
            if personalized:
                domain = _personalize(base, _DEFAULT_EPS_RANGE, seed)
            done = {}
            for eps in config.eps_values:
                for em in config.em_values:
                    key = em if personalized else (eps, em)
                    if key not in done:
                        done[key] = _run_cell(domain, algorithm, eps, em, seed, walks)
                    cells.append((algorithm, eps, em, seed, done[key]))
    long_rows, tables = aggregate_cells(cells)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", "eps", "em", "seed", "metric", "value"])
        writer.writerows(long_rows)
    for (metric, algorithm), rows in tables.items():
        with open(out_dir / f"{metric}__{algorithm}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["eps", "em", "seed", "value"])
            writer.writerows(rows)
    return out_dir


def cmd_sweep(args):
    config = parse_sweep_config(args.config)
    run_sweep(config, args.out)
    return 0


def cmd_wtd(args):
    domain = load_domain(args.dataset)
    params = PrivacyParams(args.eps, args.em, args.lam)
    matrix, dom, _ = _matrix_for(domain, args.algorithm, params, args.seed,
                                 eps_range=args.eps_range)
    mins = dom.positions.min(axis=0)
    spans = dom.positions.max(axis=0) - mins
    task_rng = _substream(args.seed, _PURPOSE_WTD)
    tasks = mins + task_rng.uniform(size=(args.tasks, 2)) * spans
    private = worker_travel_distance(dom, matrix, tasks, args.idle,
                                     _substream(args.seed, _PURPOSE_WTD + 1))
    identity = ObfuscationMatrix(np.eye(dom.n))
    reference = worker_travel_distance(dom, identity, tasks, args.idle,
                                       _substream(args.seed, _PURPOSE_WTD + 1))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["metric", "value"])
            writer.writerow(["wtd_km", f"{private:.12g}"])
            writer.writerow(["nonprivate_km", f"{reference:.12g}"])
    print(f"wtd_km={private:.12g} nonprivate_km={reference:.12g}")
    return 0


def build_parser():
    parser = _Parser(prog="locobf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_nonneg_int, default=0, help="master RNG seed")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--n", type=_checked(int, lambda v: v >= 2, ">= 2"), required=True)
    p.add_argument("--cell-km", type=_positive_float, default=1.0, dest="cell_km")
    p.add_argument("--prior-low", type=_nonneg_float, default=0.01, dest="prior_low")
    p.add_argument("--prior-high", type=_nonneg_float, default=0.03, dest="prior_high")
    p.add_argument("--grid-side", type=_positive_int, default=16, dest="grid_side")
    p.add_argument("--eps-range", type=_float_pair, default=None, dest="eps_range",
                   help="add per-location budgets drawn uniformly from LO,HI")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("partition", help="partition a dataset into protection sets")
    p.add_argument("--dataset", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="hilbert")
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--em", type=_nonneg_float, required=True)
    p.add_argument("--lam", type=_nonneg_float, default=0.5)
    p.add_argument("--order", type=_order, default=None, help="Hilbert grid order override")
    p.add_argument("--max-samp", type=_positive_int, default=10, dest="max_samp")
    p.add_argument("--max-iter", type=_positive_int, default=100, dest="max_iter")
    p.add_argument("--eps-range", type=_float_pair, default=_DEFAULT_EPS_RANGE,
                   dest="eps_range",
                   help="budgets drawn for qk-personalized when the dataset has none")
    common(p)
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
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--em", type=_nonneg_float, required=True)
    p.add_argument("--lam", type=_nonneg_float, default=0.5)
    p.add_argument("--tasks", type=_positive_int, default=100)
    p.add_argument("--idle", type=_checked(int, lambda v: v >= 3, ">= 3"), default=30)
    p.add_argument("--eps-range", type=_float_pair, default=_DEFAULT_EPS_RANGE,
                   dest="eps_range")
    common(p)
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
