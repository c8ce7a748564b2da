"""Experiment engines: parameter sweeps and the worker-dispatch run.

A sweep scores every (algorithm, eps, em, seed) cell of a config with
the adversary metrics and writes the result CSVs. The dispatch run
scores one release by the travel distance of the workers it assigns.
Every random draw comes from a substream of the run's seed, one per
purpose, so adding a consumer never shifts another consumer's draws.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversary import compute_metrics
from .domain import (
    InfeasibleParamsError,
    PrivacyParams,
    assign_personal_eps,
    load_domain,
    synth_domain,
)
from .mechanism import (
    ObfuscationMatrix,
    build_matrix,
    build_matrix_constant,
    worker_travel_distance,
)
from .partition import best_hilbert_partition, weighted_avg_diameter
from .qkmeans import QkConfig, qk_partition

__all__ = [
    "ALGORITHMS",
    "SWEEP_METRICS",
    "SweepConfig",
    "parse_sweep_config",
    "aggregate_cells",
    "run_sweep",
    "run_partition",
    "run_wtd",
]

ALGORITHMS = ("hilbert", "qk", "qk-personalized", "em-baseline")
SWEEP_METRICS = ("qloss", "exp_err", "min_cond_err", "avg_diam", "num_pls")

# rng substream purposes, combined with the run's seed
_PURPOSE_PERSONAL_EPS = 2
_PURPOSE_WTD_TASKS = 3
_PURPOSE_WTD_WORKERS = 4

_DEFAULT_EPS_RANGE = (0.5, 1.5)


def _substream(seed, purpose):
    return np.random.default_rng([int(seed), int(purpose)])


def _personalize(domain, eps_range, seed):
    """The domain with per-location budgets, drawn from eps_range when it has none."""
    if domain.personal_eps is not None:
        return domain
    low, high = eps_range
    return assign_personal_eps(domain, low, high, [int(seed), _PURPOSE_PERSONAL_EPS])


def _walk(domain, params, order, walks):
    """The best curve walk, looked up in (and added to) the `walks` cache.

    `walks` maps params to the walk partition, or to the infeasibility
    it raised, which is raised again on every lookup.
    """
    if params not in walks:
        try:
            walks[params] = best_hilbert_partition(domain, params, order=order)
        except InfeasibleParamsError as exc:
            walks[params] = exc
    if isinstance(walks[params], InfeasibleParamsError):
        raise walks[params]
    return walks[params]


def _partition(domain, algorithm, params, qk_config, walks, order=None):
    """The partition one algorithm makes; qk-personalized reads the domain's budgets."""
    if algorithm == "hilbert":
        return _walk(domain, params, order, walks)
    return qk_partition(domain, params, qk_config, personalized=algorithm == "qk-personalized")


def _release(domain, algorithm, params, seed, walks):
    """(matrix, average set diameter, set count) for any algorithm, baseline included."""
    if algorithm == "em-baseline":
        d_max = max(p.diam for p in _walk(domain, params, None, walks).plss)
        return build_matrix_constant(domain, d_max, params.eps), d_max, 1
    part = _partition(domain, algorithm, params, QkConfig(seed=seed), walks)
    return build_matrix(domain, part), weighted_avg_diameter(domain, part.plss), part.k


def run_partition(domain, algorithm, params, seed, order=None, qk_config=None,
                  eps_range=_DEFAULT_EPS_RANGE):
    """(partition, the domain it covers) for one partitioning algorithm.

    qk-personalized draws per-location budgets from `eps_range` under
    `seed` when the domain has none; the returned domain carries them.
    `order` fixes the curve walk's grid order, and `qk_config` defaults
    to `QkConfig(seed=seed)`.
    """
    if algorithm == "em-baseline":
        raise ValueError(f"algorithm {algorithm!r} does not produce a partition")
    if algorithm == "qk-personalized":
        domain = _personalize(domain, eps_range, seed)
    config = qk_config or QkConfig(seed=seed)
    return _partition(domain, algorithm, params, config, {}, order), domain


def run_wtd(domain, algorithm, params, seed, tasks=100, idle=30,
            eps_range=_DEFAULT_EPS_RANGE):
    """(wtd_km, nonprivate_km): worker travel distance through one release.

    `tasks` task positions are drawn uniformly over the domain's bounding
    box. Workers report through the algorithm's matrix for wtd_km and
    truthfully for nonprivate_km; both runs replay the same idle-worker
    draws. qk-personalized budgets come from `eps_range` as in
    run_partition.
    """
    if algorithm == "qk-personalized":
        domain = _personalize(domain, eps_range, seed)
    matrix = _release(domain, algorithm, params, seed, {})[0]
    mins = domain.positions.min(axis=0)
    spans = domain.positions.max(axis=0) - mins
    points = mins + _substream(seed, _PURPOSE_WTD_TASKS).uniform(size=(tasks, 2)) * spans
    private = worker_travel_distance(domain, matrix, points, idle,
                                     _substream(seed, _PURPOSE_WTD_WORKERS))
    truthful = ObfuscationMatrix(np.eye(domain.n))
    nonprivate = worker_travel_distance(domain, truthful, points, idle,
                                        _substream(seed, _PURPOSE_WTD_WORKERS))
    return private, nonprivate


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
        if not all(seed >= 0 for seed in self.seeds):
            raise ValueError("seeds must be >= 0")


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


def _run_cell(domain, algorithm, eps, em, seed, walks):
    """Metric dict for one sweep cell, or None when the cell is infeasible.

    `walks` shares curve walks between cells, as in _walk.
    """
    try:
        matrix, avg_diam, num_pls = _release(domain, algorithm, PrivacyParams(eps, em), seed,
                                             walks)
    except InfeasibleParamsError:
        return None
    report = compute_metrics(domain, matrix)
    return {
        "qloss": report.qloss,
        "exp_err": report.exp_err,
        "min_cond_err": float(report.cond_err.min()),
        "avg_diam": avg_diam,
        "num_pls": num_pls,
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
