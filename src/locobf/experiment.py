"""Experiment engines: parameter sweeps and the worker-dispatch run.

A sweep scores every (algorithm, eps, em, seed) cell of a config with
the adversary metrics and writes the result CSVs. The dispatch run
scores one release by the travel distance of the workers it assigns.
Every random draw comes from a substream of the run's seed, one per
purpose, so adding a consumer never shifts another consumer's draws.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _csvio
from . import domain as _domain
from .adversary import compute_metrics
from .domain import (
    _EPS_MAX,
    _EPS_RULE,
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
from .qkmeans import QkConfig, _Search

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
    it raised, which is raised again on every lookup with a fresh
    traceback, so earlier lookups' frames are not kept alive by it.
    """
    if params not in walks:
        try:
            walks[params] = best_hilbert_partition(domain, params, order=order)
        except InfeasibleParamsError as exc:
            walks[params] = exc
    if isinstance(walks[params], InfeasibleParamsError):
        raise walks[params].with_traceback(None)
    return walks[params]


def _qk_search(domain, algorithm, config, keep=False):
    """The qk search of a qk algorithm (None for the others); with keep it
    keeps its fills across the params it is asked for, so cells can share
    them."""
    if algorithm not in ("qk", "qk-personalized"):
        return None
    return _Search(domain, config, algorithm == "qk-personalized", None, keep)


def _partition(domain, algorithm, params, search, walks, order=None):
    """The partition one algorithm makes, the qk ones by their _qk_search;
    qk-personalized reads the domain's budgets."""
    if algorithm == "hilbert":
        return _walk(domain, params, order, walks)
    return search.partition(params)


def _release(domain, algorithm, params, search, walks):
    """(matrix, average set diameter, set count) for any algorithm, baseline included."""
    if algorithm == "em-baseline":
        d_max = max(p.diam for p in _walk(domain, params, None, walks).plss)
        return build_matrix_constant(domain, d_max, params.eps), d_max, 1
    part = _partition(domain, algorithm, params, search, walks)
    return build_matrix(domain, part), weighted_avg_diameter(part.plss), part.k


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
    search = _qk_search(domain, algorithm, qk_config or QkConfig(seed=seed))
    return _partition(domain, algorithm, params, search, {}, order), domain


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
    matrix = _release(domain, algorithm, params, _qk_search(domain, algorithm, QkConfig(seed=seed)),
                      {})[0]
    mins = domain.positions.min(axis=0)
    spans = domain.positions.max(axis=0) - mins
    points = mins + _substream(seed, _PURPOSE_WTD_TASKS).uniform(size=(tasks, 2)) * spans
    private = worker_travel_distance(domain, matrix, points, idle,
                                     _substream(seed, _PURPOSE_WTD_WORKERS))
    truthful = ObfuscationMatrix(np.eye(domain.n))
    nonprivate = worker_travel_distance(domain, truthful, points, idle,
                                        _substream(seed, _PURPOSE_WTD_WORKERS))
    return private, nonprivate


# what every value of a sweep config's numeric lists must be; NaN fails each test
_VALUE_RULES = {
    "eps_values": (lambda eps: 0 < eps <= _EPS_MAX, _EPS_RULE),
    "em_values": (lambda em: 0 <= em < math.inf, "finite and >= 0"),
    "seeds": (lambda seed: seed >= 0, ">= 0"),
}


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
            values = getattr(self, field)
            if not values:
                raise ValueError(f"{field} must be non-empty")
            # a repeated value would write every row of its cells again
            if len(set(values)) < len(values):
                raise ValueError(f"{field} repeats a value")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}; valid: {', '.join(ALGORITHMS)}")
        # checked up front: cells that share a result never build their own params
        for field, (ok, rule) in _VALUE_RULES.items():
            if not all(map(ok, getattr(self, field))):
                raise ValueError(f"{field} must be {rule}")


def parse_sweep_config(source):
    """Parse the flat key = value sweep format (comma-separated lists).

    A bad value, a synth: dataset spec included, raises ValueError naming its key and line.
    """
    values = {}  # key -> (line number, value text)
    with _csvio.opened(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in values:
                raise ValueError(f"line {lineno}: duplicate key {key!r}")
            values[key] = (lineno, val.strip())
    required = {"dataset", "eps_values", "em_values", "algorithms", "seeds", "output_dir"}
    missing = required - values.keys()
    if missing:
        raise ValueError(f"missing config keys: {', '.join(sorted(missing))}")
    unknown = values.keys() - required
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def parsed(key, parse):
        lineno, text = values[key]
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None

    def listed(key, cast):
        ok, rule = _VALUE_RULES.get(key, (None, None))

        def parse(text):
            items = tuple(cast(v) for v in text.split(","))
            for i, item in enumerate(items):
                if item in items[:i]:  # numerically: 1 repeats 1.0
                    raise ValueError(f"repeated value {item!r}")
                if ok is not None and not ok(item):
                    raise ValueError(f"value {item!r} must be {rule}")
            return items
        return parsed(key, parse)

    dataset = values["dataset"][1]
    if dataset.startswith("synth:"):
        parsed("dataset", _parse_synth_spec)
    return SweepConfig(
        dataset=dataset,
        eps_values=listed("eps_values", float),
        em_values=listed("em_values", float),
        algorithms=listed("algorithms", str.strip),
        seeds=listed("seeds", int),
        output_dir=values["output_dir"][1],
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


def _sweep_domains(dataset, seeds):
    """seed -> the domain its cells run on; a dataset file is read once for
    all seeds. A synth domain that fails to build (its distances can
    overflow for some seeds only) maps to its error, and no later seed
    is listed."""
    if not dataset.startswith("synth:"):
        return dict.fromkeys(seeds, load_domain(dataset))
    spec = _parse_synth_spec(dataset)
    domains = {}
    for seed in seeds:
        try:
            domains[seed] = synth_domain(seed=seed, **spec)
        except ValueError as exc:  # run_sweep raises it in the seed's turn
            domains[seed] = exc
            break
    return domains


def _run_cell(domain, algorithm, eps, em, search, walks):
    """Metric dict for one sweep cell, or None when the cell is infeasible.

    `search` shares qk fills between the cells of one algorithm and
    `walks` curve walks between cells, as in _walk.
    """
    try:
        matrix, avg_diam, num_pls = _release(domain, algorithm, PrivacyParams(eps, em), search,
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
            value = "NA" if values is None else _csvio.num(values[metric])
            cell = (_csvio.num(eps), _csvio.num(em), str(seed))
            long_rows.append((algorithm, *cell, metric, value))
            tables.setdefault((metric, algorithm), []).append((*cell, value))
    return long_rows, tables


def _run_job(config, seed, algorithms, base):
    """The values of one job's cells in config order, each a _run_cell
    result, followed by the error that stopped the job, if one did.

    The job's cells share its caches: a curve walk per params between
    the hilbert and em-baseline cells, and one search per qk algorithm.
    """
    values = []
    walks = {}
    try:
        for algorithm in algorithms:
            domain = base
            personalized = algorithm == "qk-personalized"
            if personalized:
                domain = _personalize(base, _DEFAULT_EPS_RANGE, seed)
            search = _qk_search(domain, algorithm, QkConfig(seed=seed), keep=True)
            done = {}
            for eps in config.eps_values:
                for em in config.em_values:
                    key = em if personalized else (eps, em)
                    if key not in done:
                        done[key] = _run_cell(domain, algorithm, eps, em, search, walks)
                    values.append(done[key])
    except Exception as exc:  # raised by run_sweep where the cell order reaches it
        values.append(exc)
    return values


_jobs = None  # in a sweep's worker process: the jobs it inherited at fork


def _start_job_process(jobs):
    """Initializer of a sweep's worker processes. They share the cores, so
    their blocks run inline."""
    global _jobs
    _jobs = jobs
    _domain._job_process = True


def _run_job_at(index):
    return _run_job(*_jobs[index])


def _run_jobs(jobs):
    """[_run_job(*job) for job in jobs], on a pool of _workers() processes
    when there are several workers and jobs and the platform can fork.

    The workers are forked after the jobs are made, so they inherit the
    domains: only job indices and cell values cross between processes.
    The block runner's threads are stopped before the fork, and every
    worker has exited when this returns or raises.
    """
    processes = min(_domain._workers(), len(jobs))
    if processes > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            _domain._close_pool()
            with ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                                     _start_job_process, (jobs,)) as pool:
                return list(pool.map(_run_job_at, range(len(jobs))))
    return [_run_job(*job) for job in jobs]


def run_sweep(config, output_dir=None):
    """Run every (algorithm, eps, em, seed) cell and write the result CSVs.

    Cells that must give the same result are computed once: hilbert and
    em-baseline cells of one seed share their curve walk, and
    qk-personalized cells that differ only in eps share everything,
    because per-location budgets replace eps there. The qk cells of one
    seed and algorithm share one search, which replays a fill of an
    earlier cell whenever its admission answers come out the same.

    Cells that share nothing run as separate jobs, on every core when
    BLAS is pinned to one thread (see _run_jobs): per seed, one job for
    the hilbert and em-baseline cells and one per qk algorithm. The
    result files do not depend on how the jobs ran, and a cell that
    raises raises here as it would have in the cell-by-cell order.
    """
    out_dir = Path(output_dir or config.output_dir)
    domains = _sweep_domains(config.dataset, config.seeds)
    walked = tuple(a for a in config.algorithms if a in ("hilbert", "em-baseline"))
    groups = ([walked] if walked else []) + [(a,) for a in config.algorithms if a not in walked]
    jobs = [(config, seed, group, domain) for seed, domain in domains.items()
            if not isinstance(domain, Exception) for group in groups]
    streams = {}  # (seed, algorithm) -> its job's values
    for (_, seed, algorithms, _), values in zip(jobs, _run_jobs(jobs)):
        stream = iter(values)
        streams.update({(seed, algorithm): stream for algorithm in algorithms})
    cells = []
    for seed in config.seeds:
        if isinstance(domains[seed], Exception):
            raise domains[seed]
        for algorithm in config.algorithms:
            for eps in config.eps_values:
                for em in config.em_values:
                    values = next(streams[seed, algorithm])
                    if isinstance(values, Exception):
                        raise values
                    cells.append((algorithm, eps, em, seed, values))
    long_rows, tables = aggregate_cells(cells)
    out_dir.mkdir(parents=True, exist_ok=True)
    _csvio.write(out_dir / "results.csv",
                 ["algorithm", "eps", "em", "seed", "metric", "value"], long_rows)
    for (metric, algorithm), rows in tables.items():
        _csvio.write(out_dir / f"{metric}__{algorithm}.csv", ["eps", "em", "seed", "value"], rows)
    return out_dir
