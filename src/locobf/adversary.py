"""Bayesian adversary against a release matrix.

Given the prior and the matrix, the adversary forms the posterior over
true locations for each observed pseudo-location and attacks it either
by minimizing expected distance (the optimal attack) or by taking the
posterior mode (the Bayesian attack). The metrics here quantify what
those attacks achieve and what the mechanism costs in utility.
"""

from dataclasses import dataclass

import numpy as np

from . import _csvio
from .domain import _run_blocks, _spans, _workers

__all__ = [
    "posterior",
    "optimal_attack",
    "bayes_attack",
    "conditional_error",
    "quality_loss",
    "MetricsReport",
    "compute_metrics",
    "save_metrics",
    "load_metrics",
]


def posterior(domain, matrix, pseudo_id):
    """Posterior over true locations given one observed pseudo-location."""
    matrix._require_domain(domain)
    if not 0 <= pseudo_id < matrix.n:
        raise ValueError(f"unknown pseudo-location id {pseudo_id}")
    weighted = domain.priors * matrix.rows[:, pseudo_id]
    total = weighted.sum()
    if not total > 0:
        raise ValueError(f"pseudo-location {pseudo_id} is never reported")
    return weighted / total


def optimal_attack(domain, post):
    """Estimate minimizing posterior-expected distance; ties pick the lowest id."""
    costs = domain.distances @ np.asarray(post, dtype=float)
    return int(costs.argmin())


def bayes_attack(post):
    """Posterior mode; ties pick the lowest id."""
    return int(np.asarray(post).argmax())


def conditional_error(domain, matrix, pseudo_id):
    """Expected distance achieved by the optimal attack on one pseudo-location."""
    post = posterior(domain, matrix, pseudo_id)
    return float((domain.distances @ post).min())


def quality_loss(domain, matrix):
    """Prior-weighted mean distance between true and reported locations."""
    matrix._require_domain(domain)
    return _quality_loss(domain, matrix.rows, np.empty(matrix.rows.shape))


def _quality_loss(domain, rows, out):
    # quality_loss's floats, with its n x n products written into out a row block at a time
    def products(lo, hi):
        block = np.multiply(domain.priors[lo:hi, None], rows[lo:hi], out=out[lo:hi])
        block *= domain.distances[lo:hi]

    _run_blocks(products, _spans(len(rows), _BLOCK))
    return float(out.sum())


@dataclass(frozen=True)
class MetricsReport:
    """Scalar and per-id adversary metrics for one (domain, matrix) pair."""

    exp_err: float        # mean optimal-attack distance over the pseudo-location marginal
    qloss: float
    cond_err: np.ndarray  # per pseudo-location
    avg_err: np.ndarray   # per true location: its expected optimal-attack distance
    success: np.ndarray   # per true location: chance the Bayesian attack names it exactly

    NAMES = ("exp_err", "qloss", "cond_err", "avg_err", "success")


# rows per block of the per-true-location reductions; a block's
# temporaries are O(block * n)
_BLOCK = 256
# columns per block of the attack table when several workers build it
_COLUMNS = 512
# rows per comparison of _first_rows, which runs on every worker at once: with
# 512 columns its bool block and the ufunc buffer for target take about 36 KB
_SCAN = 8


def _first_rows(table, target):
    """Per column j, the lowest row i with table[i, j] == target[j].

    With target a column's max (or min) this is argmax's (or argmin's)
    answer, lowest id on ties, read along the rows of a row-major table
    instead of through the transposed copy an axis-0 argmax makes.
    """
    rows, n = table.shape
    first = np.full(n, rows)
    # one bool block serves every comparison; a new one per comparison made
    # perfbench's release-large peak RSS jump between 241 and 287 MiB by run
    hit = np.empty((_SCAN, n), dtype=bool)
    for lo in range(0, rows, _SCAN):
        block = np.equal(table[lo:lo + _SCAN], target, out=hit[:min(_SCAN, rows - lo)])
        i, j = np.divmod(np.flatnonzero(block), n)
        np.minimum.at(first, j, i + lo)
    return first


def compute_metrics(domain, matrix):
    """All adversary metrics in one vectorized pass: the attack table.

    The table is built in column blocks, independent of each other: a
    block forms its posterior columns and their marginal, the posterior
    mode, its columns of the attack costs distances @ posterior, and
    their minima, cond_err, and the optimal attack. Every n x n table is
    read along its rows. The posterior mode and the optimal attack are
    the first row that reaches the column's np.maximum.reduce or
    np.minimum.reduce over axis 0, which is what argmax and argmin over
    axis 0 return, without their transposed copies. No NaN can reach
    these reductions: the priors, the rows and the distances are finite
    and non-negative and every marginal is positive, so a product can
    overflow only to inf, which compares equal to itself. The quality
    loss is then summed whole in the costs' buffer, and avg_err reads
    row block distances[lo:hi] at the attacked ids, the floats of
    distances[attack, lo:hi].T because the table is exactly symmetric.
    success adds each mode's own columns; where a row is the mode of 3 or
    more columns, the order of the additions matters, so it sums that row
    whole, as the masked row sum it replaces did.

    With one worker (see domain._workers) the only block is the whole
    table, one product as BLAS picks it. With several, under one BLAS
    thread, the blocks are _COLUMNS wide (see domain._spans) and run on
    every worker; each holds an n x _COLUMNS posterior block beside the
    n x n costs.
    """
    matrix._require_domain(domain)
    rows, n = matrix.rows, matrix.n
    marginal, cond = np.empty(n), np.empty(n)
    mode, attack = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)

    def attack_columns(lo, hi, scratch):
        # every array here is contiguous, and einsum's product of the broadcast
        # priors needs no ufunc buffer: those buffers are up to 64 KB an operand
        post = np.einsum("i,ij->ij", domain.priors, rows[:, lo:hi],
                         out=scratch[:n * (hi - lo)].reshape(n, hi - lo))
        total = post.sum(axis=0)
        if (total <= 0).any():
            raise ValueError("some pseudo-location is never reported; posterior undefined")
        post /= total
        marginal[lo:hi] = total
        mode[lo:hi] = _first_rows(post, np.maximum.reduce(post, axis=0))
        block = np.matmul(domain.distances, post, out=held[n * lo:n * hi].reshape(n, hi - lo))
        cond[lo:hi] = np.minimum.reduce(block, axis=0)
        attack[lo:hi] = _first_rows(block, cond[lo:hi])

    workers = _workers()
    spans = _spans(n, _COLUMNS if workers > 1 else n)
    width = max(hi - lo for lo, hi in spans)
    # The costs and one posterior block per call that runs at once, in one
    # allocation: freed as one, they leave malloc's heap as the two n x n
    # arrays of one whole product do. Held apart, the blocks left about
    # 1.4 n^2 more resident after a call in perfbench's release-large.
    # The costs of columns lo:hi fill held[n * lo:n * hi], one contiguous block.
    held = np.empty(n * (n + min(workers, len(spans)) * width))
    _run_blocks(attack_columns, spans, list(held[n * n:].reshape(-1, n * width)))
    costs = held[:n * n].reshape(n, n)
    exp_err = float(cond @ marginal)
    # the costs are spent: their buffer takes the quality loss products, then avg_err's
    qloss = _quality_loss(domain, rows, costs)
    avg = np.empty(n)

    def attack_errors(lo, hi):
        # every id is in range; "clip" writes out directly, where "raise" buffers it
        terms = np.take(domain.distances[lo:hi], attack, axis=1, out=costs[lo:hi], mode="clip")
        terms *= rows[lo:hi]
        avg[lo:hi] = terms.sum(axis=1)

    _run_blocks(attack_errors, _spans(n, _BLOCK))
    del costs, held
    # one or two non-zero terms among zeros sum to the same float in any order
    success = np.bincount(mode, weights=rows[mode, np.arange(n)], minlength=n)
    crowded = np.flatnonzero(np.bincount(mode, minlength=n) >= 3)
    for lo in range(0, len(crowded), _BLOCK):
        ids = crowded[lo:lo + _BLOCK]
        success[ids] = (rows[ids] * (mode == ids[:, None])).sum(axis=1)
    return MetricsReport(exp_err, qloss, cond, avg, success)


_METRICS_HEADER = ["metric", "location_or_pseudo_id", "value"]


def save_metrics(report, stream, metrics=None):
    """Write metric,location_or_pseudo_id,value rows; scalars leave the id blank."""
    # a name asked for twice is written once, so every file written here loads back
    chosen = MetricsReport.NAMES if metrics is None else tuple(dict.fromkeys(metrics))
    unknown = [m for m in chosen if m not in MetricsReport.NAMES]
    if unknown:
        raise ValueError(
            f"unknown metric name {unknown[0]!r}; valid names: {', '.join(MetricsReport.NAMES)}"
        )
    rows = []
    for name in chosen:
        value = getattr(report, name)
        if np.ndim(value) == 0:
            rows.append([name, "", _csvio.num(float(value))])
        else:
            rows.extend([name, i, _csvio.num(float(v))] for i, v in enumerate(value))
    _csvio.write(stream, _METRICS_HEADER, rows)


def load_metrics(source):
    """Read back a metrics CSV into {metric: scalar or id->value dict}.

    A metric is either one scalar row or per-id rows; mixing the two, a
    repeated scalar or a repeated id raises a ValueError naming the line.
    """
    lines = _csvio.lines(source)
    if next(lines, (1, None))[1] != _METRICS_HEADER:
        raise ValueError("metrics header must be metric,location_or_pseudo_id,value")
    out = {}
    for lineno, row in lines:
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
        name, loc, value = row
        if name not in MetricsReport.NAMES:
            raise ValueError(f"line {lineno}: unknown metric name {name!r}")
        try:
            key = None if loc == "" else int(loc)
            value = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed numeric field") from None
        held = out.get(name)
        if key is None:
            if held is not None:
                kind = "per-id values" if isinstance(held, dict) else "a value"
                raise ValueError(f"line {lineno}: {name} already has {kind}")
            out[name] = value
        elif held is not None and not isinstance(held, dict):
            raise ValueError(f"line {lineno}: {name} already has a scalar value")
        elif key in out.setdefault(name, {}):
            raise ValueError(f"line {lineno}: duplicate id {key} for {name}")
        else:
            out[name][key] = value
    return out
