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
    # quality_loss's floats, with its n x n products written into out
    np.multiply(domain.priors[:, None], rows, out=out)
    out *= domain.distances
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


# rows per block of the row scans and per-true-location reductions; a block's
# temporaries are O(block * n)
_BLOCK = 256


def _first_rows(table, target):
    """Per column j, the lowest row i with table[i, j] == target[j].

    With target a column's max (or min) this is argmax's (or argmin's)
    answer, lowest id on ties, read along the rows of a row-major table
    instead of through the transposed copy an axis-0 argmax makes.
    """
    n = len(target)
    first = np.full(n, len(table))
    for lo in range(0, len(table), _BLOCK):
        i, j = np.divmod(np.flatnonzero(table[lo:lo + _BLOCK] == target), n)
        np.minimum.at(first, j, i + lo)
    return first


def compute_metrics(domain, matrix):
    """All adversary metrics in one vectorized pass: the attack table.

    Every n x n table is read along its rows. The posterior mode and the
    optimal attack are the first row that reaches the column's
    np.maximum.reduce or np.minimum.reduce over axis 0, which is what
    argmax and argmin over axis 0 return, without their transposed
    copies. No NaN can reach these reductions: the priors, the rows and
    the distances are finite and non-negative and every marginal is
    positive, so a product can overflow only to inf, which compares
    equal to itself. avg_err reads row block distances[lo:hi] at the
    attacked ids, the floats of distances[attack, lo:hi].T because the
    table is exactly symmetric. success adds each mode's own columns;
    where a row is the mode of 3 or more columns, the order of the
    additions matters, so it sums that row whole, as the masked row sum
    it replaces did.

    At most two n x n arrays are alive at once: the posterior and the
    attack costs, during their one product. The quality loss is summed
    in the costs' buffer once they are read. The product stays whole,
    because BLAS picks its kernel by shape, and a different kernel can
    move the last bits of cond_err.
    """
    matrix._require_domain(domain)
    rows, n = matrix.rows, matrix.n
    post = domain.priors[:, None] * rows
    marginal = post.sum(axis=0)
    if (marginal <= 0).any():
        raise ValueError("some pseudo-location is never reported; posterior undefined")
    post /= marginal
    mode = _first_rows(post, np.maximum.reduce(post, axis=0))
    costs = domain.distances @ post
    del post
    cond = np.minimum.reduce(costs, axis=0)
    attack = _first_rows(costs, cond)
    exp_err = float(cond @ marginal)
    qloss = _quality_loss(domain, rows, costs)  # the costs are spent; their buffer is reused
    del costs
    avg = np.empty(n)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        avg[lo:hi] = (rows[lo:hi] * domain.distances[lo:hi].take(attack, axis=1)).sum(axis=1)
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
