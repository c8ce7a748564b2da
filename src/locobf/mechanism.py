"""Exponential release matrix over a partitioned domain.

Each true location reports a pseudo-location drawn from a row of the
matrix. Within a protection set the row decays with distance at rate
eps_region / (2 * diam), so any two members of the same set produce
nearly indistinguishable report distributions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _csvio
from .domain import _planar_distances

__all__ = [
    "ObfuscationMatrix",
    "build_matrix",
    "build_matrix_constant",
    "sample_pseudo",
    "worker_travel_distance",
    "save_matrix",
    "load_matrix_rows",
]

# Generator.choice's tolerance on the total of a float64 probability row
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))
# Lowest exponent of a row entry. Every normalized entry stays at or above
# e**-690 / n, a normal float for n below about 1e8, so no entry underflows
# to zero or a subnormal. The cap never moves two exponents farther apart,
# so the in-set log-ratio bound still holds.
_EXP_FLOOR = -690.0
# tasks per worker_travel_distance distance table, so the table stays in cache
_TASK_BLOCK = 128


@dataclass(frozen=True)
class ObfuscationMatrix:
    """Row-stochastic report distributions plus per-row provenance.

    rows[i, j] is the probability that true location i reports pseudo
    location j. The meta arrays record, per row, the protection-set
    index, the sensitivity (diameter) and the budget that shaped it;
    they are None for hand-built matrices.
    """

    rows: np.ndarray
    row_pls: np.ndarray | None = None
    row_sensitivity: np.ndarray | None = None
    row_eps: np.ndarray | None = None
    # true id -> that row's read-only CDF, built and checked on its first draw;
    # threads racing on a first draw store equal arrays, so the cache needs no lock
    _cdfs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError("rows must be a square matrix")
        # fmin skips NaN, so this is (rows < 0).any() without an n x n temporary
        if np.fmin.reduce(rows, axis=None) < 0:
            raise ValueError("probabilities must be >= 0")
        totals = rows.sum(axis=1)
        # with negatives ruled out, a NaN or infinite entry makes its row total non-finite
        if not np.isfinite(totals).all():
            raise ValueError("probabilities must be finite")
        if np.abs(totals - 1.0).max() > 1e-9:
            raise ValueError("every row must sum to 1 within 1e-9")
        rows = rows.view()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self):
        return self.rows.shape[0]

    def _require_domain(self, domain):
        # a matrix sized for another domain would index or broadcast against the wrong ids
        if self.n != domain.n:
            raise ValueError(f"matrix has {self.n} locations but the domain has {domain.n}")

    def _cdf(self, true_id):
        cdf = self._cdfs.get(true_id)
        if cdf is None:
            cdf = _choice_cdf(self.rows[true_id])
            cdf.setflags(write=False)
            self._cdfs[true_id] = cdf
        return cdf


def _exp_rows(domain, groups):
    """Release matrix from (row ids, diameter, eps) groups.

    Each row of a group decays with distance at rate eps / (2 * diameter);
    row_pls records the index of the group that shaped the row. Exponents
    below _EXP_FLOOR are raised to it. The rows are built in one in-place
    pass, so the matrix is the only n x n array.
    """
    n = domain.n
    row_pls = np.empty(n, dtype=int)
    row_sens = np.empty(n, dtype=float)
    row_eps = np.empty(n, dtype=float)
    scale = np.empty(n, dtype=float)
    for j, (ids, diam, eps) in enumerate(groups):
        row_pls[ids] = j
        row_sens[ids] = diam
        row_eps[ids] = eps
        scale[ids] = eps / (2.0 * diam)
    rows = np.multiply(domain.distances, -scale[:, None])
    np.maximum(rows, _EXP_FLOOR, out=rows)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1)[:, None]
    return ObfuscationMatrix(rows, row_pls, row_sens, row_eps)


def build_matrix(domain, partition):
    """Exponential rows for every location of a partitioned domain."""
    covered = sorted(m for pls in partition.plss for m in pls.members)
    if covered != list(range(domain.n)):
        raise ValueError("partition does not cover the domain of this matrix")
    for pls in partition.plss:
        if not pls.diam > 0:
            raise ValueError(
                f"protection set {pls.members} has zero diameter; rows would be degenerate"
            )
    return _exp_rows(domain, [(list(p.members), p.diam, p.eps_region) for p in partition.plss])


def build_matrix_constant(domain, d_const, eps):
    """Uniform-sensitivity baseline: every row uses the same diameter."""
    if not 0 < d_const < math.inf:
        raise ValueError("d_const must be finite and > 0")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be finite and > 0")
    return _exp_rows(domain, [(slice(None), d_const, eps)])


def _choice_cdf(p):
    """The CDF Generator.choice(n, p=p) searches, after choice's checks on p.

    A draw is cdf.searchsorted(rng.random(size), side="right"): the same
    ids and rng use as choice's. The checks are choice's, with the total
    read from the cumulative sum.
    """
    if p.min() < 0:
        raise ValueError("probabilities must be >= 0")
    cdf = p.cumsum()
    # a NaN or infinite entry (negatives ruled out) makes the total fail this bound too
    if not abs(cdf[-1] - 1.0) <= _CHOICE_ATOL:
        raise ValueError("probabilities must be finite and sum to 1")
    cdf /= cdf[-1]
    return cdf


def sample_pseudo(matrix, true_id, rng, size=None):
    """Draw pseudo-location ids from the row of true_id.

    Returns an int for size=None, otherwise an array of ids. The row's
    CDF is built and checked on its first draw and kept in the matrix.
    """
    if not 0 <= true_id < matrix.n:
        raise ValueError(f"unknown location id {true_id}")
    draw = matrix._cdf(true_id).searchsorted(rng.random(size), side="right")
    if size is None:
        return int(draw)
    return draw


def worker_travel_distance(domain, matrix, tasks, idle_count, rng):
    """Mean distance from assigned workers to their tasks.

    Idle workers are a uniform sample of locations; each reports one
    pseudo-location drawn from the matrix. Every task takes the three
    idle workers nearest by reported position (ties by worker id) and
    scores the mean distance from their actual positions; tasks are
    independent, so one worker may serve several. Draws read the row
    CDFs the matrix keeps, as sample_pseudo does.
    """
    matrix._require_domain(domain)
    tasks = np.atleast_2d(np.asarray(tasks, dtype=float))
    if tasks.shape[1] != 2:
        raise ValueError("tasks must be planar positions")
    if len(tasks) == 0:
        raise ValueError("need at least one task")
    if not np.isfinite(tasks).all():
        raise ValueError("task positions must be finite")
    if idle_count < 3:
        raise ValueError("need at least 3 idle workers")
    if idle_count > domain.n:
        raise ValueError("idle_count exceeds the number of workers")
    idle = np.sort(rng.choice(domain.n, size=idle_count, replace=False))
    # every row is checked before the draw, which yields the doubles of one call per worker
    cdfs = [matrix._cdf(w) for w in idle.tolist()]
    u = rng.random(len(idle)).tolist()
    reported = domain.positions[[cdf.searchsorted(x, side="right") for cdf, x in zip(cdfs, u)]]
    rx, ry = reported.T.copy()
    picks = np.empty((len(tasks), 3), dtype=np.intp)
    # one (block x idle) table and its scratch, reused by every block of tasks
    dist = np.empty((min(len(tasks), _TASK_BLOCK), len(idle)))
    dy = np.empty_like(dist)
    # idle is sorted, so column order is worker id order; a far task's squares
    # overflow to inf, and _nearest_three still picks its three workers by that rule
    with np.errstate(over="ignore"):
        for lo in range(0, len(tasks), _TASK_BLOCK):
            block = tasks[lo:lo + _TASK_BLOCK]
            picks[lo:lo + len(block)] = _nearest_three(rx, ry, block, dist[:len(block)],
                                                       dy[:len(block)])
        chosen = domain.positions[idle[picks]]
        to_task = _planar_distances(chosen[..., 0], chosen[..., 1], tasks[:, :1], tasks[:, 1:])
    # summed in chosen order, as a three-element mean() sums
    totals = (to_task[:, 0] + to_task[:, 1] + to_task[:, 2]) / 3
    return float(np.mean(totals))


def _nearest_three(rx, ry, block, dist, dy):
    """Columns of the three reports nearest each task, nearest first.

    Nearness is by (distance, column): the column order is the worker id
    order. Each argmin pass takes the nearest remaining report, which
    argmin breaks to the lowest column, and masks it with inf. Once a
    pass's minimum is inf the masks are indistinguishable from the rest,
    so those rows (all reports but at most two out of float range) are
    ranked by a stable sort of their distances instead.
    """
    _planar_distances(rx, ry, block[:, :1], block[:, 1:], dist, dy)
    rows = np.arange(len(block))
    picks = np.empty((len(block), 3), dtype=np.intp)
    for k in range(3):
        picks[:, k] = dist.argmin(axis=1)
        if k < 2:
            dist[rows, picks[:, k]] = np.inf
    # the minima only grow pass by pass, so a finite third one clears all three
    far = np.flatnonzero(dist[rows, picks[:, 2]] == np.inf)
    if far.size:
        again = _planar_distances(rx, ry, block[far, :1], block[far, 1:])
        picks[far] = np.argsort(again, axis=1, kind="stable")[:, :3]
    return picks


def save_matrix(matrix, stream):
    """Write the probabilities at 12 significant digits, one row per true id."""
    # formatted a row at a time: the whole matrix as Python floats would hold n^2 objects
    _csvio.write(stream, ["true_id", *map(str, range(matrix.n))],
                 ([i, *map(_csvio.num, row.tolist())] for i, row in enumerate(matrix.rows)))


def load_matrix_rows(source):
    """Read back a saved matrix; returns the bare probability array.

    Every entry must be finite and >= 0 and every row total within 1e-9
    of 1; a row that breaks this raises a ValueError naming its line.
    """
    lines = _csvio.lines(source)
    header = next(lines, (1, None))[1]
    if not header or header[0] != "true_id":
        raise ValueError("matrix header must start with true_id")
    n = len(header) - 1
    rows = np.empty((n, n))
    seen = set()
    for lineno, row in lines:
        try:
            i, values = int(row[0]), np.array([float(v) for v in row[1:]])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed numeric field") from None
        if len(values) != n or not 0 <= i < n:
            raise ValueError(f"line {lineno}: malformed matrix row for true id {row[0]}")
        if i in seen:
            raise ValueError(f"line {lineno}: duplicate row for true id {i}")
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError(f"line {lineno}: probabilities must be finite and >= 0")
        if not abs(values.sum() - 1.0) <= 1e-9:
            raise ValueError(f"line {lineno}: row for true id {i} must sum to 1 within 1e-9")
        seen.add(i)
        rows[i] = values
    if len(seen) != n:
        raise ValueError("matrix file is missing rows")
    return rows
