"""Exponential release matrix over a partitioned domain.

Each true location reports a pseudo-location drawn from a row of the
matrix. Within a protection set the row decays with distance at rate
eps_region / (2 * diam), so any two members of the same set produce
nearly indistinguishable report distributions.
"""

import csv
from pathlib import Path
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ObfuscationMatrix",
    "build_matrix",
    "build_matrix_constant",
    "sample_pseudo",
    "save_matrix",
    "load_matrix_rows",
]


@dataclass(frozen=True)
class ObfuscationMatrix:
    """Row-stochastic report distributions plus per-row provenance.

    rows[i, j] is the probability that true location i reports pseudo
    location j. The meta arrays record, per row, the protection-set
    index, the sensitivity (diameter) and the budget that shaped it;
    they are None for hand-built matrices. normalizers, when present,
    satisfy w(x) * sum_j exp(-eps * d(x, j) / (2 * diam)) = 1.
    """

    rows: np.ndarray
    row_pls: np.ndarray | None = None
    row_sensitivity: np.ndarray | None = None
    row_eps: np.ndarray | None = None
    normalizers: np.ndarray | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError("rows must be a square matrix")
        if (rows < 0).any():
            raise ValueError("probabilities must be >= 0")
        totals = rows.sum(axis=1)
        # with negatives ruled out, a NaN or infinite entry makes its row total non-finite
        if not np.isfinite(totals).all():
            raise ValueError("probabilities must be finite")
        if np.abs(totals - 1.0).max() > 1e-9:
            raise ValueError("every row must sum to 1 within 1e-9")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self):
        return self.rows.shape[0]


def _exp_rows(domain, groups):
    """Release matrix from (row ids, diameter, eps) groups.

    Each row of a group decays with distance at rate eps / (2 * diameter);
    row_pls records the index of the group that shaped the row.
    Scores are shifted by the row maximum before exponentiation; the row
    maximum is always the zero-distance self-report, so the shift keeps
    the arithmetic stable without changing any probability.
    """
    n = domain.n
    rows = np.empty((n, n), dtype=float)
    row_pls = np.empty(n, dtype=int)
    row_sens = np.empty(n, dtype=float)
    row_eps = np.empty(n, dtype=float)
    normalizers = np.empty(n, dtype=float)
    for j, (ids, diam, eps) in enumerate(groups):
        scale = eps / (2.0 * diam)
        # scores become weights in place: an all-rows group holds one n x n temporary
        weights = -scale * domain.distances[ids, :]
        shift = weights.max(axis=1, keepdims=True)
        weights -= shift
        np.exp(weights, out=weights)
        totals = weights.sum(axis=1)
        weights /= totals[:, None]
        rows[ids, :] = weights
        normalizers[ids] = np.exp(-shift.ravel()) / totals
        row_pls[ids] = j
        row_sens[ids] = diam
        row_eps[ids] = eps
    return ObfuscationMatrix(rows, row_pls, row_sens, row_eps, normalizers)


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
    if not d_const > 0:
        raise ValueError("d_const must be > 0")
    if not eps > 0:
        raise ValueError("eps must be > 0")
    return _exp_rows(domain, [(slice(None), d_const, eps)])


def sample_pseudo(matrix, true_id, rng, size=None):
    """Draw pseudo-location ids from the row of true_id.

    Returns an int for size=None, otherwise an array of ids.
    """
    if not 0 <= true_id < matrix.n:
        raise ValueError(f"unknown location id {true_id}")
    draw = rng.choice(matrix.n, size=size, p=matrix.rows[true_id])
    if size is None:
        return int(draw)
    return draw


def save_matrix(matrix, stream):
    """Write the probabilities at 12 significant digits, one row per true id."""
    if isinstance(stream, (str, Path)):
        with open(stream, "w", newline="") as fh:
            save_matrix(matrix, fh)
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["true_id"] + [str(j) for j in range(matrix.n)])
    for i in range(matrix.n):
        writer.writerow([i] + [f"{p:.12g}" for p in matrix.rows[i]])


def load_matrix_rows(source):
    """Read back a saved matrix; returns the bare probability array."""
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return load_matrix_rows(fh)
    reader = csv.reader(source)
    header = next(reader, None)
    if not header or header[0] != "true_id":
        raise ValueError("matrix header must start with true_id")
    n = len(header) - 1
    rows = np.full((n, n), np.nan)
    for row in reader:
        if not row:
            continue
        try:
            i = int(row[0])
        except ValueError:
            i = -1
        if len(row) != n + 1 or not 0 <= i < n:
            raise ValueError(f"malformed matrix row for true id {row[0]}")
        rows[i] = [float(v) for v in row[1:]]
    if np.isnan(rows).any():
        raise ValueError("matrix file is missing rows")
    return rows
