"""Core location-domain types and the geometric primitives built on them.

A domain is a finite set of discrete planar cells (kilometre coordinates)
carrying a normalized prior distribution and, optionally, a per-location
privacy budget. Everything downstream (partitioning, the release matrix,
the adversary metrics) works on these values.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DomainFormatError",
    "InfeasibleParamsError",
    "LocationDomain",
    "PrivacyParams",
    "diameter",
    "prior_mass",
    "min_mean_distance",
    "min_mean_distance_within",
    "satisfies_error_bound",
    "load_domain",
    "save_domain",
    "synth_domain",
    "assign_personal_eps",
]


class DomainFormatError(ValueError):
    """Raised when a dataset stream cannot be parsed into a valid domain."""


class InfeasibleParamsError(ValueError):
    """The requested privacy parameters admit no valid partition.

    Carries the offending budget, the error-floor target and the best
    floor the whole domain can deliver, so callers can report a usable
    diagnostic.
    """

    def __init__(self, eps, em, domain_floor):
        self.eps = float(eps)
        self.em = float(em)
        self.domain_floor = float(domain_floor)
        super().__init__(
            "infeasible parameters: the whole domain reaches a minimum mean "
            f"distance of {self.domain_floor:.6g} km but the bound requires "
            f"exp(eps)*em = {math.exp(self.eps) * self.em:.6g} km "
            f"(eps={self.eps:.6g}, em={self.em:.6g})"
        )


class LocationDomain:
    """Finite location set with a normalized prior, held as arrays.

    Row i of ``positions`` (km) and entry i of ``priors`` describe
    location id i. Priors are rescaled to sum to one (input masses only
    need a positive total); ``personal_eps``, when given, holds one
    finite budget > 0 per location. The stored arrays are read-only
    copies, so instances can be shared freely.
    """

    def __init__(self, positions, priors, personal_eps=None):
        positions = np.array(positions, dtype=float)
        priors = np.array(priors, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2 or len(positions) < 1:
            raise ValueError("positions must have shape (n, 2) with n >= 1")
        n = len(positions)
        if priors.shape != (n,):
            raise ValueError(f"priors must have shape ({n},)")
        if not np.isfinite(positions).all():
            raise ValueError("coordinates must be finite")
        if not (np.isfinite(priors) & (priors >= 0)).all():
            raise ValueError("priors must be finite and >= 0")
        # summed in row order: np.sum's pairwise order can move the priors' last bits
        total = sum(priors.tolist())
        if not total > 0:
            raise ValueError("priors must have positive total mass")
        if personal_eps is not None:
            personal_eps = np.array(personal_eps, dtype=float)
            if personal_eps.shape != (n,):
                raise ValueError(f"personal eps must have shape ({n},)")
            if not (np.isfinite(personal_eps) & (personal_eps > 0)).all():
                raise ValueError("personal eps must be finite and > 0")
        self.positions = positions
        self.priors = priors / total
        self.personal_eps = personal_eps
        with np.errstate(over="ignore"):
            dx = positions[:, 0][:, None] - positions[:, 0][None, :]
            dy = positions[:, 1][:, None] - positions[:, 1][None, :]
            self.distances = np.hypot(dx, dy)
        if not self.distances.max() < math.inf:
            raise ValueError("pairwise distances overflow float64; coordinates are too far apart")
        for arr in (self.positions, self.priors, self.distances, self.personal_eps):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self):
        return len(self.positions)

    @property
    def ids(self):
        return range(self.n)

    def __repr__(self):
        tag = "personalized" if self.personal_eps is not None else "uniform"
        return f"LocationDomain(n={self.n}, {tag})"


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget eps, error floor em (km) and budget-mismatch weight lam."""

    eps: float
    em: float
    lam: float = 0.5

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be finite and > 0")
        if not 0 <= self.em < math.inf:
            raise ValueError("em must be finite and >= 0")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and >= 0")


def _member_indices(domain, members):
    idx = np.array(sorted({int(m) for m in members}), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= domain.n):
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise ValueError(f"unknown location id {bad}")
    return idx


def diameter(domain, members):
    """Largest pairwise distance within the member set (0.0 for a singleton)."""
    idx = _member_indices(domain, members)
    if idx.size == 0:
        raise ValueError("diameter of an empty set is undefined")
    if idx.size == 1:
        return 0.0
    return float(domain.distances[idx[:, None], idx].max())


def prior_mass(domain, members):
    """Total prior mass of the member set; empty sets have mass 0.0."""
    idx = _member_indices(domain, members)
    return float(domain.priors[idx].sum()) if idx.size else 0.0


def _floor_or_none(domain, members):
    # error floor of a non-empty set, or None when its prior mass is zero
    idx = _member_indices(domain, members)
    if idx.size == 0:
        raise ValueError("member set must be non-empty")
    weights = domain.priors[idx]
    mass = weights.sum()
    if not mass > 0:
        return None
    return float((domain.distances[:, idx] @ weights).min() / mass)


def min_mean_distance(domain, members):
    """Error floor of a set: smallest prior-weighted mean distance to it.

    The candidate estimate ranges over the whole domain, so this is the
    best expected estimation error an adversary can achieve against a
    uniform report from the set. A singleton's floor is exactly 0.
    """
    floor = _floor_or_none(domain, members)
    if floor is None:
        raise ValueError("member set has zero prior mass")
    return floor


def min_mean_distance_within(domain, members):
    """Like min_mean_distance but the candidate estimate stays in the set.

    Never smaller than the unrestricted floor; the gap can be strict when
    the best estimate lies outside the set (e.g. a point central to a
    spread-out triangle).
    """
    idx = _member_indices(domain, members)
    if idx.size == 0:
        raise ValueError("member set must be non-empty")
    weights = domain.priors[idx]
    mass = weights.sum()
    if not mass > 0:
        raise ValueError("member set has zero prior mass")
    return float((domain.distances[np.ix_(idx, idx)] @ weights).min() / mass)


def satisfies_error_bound(domain, members, eps_region, em):
    """Whether the set's error floor reaches exp(eps_region) * em.

    This is the admission test every protection set must pass. The
    comparison is exact floating point; no slack is added on either side.
    A set of zero prior mass has no floor and never passes.
    """
    if not eps_region > 0:
        raise ValueError("eps_region must be > 0")
    if em < 0:
        raise ValueError("em must be >= 0")
    floor = _floor_or_none(domain, members)
    return floor is not None and floor >= math.exp(eps_region) * em


# Partitioners decide admission from running sums and call the exact test
# only near the threshold. The running floor (products p_i * d(c, i)
# summed in join order, over the summed member priors) and the exact
# floor of satisfies_error_bound (a mat-vec over the sorted members, any
# summation order) are each a sum of at most n non-negative products
# divided by a sum of at most n non-negative priors. Each lies within a
# relative (2n + 3) * 2**-53 of the real-number floor (the recursive
# summation bound, which holds for every order and is only tightened by
# fused multiply-adds), so the two differ by less than (4n + 6) * 2**-53,
# and the margin rtol = 8 * (n + 2) * 2**-53 at least doubles that. The bound
# assumes no product underflows and nothing overflows: underflow costs at
# most n * 2**-1074 absolute, which is negligible once the smallest
# running sum is at least 2**-900, and a smaller or NaN sum, or a floor
# above 2**900, goes to the exact test too.
_SUM_LOW = 2.0 ** -900
_FLOOR_HIGH = 2.0 ** 900


def _admits(domain, members, low_sum, mass, eps_region, em):
    """satisfies_error_bound(domain, members, eps_region, em) from running sums.

    low_sum is the members' smallest prior-weighted distance sum over
    candidate estimates and mass their prior mass, each summed in any
    order. Outside a certified margin around the threshold they decide;
    inside it the exact test does, so the answer is always the exact one.
    """
    if not mass > 0:
        return False
    threshold = math.exp(eps_region) * em
    floor = low_sum / mass
    if _SUM_LOW <= low_sum and floor <= _FLOOR_HIGH:
        rtol = 8.0 * (domain.n + 2) * 2.0 ** -53
        if floor >= threshold * (1.0 + rtol):
            return True
        if floor < threshold * (1.0 - rtol):
            return False
    return satisfies_error_bound(domain, members, eps_region, em)


_HEADER = ["id", "x_km", "y_km", "prior"]


def load_domain(source):
    """Parse a dataset CSV with header id,x_km,y_km,prior[,eps].

    ``source`` may be a path or an open text stream. Priors are
    normalized; malformed rows raise DomainFormatError naming the line.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return load_domain(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DomainFormatError("line 1: empty dataset stream") from None
    header = [h.strip().lower() for h in header]
    if header != _HEADER and header != _HEADER + ["eps"]:
        raise DomainFormatError(
            "line 1: header must be id,x_km,y_km,prior with optional eps column"
        )
    has_eps = len(header) == 5
    rows = {}  # id -> (x, y, prior, eps)
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise DomainFormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            loc_id = int(row[0])
            x, y = float(row[1]), float(row[2])
            prior = float(row[3])
        except ValueError:
            raise DomainFormatError(f"line {lineno}: malformed numeric field") from None
        if loc_id in rows:
            raise DomainFormatError(f"line {lineno}: duplicate id {loc_id}")
        if prior < 0:
            raise DomainFormatError(f"line {lineno}: prior must be >= 0")
        eps = None
        if has_eps:
            cell = row[4].strip()
            if not cell:
                raise DomainFormatError(f"line {lineno}: eps column present but empty")
            try:
                eps = float(cell)
            except ValueError:
                raise DomainFormatError(f"line {lineno}: malformed eps value") from None
            if not 0 < eps < math.inf:
                raise DomainFormatError(f"line {lineno}: eps must be finite and > 0")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainFormatError(
                f"line {lineno}: location {loc_id}: coordinates must be finite"
            )
        if not math.isfinite(prior):
            raise DomainFormatError(
                f"line {lineno}: location {loc_id}: prior must be finite and >= 0"
            )
        rows[loc_id] = (x, y, prior, eps)
    n = len(rows)
    if n < 2:
        raise DomainFormatError("dataset must contain at least 2 locations")
    if sorted(rows) != list(range(n)):
        raise DomainFormatError("location ids must be exactly 0..n-1")
    xs, ys, priors, budgets = zip(*(rows[i] for i in range(n)))
    try:
        return LocationDomain(np.column_stack([xs, ys]), priors, budgets if has_eps else None)
    except ValueError as exc:
        raise DomainFormatError(str(exc)) from None


def save_domain(domain, stream):
    """Write the domain in the dataset CSV format (normalized priors).

    ``stream`` may be a path or an open text stream, like load_domain.
    """
    if isinstance(stream, (str, Path)):
        with open(stream, "w", newline="") as fh:
            save_domain(domain, fh)
        return
    writer = csv.writer(stream, lineterminator="\n")
    eps = domain.personal_eps
    writer.writerow(_HEADER + ([] if eps is None else ["eps"]))
    for i, ((x, y), prior) in enumerate(zip(domain.positions.tolist(), domain.priors.tolist())):
        row = [i, f"{x:.12g}", f"{y:.12g}", f"{prior:.12g}"]
        if eps is not None:
            row.append(f"{eps[i]:.12g}")
        writer.writerow(row)


def synth_domain(n, cell_km=1.0, prior_low=0.01, prior_high=0.03, seed=0, grid_side=16):
    """Deterministic synthetic domain on a grid_side x grid_side cell grid.

    Samples n distinct cell centers without replacement and draws each
    prior uniformly from [prior_low, prior_high] before normalization.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if grid_side < 1 or n > grid_side * grid_side:
        raise ValueError(f"grid of side {grid_side} has fewer than {n} cells")
    if not 0 < cell_km < math.inf:
        raise ValueError("cell_km must be finite and > 0")
    if not 0 <= prior_low <= prior_high < math.inf:
        raise ValueError("need 0 <= prior_low <= prior_high < inf")
    rng = np.random.default_rng(seed)
    flat = rng.choice(grid_side * grid_side, size=n, replace=False)
    xs = (flat % grid_side + 0.5) * cell_km
    ys = (flat // grid_side + 0.5) * cell_km
    priors = rng.uniform(prior_low, prior_high, size=n)
    return LocationDomain(np.column_stack([xs, ys]), priors)


def assign_personal_eps(domain, low, high, seed):
    """Copy of the domain with per-location budgets drawn U[low, high]."""
    if not 0 < low <= high < math.inf:
        raise ValueError("need 0 < low <= high < inf")
    rng = np.random.default_rng(seed)
    eps = rng.uniform(low, high, size=domain.n)
    return LocationDomain(domain.positions, domain.priors, eps)
