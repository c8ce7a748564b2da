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
    "Location",
    "LocationDomain",
    "PrivacyParams",
    "distance",
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


@dataclass(frozen=True)
class Location:
    """One discrete cell: id, planar position in km, prior mass, optional budget."""

    id: int
    pos: tuple[float, float]
    prior: float
    eps: float | None = None

    def __post_init__(self):
        x, y = self.pos
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"location {self.id}: coordinates must be finite")
        if not math.isfinite(self.prior) or self.prior < 0:
            raise ValueError(f"location {self.id}: prior must be finite and >= 0")
        if self.eps is not None and not self.eps > 0:
            raise ValueError(f"location {self.id}: eps must be > 0")


class LocationDomain:
    """Finite location set with a normalized prior.

    Locations are sorted so that ``locations[i].id == i`` and priors are
    rescaled to sum to one on construction (input masses only need a
    positive total). Instances are immutable after construction; the
    cached arrays are marked read-only so they can be shared freely.
    """

    def __init__(self, locations):
        locs = sorted(locations, key=lambda loc: loc.id)
        n = len(locs)
        if n < 1:
            raise ValueError("domain needs at least one location")
        if [loc.id for loc in locs] != list(range(n)):
            raise ValueError("location ids must be exactly 0..n-1 with no duplicates")
        with_eps = [loc.eps is not None for loc in locs]
        if any(with_eps) and not all(with_eps):
            raise ValueError("personal eps must be set for every location or none")
        total = float(sum(loc.prior for loc in locs))
        if not total > 0:
            raise ValueError("priors must have positive total mass")
        self.locations = tuple(
            Location(loc.id, (float(loc.pos[0]), float(loc.pos[1])),
                     loc.prior / total, loc.eps)
            for loc in locs
        )
        self.positions = np.array([loc.pos for loc in self.locations], dtype=float)
        self.priors = np.array([loc.prior for loc in self.locations], dtype=float)
        if all(with_eps):
            self.personal_eps = np.array([loc.eps for loc in self.locations], dtype=float)
        else:
            self.personal_eps = None
        dx = self.positions[:, 0][:, None] - self.positions[:, 0][None, :]
        dy = self.positions[:, 1][:, None] - self.positions[:, 1][None, :]
        self.distances = np.hypot(dx, dy)
        for arr in (self.positions, self.priors, self.distances, self.personal_eps):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self):
        return len(self.locations)

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
        if not self.eps > 0:
            raise ValueError("eps must be > 0")
        if not self.em >= 0:
            raise ValueError("em must be >= 0")
        if not self.lam >= 0:
            raise ValueError("lam must be >= 0")


def distance(a, b):
    """Euclidean distance in km between two locations."""
    return math.hypot(a.pos[0] - b.pos[0], a.pos[1] - b.pos[1])


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
    locs = []
    seen = set()
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
        if loc_id in seen:
            raise DomainFormatError(f"line {lineno}: duplicate id {loc_id}")
        seen.add(loc_id)
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
            if not eps > 0:
                raise DomainFormatError(f"line {lineno}: eps must be > 0")
        try:
            locs.append(Location(loc_id, (x, y), prior, eps))
        except ValueError as exc:
            raise DomainFormatError(f"line {lineno}: {exc}") from None
    if len(locs) < 2:
        raise DomainFormatError("dataset must contain at least 2 locations")
    try:
        return LocationDomain(locs)
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
    has_eps = domain.personal_eps is not None
    writer.writerow(_HEADER + (["eps"] if has_eps else []))
    for loc in domain.locations:
        row = [loc.id, f"{loc.pos[0]:.12g}", f"{loc.pos[1]:.12g}", f"{loc.prior:.12g}"]
        if has_eps:
            row.append(f"{loc.eps:.12g}")
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
    if not cell_km > 0:
        raise ValueError("cell_km must be > 0")
    if not 0 <= prior_low <= prior_high < math.inf:
        raise ValueError("need 0 <= prior_low <= prior_high < inf")
    rng = np.random.default_rng(seed)
    flat = rng.choice(grid_side * grid_side, size=n, replace=False)
    xs = (flat % grid_side + 0.5) * cell_km
    ys = (flat // grid_side + 0.5) * cell_km
    priors = rng.uniform(prior_low, prior_high, size=n)
    if not priors.sum() > 0:
        # all-zero draw is only possible when prior_low == prior_high == 0
        raise ValueError("drawn priors have zero total mass")
    locs = [Location(i, (float(xs[i]), float(ys[i])), float(priors[i])) for i in range(n)]
    return LocationDomain(locs)


def assign_personal_eps(domain, low, high, seed):
    """Copy of the domain with per-location budgets drawn U[low, high]."""
    if not 0 < low <= high:
        raise ValueError("need 0 < low <= high")
    rng = np.random.default_rng(seed)
    eps = rng.uniform(low, high, size=domain.n)
    locs = [
        Location(loc.id, loc.pos, loc.prior, float(eps[i]))
        for i, loc in enumerate(domain.locations)
    ]
    return LocationDomain(locs)
