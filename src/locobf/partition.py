"""Disjoint protection sets and the two-sided curve-walk builder.

A partition splits the domain into disjoint protection sets, each of
which must reach the error floor exp(eps_region) * em. The builder here
walks a Hilbert ordering inward from both ends, closing a set as soon as
it passes the bound, and reconciles whatever is left in the middle.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _csvio
from .domain import (
    _EPS_MAX,
    _EPS_RULE,
    InfeasibleParamsError,
    PrivacyParams,
    _admits,
    _geometry,
    _member_indices,
    min_mean_distance,
    satisfies_error_bound,
)
from .hilbert import all_rotations

__all__ = [
    "Pls",
    "Partition",
    "weighted_avg_diameter",
    "require_feasible",
    "partition_on_ordering",
    "best_hilbert_partition",
    "save_partition",
    "load_partition",
]


@dataclass(frozen=True)
class Pls:
    """One protection location set with its cached geometry and budget."""

    members: tuple  # sorted location ids
    diam: float
    mass: float
    eps_region: float

    @staticmethod
    def build(domain, members, eps_region):
        members = tuple(sorted(int(m) for m in members))
        if len(members) < 2:
            raise ValueError("a protection set needs at least 2 members")
        if len(set(members)) < len(members):
            raise ValueError("a protection set lists a location twice")
        if not 0 < eps_region <= _EPS_MAX:
            raise ValueError(f"eps_region must be {_EPS_RULE}")
        if members[0] < 0 or members[-1] >= domain.n:
            bad = members[0] if members[0] < 0 else members[-1]
            raise ValueError(f"unknown location id {bad}")
        mass, diam = _geometry(domain, np.array(members))
        return Pls(members, diam, mass, float(eps_region))

    @property
    def size(self):
        return len(self.members)


@dataclass(frozen=True)
class Partition:
    """A full disjoint cover of the domain by protection sets.

    ``params`` is None for partitions re-read from disk (the error floor
    is not stored in the file format); provenance records which
    algorithm and inputs produced the object.
    """

    plss: tuple
    params: PrivacyParams | None
    provenance: str

    @property
    def k(self):
        return len(self.plss)

    def validate(self, domain):
        """Raise ValueError on any structural or bound violation.

        The bound is checked only when ``params`` is known.
        """
        seen = set()
        for pls in self.plss:
            if len(pls.members) < 2:
                raise ValueError("protection set smaller than 2 members")
            if len(set(pls.members)) < len(pls.members):
                raise ValueError(f"protection set {pls.members} lists a location twice")
            overlap = seen.intersection(pls.members)
            if overlap:
                raise ValueError(f"location {min(overlap)} appears in two sets")
            seen.update(pls.members)
            mass, diam = _geometry(domain, _member_indices(domain, pls.members))
            if abs(pls.diam - diam) > 1e-9:
                raise ValueError("cached diameter out of sync with members")
            if abs(pls.mass - mass) > 1e-9:
                raise ValueError("cached mass out of sync with members")
            if self.params is not None:
                if not satisfies_error_bound(domain, pls.members, pls.eps_region, self.params.em):
                    raise ValueError(
                        f"protection set {pls.members} misses the error floor"
                    )
        if seen != set(domain.ids):
            raise ValueError("partition does not cover the domain exactly")


def weighted_avg_diameter(plss):
    """Mass-weighted mean diameter of the given protection sets."""
    return _mean_diameter([(p.mass, p.diam) for p in plss])


def _mean_diameter(geometry):
    # sum(mass * diam) / sum(mass) over (mass, diam) pairs, summed in list
    # order: the qk search compares these values exactly
    if not geometry:
        raise ValueError("need at least one protection set")
    total = sum(m for m, _ in geometry)
    if not total > 0:
        raise ValueError("protection sets have zero total mass")
    return float(sum(m * d for m, d in geometry) / total)


def _sets_wad(domain, sets, known=None):
    # weighted average diameter for raw id-lists (no Pls construction);
    # `known` keeps each set's (mass, diameter) by sorted members across calls
    if known is None:
        known = {}
    geometry = []
    for s in sets:
        key = tuple(sorted(s))
        if key not in known:
            # the callers' ids are distinct and valid
            known[key] = _geometry(domain, np.array(key))
        geometry.append(known[key])
    return _mean_diameter(geometry)


def require_feasible(domain, eps, em):
    """Raise InfeasibleParamsError unless the whole domain passes the bound."""
    if not satisfies_error_bound(domain, domain.ids, eps, em):
        raise InfeasibleParamsError(eps, em, min_mean_distance(domain, domain.ids))


class _Side:
    """A growing run of curve-consecutive locations with running geometry,
    started from the ids in first (in curve order)."""

    def __init__(self, domain, first):
        self.domain = domain
        self.members = []  # in curve order
        self.diam = 0.0
        self.sums = np.zeros(domain.n)  # prior-weighted distance from each location
        self.mass = 0.0
        for loc in first:
            self.add_right(loc)

    def _grow(self, loc):
        row = self.domain.distances[loc]
        if self.members:
            self.diam = max(self.diam, float(row[self.members].max()))
        p = float(self.domain.priors[loc])
        self.sums += p * row
        self.mass += p

    def add_right(self, loc):
        self._grow(loc)
        self.members.append(loc)

    def add_left(self, loc):
        self._grow(loc)
        self.members.insert(0, loc)

    def satisfies(self, eps, em):
        return _admits(self.domain, self.members, float(self.sums.min()), self.mass, eps, em)

    def min_dist_to(self, loc):
        return float(self.domain.distances[loc, self.members].min())


def partition_on_ordering(domain, ordering, params, *, known_feasible=False):
    """Split the domain along one Hilbert ordering.

    Two runs grow inward from the ends of the curve until they pass the
    error bound; the one with the larger diameter is closed and restarted
    whenever at least two locations remain between them. The leftover
    middle is merged, split between its closed neighbours at the cut that
    minimizes their mass-weighted mean diameter, or swallowed by the most
    recently closed set until the bound holds. The result is not
    validated; best_hilbert_partition validates the walk it keeps.
    known_feasible skips the whole-domain bound check (an n x n
    mat-vec), for a caller that already passed it at these params.
    """
    n = domain.n
    if n < 4:
        raise ValueError("partitioning needs at least 4 locations")
    eps, em = params.eps, params.em
    if not known_feasible:
        require_feasible(domain, eps, em)
    ranked = ordering.ids

    left_closed = []   # id-lists in curve order; also in closing order
    right_closed = []  # id-lists in curve order; right_closed[0] closed last
    close_seq = []     # 'L'/'R' close events, oldest first

    phi_l = _Side(domain, ranked[:2])
    phi_r = _Side(domain, ranked[n - 2:])
    lo, hi = 2, n - 3

    while True:
        while not phi_l.satisfies(eps, em) and lo <= hi:
            phi_l.add_right(ranked[lo])
            lo += 1
        while not phi_r.satisfies(eps, em) and lo <= hi:
            phi_r.add_left(ranked[hi])
            hi -= 1
        if hi - lo + 1 < 2:
            break
        # both sides pass here: growth only stops early when the middle empties
        if phi_l.diam >= phi_r.diam:  # tie closes the left side
            left_closed.append(phi_l.members)
            close_seq.append("L")
            phi_l = _Side(domain, ranked[lo:lo + 2])
            lo += 2
        else:
            right_closed.insert(0, phi_r.members)
            close_seq.append("R")
            phi_r = _Side(domain, ranked[hi - 1:hi + 1])
            hi -= 2

    if hi == lo:
        # lone middle location joins the side that is nearer in the plane
        loc = ranked[lo]
        if phi_l.min_dist_to(loc) <= phi_r.min_dist_to(loc):
            phi_l.add_right(loc)
        else:
            phi_r.add_left(loc)

    if phi_l.satisfies(eps, em) and phi_r.satisfies(eps, em):
        sets = left_closed + [phi_l.members, phi_r.members] + right_closed
    else:
        remainder = phi_l.members + phi_r.members
        while not satisfies_error_bound(domain, remainder, eps, em):
            cut = _best_remainder_split(domain, remainder, left_closed, right_closed, eps, em)
            if cut is not None:
                if remainder[:cut]:
                    left_closed[-1] = left_closed[-1] + remainder[:cut]
                if remainder[cut:]:
                    right_closed[0] = remainder[cut:] + right_closed[0]
                sets = left_closed + right_closed
                break
            # no valid cut: absorb the most recently closed neighbour and retry
            if not close_seq:
                raise AssertionError("remainder covers the domain yet fails a feasible bound")
            if close_seq.pop() == "L":
                remainder = left_closed.pop() + remainder
            else:
                remainder = remainder + right_closed.pop(0)
        else:  # the remainder passes on its own
            sets = left_closed + [remainder] + right_closed

    plss = tuple(Pls.build(domain, s, eps) for s in sets)
    return Partition(
        plss, params, f"hilbert(rotation={ordering.rotation},order={ordering.order})"
    )


def _best_remainder_split(domain, remainder, left_closed, right_closed, eps, em):
    """Cut index splitting the remainder between its closed neighbours.

    Tries every contiguous cut (empty halves included). A cut is valid
    when both enlarged neighbours still pass the bound; among valid cuts
    the one with the smallest mass-weighted mean diameter of the two
    neighbours wins. Returns None when no cut is valid or no neighbour
    exists on a needed side.
    """
    left = left_closed[-1] if left_closed else None
    right = right_closed[0] if right_closed else None
    if left is None and right is None:
        return None
    best_cut = None
    best_score = math.inf
    for cut in range(len(remainder) + 1):
        prefix, suffix = remainder[:cut], remainder[cut:]
        if (prefix and left is None) or (suffix and right is None):
            continue
        enlarged = []
        if left is not None:
            enlarged.append(left + prefix)
        if right is not None:
            enlarged.append(suffix + right)
        if not all(satisfies_error_bound(domain, s, eps, em) for s in enlarged):
            continue
        score = _sets_wad(domain, enlarged)
        if score < best_score:
            best_cut, best_score = cut, score
    return best_cut


def best_hilbert_partition(domain, params, order=None):
    """Best of the four rotated curve walks by weighted average diameter.

    Ties keep the earliest rotation (0, 90, 180, 270 order). Only the kept
    walk is validated. Feasibility is a property of the whole domain, so
    it is checked once, in the first rotation, which raises for
    infeasible parameters.
    """
    walks = (partition_on_ordering(domain, ordering, params, known_feasible=i > 0)
             for i, ordering in enumerate(all_rotations(domain, order)))
    best = min(walks, key=lambda part: weighted_avg_diameter(part.plss))
    best.validate(domain)
    return best


_PART_HEADER = ["pls_id", "location_id", "eps_region", "diam_km"]


def save_partition(partition, stream):
    """Write one membership row per location: pls_id,location_id,eps_region,diam_km."""
    _csvio.write(stream, _PART_HEADER,
                 ([j, m, _csvio.num(pls.eps_region), _csvio.num(pls.diam)]
                  for j, pls in enumerate(partition.plss) for m in pls.members))


def load_partition(domain, source):
    """Re-read a partition CSV against its domain.

    Membership is taken from the file; diameters and masses are
    recomputed and the stored diameter is checked against the recomputed
    one, so a file paired with the wrong dataset fails loudly.
    """
    lines = _csvio.lines(source)
    header = next(lines, (1, None))[1]
    if header is None or [h.strip().lower() for h in header] != _PART_HEADER:
        raise ValueError("partition header must be pls_id,location_id,eps_region,diam_km")
    members = {}
    stored = {}  # pls_id -> (eps_region, diam_km)
    listed = {}  # location id -> line that lists it
    for lineno, row in lines:
        if len(row) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields")
        try:
            pls_id = int(row[0])
            loc_id = int(row[1])
            pair = (float(row[2]), float(row[3]))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed numeric field") from None
        if not all(map(math.isfinite, pair)):
            raise ValueError(f"line {lineno}: eps_region and diam_km must be finite")
        first = listed.setdefault(loc_id, lineno)
        if first != lineno:
            raise ValueError(f"line {lineno}: location {loc_id} is already listed on line {first}")
        members.setdefault(pls_id, []).append(loc_id)
        if stored.setdefault(pls_id, pair) != pair:
            raise ValueError(f"line {lineno}: inconsistent eps_region or diam_km for set {pls_id}")
    if sorted(members) != list(range(len(members))):
        raise ValueError("pls_id values must be exactly 0..k-1")
    plss = []
    for pls_id in sorted(members):
        eps_region, diam = stored[pls_id]
        pls = Pls.build(domain, members[pls_id], eps_region)
        if not np.isclose(pls.diam, diam, rtol=1e-6, atol=1e-9):
            raise ValueError(
                f"set {pls_id}: stored diameter {diam} does not match "
                f"the dataset ({_csvio.num(pls.diam)})"
            )
        plss.append(pls)
    part = Partition(tuple(plss), None, "file")
    part.validate(domain)
    return part
