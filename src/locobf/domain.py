"""Core location-domain types and the geometric primitives built on them.

A domain is a finite set of discrete planar cells (kilometre coordinates)
carrying a normalized prior distribution and, optionally, a per-location
privacy budget. Everything downstream (partitioning, the release matrix,
the adversary metrics) works on these values.
"""

import copy
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import _csvio

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


# the largest budget eps whose e^eps is a finite float; math.exp overflows one ulp above it
_EPS_MAX = math.log(sys.float_info.max)
# what every eps check asks for, after "<name> must be "
_EPS_RULE = f"finite and > 0 with e^eps finite (at most {_EPS_MAX!r})"


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
        threshold = math.inf if self.eps > _EPS_MAX else math.exp(self.eps) * self.em
        super().__init__(
            "infeasible parameters: the whole domain reaches a minimum mean "
            f"distance of {self.domain_floor:.6g} km but the bound requires "
            f"exp(eps)*em = {threshold:.6g} km "
            f"(eps={self.eps:.6g}, em={self.em:.6g})"
        )

    def __reduce__(self):
        # pickle rebuilds the error from its three fields, not from its message
        return type(self), (self.eps, self.em, self.domain_floor)


# the variables that set the BLAS thread count; the first one set decides
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_pool = None  # ((pid, threads), executor) of the block runner, made on first use
_job_process = False  # set in a sweep's worker processes (see experiment._run_jobs)


def _workers():
    """Threads or processes for independent work: every core of the
    affinity mask when BLAS is pinned to one thread, else one. A BLAS that
    may use several threads spreads its products over the cores itself,
    and workers beside it would oversubscribe them. A sweep's worker
    process gets one, since its sibling processes use the other cores."""
    if _job_process:
        return 1
    value = next((os.environ[v] for v in _BLAS_VARS if os.environ.get(v)), None)
    if value is None or value.strip() != "1":
        return 1
    return len(os.sched_getaffinity(0))


def _spans(n, width):
    """(lo, hi) blocks of width rows or columns covering range(n).

    A remainder of at most width // 2 joins the block before it, so only
    a block covering all of range(n) can be that narrow. With one BLAS
    thread, OpenBLAS (the build numpy ships, on x86-64) rounds the last
    width % 8 columns of a product at most 192 columns wide, and a single
    column, unlike the same columns of a wider product; blocks of 257 or
    more columns gave the whole product's floats.
    """
    starts = list(range(0, max(n - width // 2, 1), width))
    return list(zip(starts, starts[1:] + [n]))


def _run_blocks(fn, spans, scratch=None):
    """fn(lo, hi) for every span, each call writing only its own block.

    With one span or one worker (see _workers) the calls run inline, in
    order; otherwise they run on a thread pool of _workers() threads, and
    the first span's error, if any, is raised once every call is done.

    With scratch, a list of at least min(_workers(), len(spans)) arrays,
    one for each call that can run at once, each call is fn(lo, hi,
    array) with an array that no other running call holds. Large arrays
    are best allocated by the caller: what a pool thread allocates comes
    from that thread's own malloc arena and stays resident there once
    freed.
    """
    global _pool
    threads = _workers()
    workers = min(threads, len(spans))
    free = None if scratch is None else list(scratch)

    def run(lo, hi):
        if free is None:
            return fn(lo, hi)
        array = free.pop()  # atomic, and some array is free while a call starts
        try:
            return fn(lo, hi, array)
        finally:
            free.append(array)

    if workers == 1:
        for lo, hi in spans:
            run(lo, hi)
        return
    key = (os.getpid(), threads)  # a forked child has none of its parent's threads
    if _pool is None or _pool[0] != key:
        from concurrent.futures import ThreadPoolExecutor

        _pool = (key, ThreadPoolExecutor(threads, thread_name_prefix="locobf-block"))
    futures = [_pool[1].submit(run, lo, hi) for lo, hi in spans]
    for future in futures:
        future.exception()  # waits, so no block outlives the call
    for future in futures:
        future.result()


def _close_pool():
    """Stop the block runner's threads, so that none is alive at a fork;
    the next _run_blocks that needs them makes new ones."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


# rows per block of the distance fill, and the side of its mirrored tiles
_BLOCK = 128


def _pairwise_distances(positions):
    """n x n Euclidean distances, filled a row block at a time.

    The table is exactly symmetric: the differences for (j, i) are the
    negated differences for (i, j), both correctly rounded, and hypot of
    negated arguments is the same float. So each row block runs hypot
    only from its diagonal tile rightwards, and the tiles right of the
    diagonal are mirrored into the column strip below it, one
    _BLOCK x _BLOCK tile at a time, so that each copy reads and writes
    cache-sized pieces. A block's temporaries are O(block * n), and
    np.hypot per element gives the same floats as one whole-matrix call.
    """
    xs, ys = positions[:, 0], positions[:, 1]
    n = len(positions)
    out = np.empty((n, n))
    with np.errstate(over="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            block = out[lo:hi, lo:]
            np.subtract(xs[lo:hi, None], xs[None, lo:], out=block)
            np.hypot(block, ys[lo:hi, None] - ys[None, lo:], out=block)
            for right in range(hi, n, _BLOCK):
                out[right:right + _BLOCK, lo:hi] = out[lo:hi, right:right + _BLOCK].T
    return out


# The domain table uses np.hypot, which overflows only where the distance
# itself does. The distances below are np.linalg.norm's floats instead,
# sqrt(dx * dx + dy * dy), which the qk fill and worker dispatch were built
# on and their references use. The two formulas can differ in the last
# bit, so neither replaces the other.
def _planar_distances(xs, ys, x, y, out=None, scratch=None):
    """sqrt(dx * dx + dy * dy) for dx = xs - x and dy = ys - y, broadcast:
    the floats np.linalg.norm gives for each (dx, dy). out and scratch,
    when given, hold the result and dy's squares."""
    out = np.subtract(xs, x, out=out)
    out *= out
    dy = np.subtract(ys, y, out=scratch)
    dy *= dy
    out += dy
    return np.sqrt(out, out=out)


def _checked_budgets(personal_eps, n):
    """personal_eps as a read-only float array of n finite budgets > 0."""
    personal_eps = np.array(personal_eps, dtype=float)
    if personal_eps.shape != (n,):
        raise ValueError(f"personal eps must have shape ({n},)")
    if not ((personal_eps > 0) & (personal_eps <= _EPS_MAX)).all():
        raise ValueError(f"personal eps must be {_EPS_RULE}")
    personal_eps.setflags(write=False)
    return personal_eps


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
            personal_eps = _checked_budgets(personal_eps, n)
        self.positions = positions
        self.priors = priors / total
        self.personal_eps = personal_eps
        self.distances = _pairwise_distances(positions)
        if not self.distances.max() < math.inf:
            raise ValueError("pairwise distances overflow float64; coordinates are too far apart")
        for arr in (self.positions, self.priors, self.distances):
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
        if not 0 < self.eps <= _EPS_MAX:
            raise ValueError(f"eps must be {_EPS_RULE}")
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


def _geometry(domain, idx):
    # (prior mass, diameter) of the sorted, distinct, known ids idx
    diam = float(domain.distances[idx[:, None], idx].max()) if len(idx) > 1 else 0.0
    return float(domain.priors[idx].sum()), diam


def diameter(domain, members):
    """Largest pairwise distance within the member set (0.0 for a singleton)."""
    idx = _member_indices(domain, members)
    if idx.size == 0:
        raise ValueError("diameter of an empty set is undefined")
    return _geometry(domain, idx)[1]


def prior_mass(domain, members):
    """Total prior mass of the member set; empty sets have mass 0.0."""
    return _geometry(domain, _member_indices(domain, members))[0]


def _floor_or_none(domain, members, within=False):
    # error floor of a non-empty set, or None when its prior mass is zero;
    # the candidate estimates are the set's own members when within is set
    idx = _member_indices(domain, members)
    if idx.size == 0:
        raise ValueError("member set must be non-empty")
    weights = domain.priors[idx]
    mass = weights.sum()
    if not mass > 0:
        return None
    # The table is exactly symmetric (see _pairwise_distances), so the
    # candidates' columns distances[:, idx] are distances[idx].T: the same
    # floats in the same column-major layout that fancy indexing gives the
    # column gather, so BLAS takes the same kernel, while the row gather
    # reads whole rows. With every id the table is read in place.
    whole = idx.size == domain.n
    if within:
        table = domain.distances if whole else domain.distances[np.ix_(idx, idx)]
    else:
        table = (domain.distances if whole else domain.distances[idx]).T
    return float((table @ weights).min() / mass)


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
    floor = _floor_or_none(domain, members, within=True)
    if floor is None:
        raise ValueError("member set has zero prior mass")
    return floor


def satisfies_error_bound(domain, members, eps_region, em):
    """Whether the set's error floor reaches exp(eps_region) * em.

    This is the admission test every protection set must pass. The
    comparison is exact floating point; no slack is added on either side.
    A set of zero prior mass has no floor and never passes.
    """
    if not 0 < eps_region <= _EPS_MAX:
        raise ValueError(f"eps_region must be {_EPS_RULE}")
    if em < 0:
        raise ValueError("em must be >= 0")
    floor = _floor_or_none(domain, members)
    return floor is not None and floor >= math.exp(eps_region) * em


# Partitioners decide admission from running sums and compute the exact
# floor only near the threshold. The running floor (products p_i * d(c, i)
# summed in join order, over the summed member priors) and the exact
# floor of _floor_or_none (a mat-vec over the sorted members, any
# summation order) are each a sum of at most n non-negative products
# divided by a sum of at most n non-negative priors. Each lies within a
# relative (2n + 3) * 2**-53 of the real-number floor (the recursive
# summation bound, which holds for every order and is only tightened by
# fused multiply-adds), so the two differ by less than (4n + 6) * 2**-53,
# and the margin rtol = 8 * (n + 2) * 2**-53 at least doubles that. The bound
# assumes no product underflows and nothing overflows: underflow costs at
# most n * 2**-1074 absolute, which is negligible once the smallest
# running sum is at least 2**-900, and a smaller or NaN sum, or a floor
# above 2**900, goes to the exact floor too.
_SUM_LOW = 2.0 ** -900
_FLOOR_HIGH = 2.0 ** 900


def _margin(n):
    # the relative margin rtol around the threshold in a domain of n locations
    return 8.0 * (n + 2) * 2.0 ** -53


def _admits(domain, members, low_sum, mass, eps_region, em, record=None):
    """satisfies_error_bound(domain, members, eps_region, em) from running sums.

    low_sum is the members' smallest prior-weighted distance sum over
    candidate estimates and mass their prior mass, each summed in any
    order. Outside a certified margin around the threshold they decide;
    inside it the exact floor does, computed once and compared with the
    threshold as satisfies_error_bound compares it, so the answer is
    always the exact one.

    In the array form low_sum, mass and eps_region are equal-length
    arrays, one entry per candidate set, members(t) lists entry t's
    members, and the answer is a bool array. Each entry is a sure yes, a
    sure no or undecided by the same margin; only the undecided entries
    call members and go to the exact floor.

    record, when given, is called once with what decided the answers:
    record((floor, scale, certified, answer)), scalars or arrays as the
    call's own arguments. The threshold is scale * em, with scale =
    math.exp(eps_region). floor is the running floor where the margin
    decided (certified is true) and the exact floor where it did not; it
    is NaN for a set of zero mass, which no threshold admits.
    """
    rtol = _margin(domain.n)
    if isinstance(low_sum, np.ndarray):
        # the thresholds use math.exp, as the exact test does
        scale = np.array([math.exp(e) for e in eps_region.tolist()])
        threshold = scale * em
        weighed = mass > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            floor = low_sum / mass
        certified = weighed & (_SUM_LOW <= low_sum) & (floor <= _FLOOR_HIGH)
        yes = certified & (floor >= threshold * (1.0 + rtol))
        certified &= yes | (floor < threshold * (1.0 - rtol))
        for t in np.flatnonzero(weighed & ~certified).tolist():
            floor[t] = _floor_or_none(domain, members(t))
            yes[t] = floor[t] >= threshold[t]
        if record is not None:
            floor[~weighed] = math.nan
            record((floor, scale, certified, yes))
        return yes
    if not mass > 0:
        if record is not None:
            record((math.nan, math.exp(eps_region), False, False))
        return False
    scale = math.exp(eps_region)
    threshold = scale * em
    floor = low_sum / mass
    certified = _SUM_LOW <= low_sum and floor <= _FLOOR_HIGH
    if certified and floor >= threshold * (1.0 + rtol):
        answer = True
    elif certified and floor < threshold * (1.0 - rtol):
        answer = False
    else:
        certified = False
        floor = _floor_or_none(domain, members)
        answer = floor >= threshold
    if record is not None:
        record((floor, scale, certified, answer))
    return answer


_HEADER = ["id", "x_km", "y_km", "prior"]


def load_domain(source):
    """Parse a dataset CSV with header id,x_km,y_km,prior[,eps].

    ``source`` may be a path or an open text stream. Priors are
    normalized; malformed rows raise DomainFormatError naming the line.
    """
    lines = _csvio.lines(source)
    header = next(lines, (1, None))[1]
    if header is None:
        raise DomainFormatError("line 1: empty dataset stream")
    header = [h.strip().lower() for h in header]
    if header != _HEADER and header != _HEADER + ["eps"]:
        raise DomainFormatError(
            "line 1: header must be id,x_km,y_km,prior with optional eps column"
        )
    has_eps = len(header) == 5
    rows = {}  # id -> (x, y, prior, eps)
    for lineno, row in lines:
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
            if not 0 < eps <= _EPS_MAX:
                raise DomainFormatError(f"line {lineno}: eps must be {_EPS_RULE}")
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
    budgets = [] if domain.personal_eps is None else [domain.personal_eps]
    columns = np.column_stack([domain.positions, domain.priors] + budgets)
    _csvio.write(stream, _HEADER + ["eps"] * len(budgets),
                 ([i, *map(_csvio.num, values)] for i, values in enumerate(columns.tolist())))


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
    """Copy of the domain with per-location budgets drawn U[low, high].

    The copy shares the source's read-only positions, priors and
    distances, so it neither recomputes the distances nor renormalizes
    the priors.
    """
    if not 0 < low <= high < math.inf:
        raise ValueError("need 0 < low <= high < inf")
    rng = np.random.default_rng(seed)
    personal = copy.copy(domain)
    personal.personal_eps = _checked_budgets(rng.uniform(low, high, size=domain.n), domain.n)
    return personal
