"""Planar cluster search for protection sets.

Alternative to the curve walk: centers are seeded distance-
proportionally, locations greedily join their nearest still-open
cluster until every cluster passes the error bound, and the cluster
count k grows as long as the mass-weighted mean diameter keeps
improving. With per-location budgets the joining distance is scaled by
a budget-mismatch weight and each cluster's effective budget is the
minimum over its members.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import _admits
from .partition import Partition, Pls, require_feasible, _sets_wad

__all__ = ["QkConfig", "eps_weight", "seed_centers", "assign_round", "qk_partition"]

# centers that all move less than this (km) have converged
_CENTER_TOL = 1e-6


@dataclass(frozen=True)
class QkConfig:
    """Search knobs: restarts per k, center iterations, seed."""

    max_samp: int = 10
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.max_samp < 1 or self.max_iter < 1:
            raise ValueError("max_samp and max_iter must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def eps_weight(eps_a, eps_b, lam):
    """Distance weight for a budget mismatch; ranges over [lam, 1 + lam].

    Equal budgets give the smallest weight (joining preferred); extreme
    mismatch approaches 1 + lam. Budgets may be arrays, which broadcast.
    """
    lo, hi = np.minimum(eps_a, eps_b), np.maximum(eps_a, eps_b)
    # lo's minimum is the smallest budget of either argument; a NaN budget makes it NaN
    if not lo.min() > 0:
        raise ValueError("budgets must be > 0")
    return 1.0 + lam - lo / hi


def seed_centers(domain, k, rng):
    """Pick k planar centers at location positions.

    The first is uniform over the domain; each next one is drawn from
    the remaining locations with probability proportional to its
    distance to the nearest center already chosen. Falls back to a
    uniform draw if every remaining distance is zero.
    """
    n = domain.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    chosen = [int(rng.integers(n))]
    nearest = domain.distances[chosen[0]].copy()  # distance to the nearest chosen center
    free = np.ones(n, dtype=bool)
    free[chosen[0]] = False
    while len(chosen) < k:
        remaining = np.flatnonzero(free)
        weights = nearest[remaining]
        total = weights.sum()
        if total > 0:
            pick = int(rng.choice(remaining, p=weights / total))
        else:
            pick = int(rng.choice(remaining))
        chosen.append(pick)
        free[pick] = False
        np.minimum(nearest, domain.distances[pick], out=nearest)
    return domain.positions[chosen].copy()


def _weighting(domain, personalized, weighted):
    """Whether the budget weight applies; it defaults to personalized."""
    if personalized and domain.personal_eps is None:
        raise ValueError("personalized search needs per-location budgets")
    if weighted and not personalized:
        raise ValueError("the budget weight needs personalized=True")
    return personalized if weighted is None else weighted


def assign_round(domain, centers, params, personalized=False, weighted=None):
    """One greedy fill of clusters around fixed planar centers.

    Returns (families, feasible): a member-id list per cluster in join
    order, and whether the fill placed every location and closed every
    cluster, which makes the families a valid partition. Filling runs
    in two phases: while open clusters remain, the globally nearest
    (location, open cluster) pair joins, and a cluster closes once it
    has at least two members and passes the error bound; once all
    clusters are closed the leftovers, nearest to any center first, join
    their nearest cluster whose bound survives the addition, trying
    clusters nearest-first. A leftover that breaks every cluster stays
    out and makes the round infeasible; so does a cluster still open
    when every location is placed.
    """
    weighted = _weighting(domain, personalized, weighted)
    centers = np.asarray(centers, dtype=float)
    k = len(centers)
    n = domain.n
    em, lam = params.em, params.lam
    dist = domain.distances
    prior_of = domain.priors.tolist()
    eps_of = domain.personal_eps.tolist() if personalized else None

    base = np.linalg.norm(domain.positions[:, None, :] - centers[None, :, :], axis=2)
    live = base.copy()  # joining cost, inf on placed rows and closed columns
    members = [[] for _ in range(k)]
    cluster_eps = [math.inf if personalized else params.eps] * k
    sums = np.zeros((k, n))  # sums[j, c]: prior-weighted distance from c to cluster j
    mass = [0.0] * k
    assigned = np.zeros(n, dtype=bool)
    placed = closed = 0

    def join(i, j, new_sums):
        """Add i to cluster j, whose sums become new_sums; True when its budget drops."""
        members[j].append(i)
        assigned[i] = True
        sums[j] = new_sums
        mass[j] += prior_of[i]
        if personalized and eps_of[i] < cluster_eps[j]:
            cluster_eps[j] = eps_of[i]
            return True
        return False

    while placed < n and closed < k:
        i, j = divmod(int(live.argmin()), k)
        live[i] = np.inf
        placed += 1
        if join(i, j, sums[j] + prior_of[i] * dist[i]) and weighted:
            live[:, j] = base[:, j] * eps_weight(domain.personal_eps, cluster_eps[j], lam)
            live[assigned, j] = np.inf
        if len(members[j]) >= 2 and _admits(
            domain, members[j], float(sums[j].min()), mass[j], cluster_eps[j], em
        ):
            live[:, j] = np.inf
            closed += 1

    feasible = closed == k
    # leftovers remain only once every cluster is closed; they go by plain
    # distance, the budget weight only steers the first phase
    leftovers = np.flatnonzero(~assigned)
    leftovers = leftovers[np.argsort(base[leftovers].min(axis=1), kind="stable")]
    nearest_first = np.argsort(base[leftovers], axis=1, kind="stable").tolist()
    for i, order in zip(leftovers.tolist(), nearest_first):
        p = prior_of[i]
        row = p * dist[i]
        # trial sums are formed per cluster tried: a leftover nearly always
        # joins the first cluster it tries
        for j in order:
            trial = sums[j] + row
            trial_eps = min(cluster_eps[j], eps_of[i]) if personalized else cluster_eps[j]
            if _admits(domain, members[j] + [i], float(trial.min()), mass[j] + p, trial_eps, em):
                join(i, j, trial)
                break
        else:
            feasible = False
    return members, feasible


def _search_k(domain, params, config, k, personalized, weighted):
    """Best feasible family over restarts and center iterations, with its
    weighted mean diameter; (None, inf) when no round is feasible.

    A fill depends only on its centers, so a round whose centers were
    already filled for this k (a restart meeting an earlier one, or
    centers cycling without converging) replays the recorded move
    instead of filling again. A replay cannot change the best family:
    its weighted mean diameter was already compared once. Most clusters
    recur from round to round, so their masses and diameters are kept.
    """
    best = None
    best_w = math.inf
    moves = {}  # centers bytes -> (next centers, largest center move)
    known = {}  # sorted members -> (mass, diameter)
    for restart in range(config.max_samp):
        rng = np.random.default_rng([config.seed, k, restart])
        centers = seed_centers(domain, k, rng)
        for _ in range(config.max_iter):
            key = centers.tobytes()
            if key not in moves:
                family, feasible = assign_round(domain, centers, params, personalized, weighted)
                if feasible:
                    w = _sets_wad(domain, family, known)
                    if w < best_w:
                        best, best_w = family, w
                new_centers = np.array([
                    domain.positions[f].mean(axis=0) if f else centers[j]
                    for j, f in enumerate(family)
                ])
                moved = float(np.linalg.norm(new_centers - centers, axis=1).max())
                moves[key] = (new_centers, moved)
            centers, moved = moves[key]
            if moved < _CENTER_TOL:
                break
    return best, best_w


def qk_partition(domain, params, config=None, personalized=False, weighted=None):
    """Search k = 1, 2, ... while the weighted mean diameter improves.

    Starts from the whole domain as the single (k=1) fallback, grows k
    while a feasible family exists whose weighted mean diameter does not
    exceed the previous k's, and returns the last accepted family. The
    budget for the feasibility of the whole domain is the minimum
    per-location budget when personalized, the uniform one otherwise.
    """
    if config is None:
        config = QkConfig()
    weighted = _weighting(domain, personalized, weighted)
    if domain.n < 2:
        raise ValueError("partitioning needs at least 2 locations")
    whole_eps = float(domain.personal_eps.min()) if personalized else params.eps
    require_feasible(domain, whole_eps, params.em)

    everyone = list(domain.ids)
    accepted = [everyone]
    accepted_w = _sets_wad(domain, [everyone])
    k = 2
    while k <= domain.n // 2:
        family, w = _search_k(domain, params, config, k, personalized, weighted)
        if family is None or w > accepted_w:
            break
        accepted, accepted_w = family, w
        k += 1

    plss = tuple(
        Pls.build(domain, f, float(domain.personal_eps[f].min()) if personalized else params.eps)
        for f in accepted
    )
    mode = "personalized" if personalized else "uniform"
    if personalized and not weighted:
        mode += ",unweighted"
    part = Partition(
        plss, params, f"qk(seed={config.seed},k={len(plss)},{mode})"
    )
    part.validate(domain)
    return part
