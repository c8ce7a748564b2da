"""Brute-force reference implementations, deliberately naive.

The metric references are pure Python over scalar floats so the
arithmetic path shares nothing with the package's vectorized code. The
qk fill reference keeps the original numpy fill, which decides every
admission with the exact test, and the sampler and task-assignment
references keep the original Generator.choice draw and per-task loop.
Used to cross-check the optimized versions on fixtures and random
instances.
"""

import math
from dataclasses import dataclass

import numpy as np

from locobf.domain import _admits, satisfies_error_bound
from locobf.partition import _sets_wad
from locobf.qkmeans import eps_weight


def brute_distance(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def brute_diameter(domain, ids):
    ids = list(ids)
    pos = domain.positions.tolist()
    best = 0.0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = brute_distance(pos[ids[i]], pos[ids[j]])
            if d > best:
                best = d
    return best


def brute_min_mean_distance(domain, ids, candidates=None):
    # E': minimize over candidate guesses the prior-weighted mean
    # distance to the set's members; candidates default to the whole domain
    ids = list(ids)
    if candidates is None:
        candidates = range(domain.n)
    pos, priors = domain.positions.tolist(), domain.priors.tolist()
    mass = sum(priors[i] for i in ids)
    best = None
    for c in candidates:
        cpos = pos[c]
        total = 0.0
        for i in ids:
            total += priors[i] * brute_distance(cpos, pos[i])
        val = total / mass
        if best is None or val < best:
            best = val
    return best


def brute_min_mean_distance_within(domain, ids):
    return brute_min_mean_distance(domain, ids, candidates=list(ids))


def brute_posterior(domain, rows, pseudo):
    priors = domain.priors.tolist()
    joint = [priors[x] * rows[x][pseudo] for x in range(domain.n)]
    marginal = sum(joint)
    return [v / marginal for v in joint]


def brute_optimal_attack(domain, rows, pseudo):
    post = brute_posterior(domain, rows, pseudo)
    pos = domain.positions.tolist()
    best_id, best_cost = None, None
    for guess in range(domain.n):
        gpos = pos[guess]
        cost = 0.0
        for x in range(domain.n):
            cost += post[x] * brute_distance(gpos, pos[x])
        if best_cost is None or cost < best_cost:
            best_id, best_cost = guess, cost
    return best_id, best_cost


def brute_cond_err(domain, rows, pseudo):
    return brute_optimal_attack(domain, rows, pseudo)[1]


def brute_avg_error(domain, rows, true_id):
    # optimal-attack distance from true_id, averaged over true_id's reports
    positions = domain.positions.tolist()
    pos = positions[true_id]
    total = 0.0
    for pseudo in range(domain.n):
        guess = brute_optimal_attack(domain, rows, pseudo)[0]
        total += rows[true_id][pseudo] * brute_distance(positions[guess], pos)
    return total


def brute_success_prob(domain, rows, true_id):
    # chance that the posterior mode (lowest id on ties) is true_id
    total = 0.0
    for pseudo in range(domain.n):
        post = brute_posterior(domain, rows, pseudo)
        if post.index(max(post)) == true_id:
            total += rows[true_id][pseudo]
    return total


# The qk center seeding and greedy fill as first written: the seeding
# rebuilds the remaining set and its nearest-center distances per draw,
# the fill takes a fresh masked copy of the cost matrix per join and one
# exact admission test per join and per trial. The package's versions
# must draw the same centers and return the same member lists in the
# same join order.


def reference_seed_centers(domain, k, rng):
    n = domain.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        remaining = np.array([i for i in range(n) if i not in set(chosen)])
        weights = domain.distances[np.ix_(remaining, chosen)].min(axis=1)
        total = weights.sum()
        if total > 0:
            pick = rng.choice(remaining, p=weights / total)
        else:
            pick = rng.choice(remaining)
        chosen.append(int(pick))
    return domain.positions[chosen].copy()


def _mismatch_column(domain, base_col, cluster_eps, lam):
    # effective joining distance against a cluster with budget cluster_eps
    weights = 1.0 + lam - np.minimum(domain.personal_eps, cluster_eps) / np.maximum(
        domain.personal_eps, cluster_eps
    )
    return base_col * weights


def reference_assign_round(domain, centers, params, personalized=False, weighted=None):
    """One greedy fill of clusters around fixed planar centers.

    Returns (families, complete): a member-id list per cluster, and
    whether every location found a home. Filling runs in two phases:
    while open clusters remain, the globally nearest (location, open
    cluster) pair joins, and a cluster closes once it has at least two
    members and passes the error bound; once all clusters are closed the
    leftovers join their nearest cluster whose bound survives the
    addition, trying clusters nearest-first. A leftover that breaks
    every cluster marks the round incomplete.
    """
    if weighted is None:
        weighted = personalized
    if personalized and domain.personal_eps is None:
        raise ValueError("personalized assignment needs per-location budgets")
    centers = np.asarray(centers, dtype=float)
    k = len(centers)
    n = domain.n
    em, lam = params.em, params.lam

    base = np.linalg.norm(domain.positions[:, None, :] - centers[None, :, :], axis=2)
    cost = base.copy()
    members = [[] for _ in range(k)]
    cluster_eps = [None] * k
    closed = np.zeros(k, dtype=bool)
    assigned = np.zeros(n, dtype=bool)

    def budget_of(j):
        if personalized:
            return cluster_eps[j]
        return params.eps

    def join(i, j):
        members[j].append(i)
        assigned[i] = True
        if personalized:
            e = float(domain.personal_eps[i])
            if cluster_eps[j] is None or e < cluster_eps[j]:
                cluster_eps[j] = e
                if weighted:
                    cost[:, j] = _mismatch_column(domain, base[:, j], e, lam)

    while not assigned.all() and not closed.all():
        masked = np.where(assigned[:, None] | closed[None, :], np.inf, cost)
        flat = int(masked.argmin())
        i, j = divmod(flat, k)
        join(i, j)
        if len(members[j]) >= 2 and satisfies_error_bound(domain, members[j], budget_of(j), em):
            closed[j] = True

    complete = True
    while not assigned.all():
        # all clusters are closed; leftovers go by plain distance, the
        # budget weight only steers the first phase
        masked = np.where(assigned[:, None], np.inf, base)
        per_loc = masked.min(axis=1)
        i = int(per_loc.argmin())
        placed = False
        for j in np.argsort(base[i], kind="stable"):
            j = int(j)
            trial = members[j] + [i]
            trial_eps = budget_of(j)
            if personalized:
                trial_eps = min(trial_eps, float(domain.personal_eps[i]))
            if satisfies_error_bound(domain, trial, trial_eps, em):
                join(i, j)
                placed = True
                break
        if not placed:
            assigned[i] = True  # keep scanning so the failure is total, not positional
            complete = False
    if not complete:
        return members, False
    return members, True


def reference_feasible(domain, family, params, personalized):
    """Every family has two members and passes the bound at its budget."""
    for f in family:
        if personalized:
            eps = float(domain.personal_eps[list(f)].min()) if f else None
        else:
            eps = params.eps
        if len(f) < 2 or not satisfies_error_bound(domain, f, eps, params.em):
            return False
    return True


def reference_sample_pseudo(matrix, true_id, rng, size=None):
    # the original sampler: Generator.choice with the row as p
    if not 0 <= true_id < matrix.n:
        raise ValueError(f"unknown location id {true_id}")
    draw = rng.choice(matrix.n, size=size, p=matrix.rows[true_id])
    if size is None:
        return int(draw)
    return draw


def reference_worker_travel_distance(domain, matrix, tasks, idle_count, rng):
    # the original per-task loop: one draw per idle worker, one lexsort per task
    tasks = np.atleast_2d(np.asarray(tasks, dtype=float))
    if tasks.shape[1] != 2:
        raise ValueError("tasks must be planar positions")
    if len(tasks) == 0:
        raise ValueError("need at least one task")
    if idle_count < 3:
        raise ValueError("need at least 3 idle workers")
    if idle_count > domain.n:
        raise ValueError("idle_count exceeds the number of workers")
    idle = np.sort(rng.choice(domain.n, size=idle_count, replace=False))
    reports = np.array([reference_sample_pseudo(matrix, int(w), rng) for w in idle])
    reported = domain.positions[reports]
    actual = domain.positions[idle]
    totals = []
    for task in tasks:
        by_report = np.linalg.norm(reported - task, axis=1)
        chosen = np.lexsort((idle, by_report))[:3]
        totals.append(float(np.linalg.norm(actual[chosen] - task, axis=1).mean()))
    return float(np.mean(totals))


# The domain as first written: each builder made one Location record per
# row, and the domain sorted the records by id, divided every prior by
# their Python-summed total and took the distance matrix from the record
# positions. The curve ordering ranked one record at a time with the
# scalar walk below and sorted (rank, id) pairs. The package builds from
# arrays and ranks whole arrays; both must give the same bits.


def reference_distances(positions):
    # one broadcast hypot over the whole n x n difference arrays
    dx = positions[:, 0][:, None] - positions[:, 0][None, :]
    dy = positions[:, 1][:, None] - positions[:, 1][None, :]
    return np.hypot(dx, dy)


@dataclass(frozen=True)
class ReferenceLocation:
    id: int
    pos: tuple
    prior: float
    eps: float | None = None


class ReferenceDomain:
    def __init__(self, locations):
        locs = sorted(locations, key=lambda loc: loc.id)
        total = float(sum(loc.prior for loc in locs))
        self.locations = tuple(
            ReferenceLocation(loc.id, (float(loc.pos[0]), float(loc.pos[1])),
                              loc.prior / total, loc.eps)
            for loc in locs
        )
        self.n = len(self.locations)
        self.positions = np.array([loc.pos for loc in self.locations], dtype=float)
        self.priors = np.array([loc.prior for loc in self.locations], dtype=float)
        if locs[0].eps is not None:
            self.personal_eps = np.array([loc.eps for loc in self.locations], dtype=float)
        else:
            self.personal_eps = None
        self.distances = reference_distances(self.positions)


def reference_synth_domain(n, cell_km=1.0, prior_low=0.01, prior_high=0.03, seed=0,
                           grid_side=16):
    rng = np.random.default_rng(seed)
    flat = rng.choice(grid_side * grid_side, size=n, replace=False)
    xs = (flat % grid_side + 0.5) * cell_km
    ys = (flat // grid_side + 0.5) * cell_km
    priors = rng.uniform(prior_low, prior_high, size=n)
    return ReferenceDomain(
        [ReferenceLocation(i, (float(xs[i]), float(ys[i])), float(priors[i])) for i in range(n)]
    )


def reference_assign_personal_eps(domain, low, high, seed):
    rng = np.random.default_rng(seed)
    eps = rng.uniform(low, high, size=domain.n)
    return ReferenceDomain([
        ReferenceLocation(loc.id, loc.pos, loc.prior, float(eps[i]))
        for i, loc in enumerate(domain.locations)
    ])


def _reference_fold(side, x, y, rx, ry):
    if ry == 0:
        if rx == 1:
            x = side - 1 - x
            y = side - 1 - y
        x, y = y, x
    return x, y


def reference_hilbert_rank(cell_x, cell_y, order):
    side = 1 << order
    x, y = cell_x, cell_y
    rank = 0
    s = side >> 1
    while s > 0:
        rx = 1 if x & s else 0
        ry = 1 if y & s else 0
        rank += s * s * ((3 * rx) ^ ry)
        x, y = _reference_fold(side, x, y, rx, ry)
        s >>= 1
    return rank


def reference_rotate_cell(cell, side, rotation):
    x, y = cell
    return {0: (x, y), 90: (y, side - 1 - x), 180: (side - 1 - x, side - 1 - y),
            270: (side - 1 - y, x)}[rotation]


def reference_order_ids(domain, order=None, rotation=0, cell_km=1.0):
    """Location ids in walk order, one scalar rank per location."""
    if domain.n == 1:
        return [0]
    mins = domain.positions.min(axis=0)
    if order is None:
        span = float((domain.positions.max(axis=0) - mins).max())
        order = 0
        while (1 << order) < span / cell_km:
            order += 1
    side = 1 << order
    keyed = []
    for loc in domain.locations:
        cx = min(int((loc.pos[0] - mins[0]) / cell_km), side - 1)
        cy = min(int((loc.pos[1] - mins[1]) / cell_km), side - 1)
        rx, ry = reference_rotate_cell((cx, cy), side, rotation)
        keyed.append((reference_hilbert_rank(rx, ry, order), loc.id))
    keyed.sort()
    return [loc_id for _, loc_id in keyed]


# The release path as first written: the matrix built one group at a
# time, each group's rows scored, exponentiated and normalized in their
# own temporary; and the attack table from the whole posterior, with the
# avg_err and success products taken over all n x n entries at once. The
# package builds both with fewer n x n arrays and must give the same bits.


def reference_exp_rows(domain, groups):
    """Rows from (row ids, diameter, eps) groups, one group at a time.

    Exponents are capped below at -690, as in the package.
    """
    n = domain.n
    rows = np.empty((n, n), dtype=float)
    for ids, diam, eps in groups:
        scale = eps / (2.0 * diam)
        weights = np.maximum(-scale * domain.distances[ids, :], -690.0)
        np.exp(weights, out=weights)
        totals = weights.sum(axis=1)
        weights /= totals[:, None]
        rows[ids, :] = weights
    return rows


def reference_compute_metrics(domain, rows):
    """(exp_err, qloss, cond_err, avg_err, success) from whole-matrix products."""
    weighted = domain.priors[:, None] * rows
    marginal = weighted.sum(axis=0)
    post = weighted / marginal[None, :]
    attack_costs = domain.distances @ post
    cond = attack_costs.min(axis=0)
    attack = attack_costs.argmin(axis=0)
    mode = post.argmax(axis=0)
    exp_err = float(cond @ marginal)
    qloss = float((domain.priors[:, None] * rows * domain.distances).sum())
    avg = (rows * domain.distances[attack, :].T).sum(axis=1)
    hit = mode[None, :] == np.arange(len(rows))[:, None]
    success = (rows * hit).sum(axis=1)
    return exp_err, qloss, cond, avg, success


# The qk fill and per-k search as they stood before the restarts were
# filled together: one fill per call, restarts one after another. Copied
# unchanged except for their names, the seeding reference, and the
# optional `rounds` list, which records (restart, centers bytes,
# (families, feasible) or None for a replay) for every round. The package's batched
# search must return the same best family and weighted mean diameter
# and make the same fills.

_CENTER_TOL = 1e-6


def _weighting(domain, personalized, weighted):
    """Whether the budget weight applies; it defaults to personalized."""
    if personalized and domain.personal_eps is None:
        raise ValueError("personalized search needs per-location budgets")
    if weighted and not personalized:
        raise ValueError("the budget weight needs personalized=True")
    return personalized if weighted is None else weighted


def serial_assign_round(domain, centers, params, personalized=False, weighted=None):
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


def serial_search_k(domain, params, config, k, personalized, weighted, rounds=None):
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
        centers = reference_seed_centers(domain, k, rng)
        for _ in range(config.max_iter):
            key = centers.tobytes()
            if key not in moves:
                family, feasible = serial_assign_round(domain, centers, params, personalized, weighted)
                if rounds is not None:
                    rounds.append((restart, key, (family, feasible)))
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
            elif rounds is not None:
                rounds.append((restart, key, None))
            centers, moved = moves[key]
            if moved < _CENTER_TOL:
                break
    return best, best_w
