"""Planar cluster search for protection sets.

Alternative to the curve walk: centers are seeded distance-
proportionally, locations greedily join their nearest still-open
cluster until every cluster passes the error bound, and the cluster
count k grows as long as the mass-weighted mean diameter keeps
improving. With per-location budgets the joining distance is scaled by
a budget-mismatch weight and each cluster's effective budget is the
minimum over its members.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import _admits, _margin, _planar_distances
from .mechanism import _choice_cdf
from .partition import Partition, Pls, require_feasible, _sets_wad

__all__ = ["QkConfig", "eps_weight", "seed_centers", "assign_round", "qk_partition"]

# centers that all move less than this (km) have converged
_CENTER_TOL = 1e-6
# floats of leftover rows (n each) per batch of the leftover phase, whose
# stack holds a few such rows per leftover: a batch of fills holds at most
# this many plus its last fill's, however many restarts are filled together
_LEFTOVER_FLOATS = 2**17


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
            # the id and rng use of rng.choice(remaining, p=weights / total)
            cdf = _choice_cdf(weights / total)
            pick = int(remaining[cdf.searchsorted(rng.random(), side="right")])
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


def assign_round(domain, centers, params, personalized=False, weighted=None, answers=None):
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

    centers of shape (k, 2) make one fill; a stack of shape (R, k, 2)
    makes R independent fills and returns a list of R such pairs, each
    equal to its own single call. answers, when a list, receives per
    fill the admission answers it gave, reduced by _answers to what can
    change them, so that the fill can be replayed under other parameters.
    """
    weighted = _weighting(domain, personalized, weighted)
    centers = np.asarray(centers, dtype=float)
    stack = centers.reshape(-1, *centers.shape[-2:])
    fills, k = stack.shape[:2]
    n = domain.n
    # base[r, i, j]: distance from location i to center j of fill r
    base = _planar_distances(domain.positions[:, 0, None], domain.positions[:, 1, None],
                             stack[:, None, :, 0], stack[:, None, :, 1])
    # row i is what location i adds to a cluster's prior-weighted distance sums
    table = domain.priors[:, None] * domain.distances
    sums = np.zeros((fills, k, n))  # sums[r, j, c]: prior-weighted distance from c to cluster j
    assigned = np.zeros((fills, n), dtype=bool)
    prior_of = domain.priors.tolist()
    eps_of = domain.personal_eps.tolist() if personalized else None
    # row i weighs the joining distances to a cluster whose budget is location i's
    mismatch = None
    if weighted:
        mismatch = eps_weight(domain.personal_eps[:, None], domain.personal_eps, params.lam)
    # the decisions of every fill: phase 1's per fill, the leftover phase's as arrays
    logs = None if answers is None else [[] for _ in range(fills)]
    later = []

    def record_later(lo):
        return None if logs is None else lambda d: later.append((d[0] + lo, *d[1:]))

    members, mass, cluster_eps, closed = zip(*(
        _join_nearest(domain, b, table, s, a, params, prior_of, eps_of, mismatch,
                      None if logs is None else logs[r])
        for r, (b, s, a) in enumerate(zip(base, sums, assigned))
    ))
    budgets = domain.personal_eps if personalized else np.full(n, params.eps)
    mass, cluster_eps = np.array(mass), np.array(cluster_eps)
    # fills go through the leftover phase in batches of about _LEFTOVER_FLOATS
    left = (~assigned).sum(axis=1)
    batch = (np.cumsum(left) - left) * n // _LEFTOVER_FLOATS
    cuts = np.flatnonzero(np.diff(batch, prepend=-1)).tolist() + [fills]
    placed = np.concatenate([
        _place_leftovers(domain, base[lo:hi], table, members[lo:hi], sums[lo:hi], mass[lo:hi],
                         cluster_eps[lo:hi], assigned[lo:hi], budgets, params.em, record_later(lo))
        for lo, hi in zip(cuts, cuts[1:])
    ])
    if answers is not None:
        first = np.array([d for log in logs for d in log]).reshape(-1, 4).T
        later.append((np.repeat(np.arange(fills), [len(log) for log in logs]), *first))
        answers.extend(_answers(*map(np.concatenate, zip(*later)), fills, personalized,
                                _margin(n)))
    results = [(family, bool(c and p)) for family, c, p in zip(members, closed, placed)]
    return results[0] if centers.ndim == 2 else results


def _join_nearest(domain, base, table, sums, assigned, params, prior_of, eps_of, mismatch,
                  log):
    """The first phase of one fill, filling sums and assigned in place;
    mismatch holds the budget weights when they apply, else None, and
    log, when given, receives every admission decision (see _admits).

    Returns (families, masses, budgets, whether every cluster closed).
    """
    n, k = base.shape
    em = params.em
    personalized = eps_of is not None
    live = base.copy()  # joining cost, inf on placed rows and closed columns
    members = [[] for _ in range(k)]
    cluster_eps = [math.inf if personalized else params.eps] * k
    mass = [0.0] * k
    placed = closed = 0
    while placed < n and closed < k:
        i, j = divmod(int(live.argmin()), k)
        live[i] = np.inf
        placed += 1
        members[j].append(i)
        assigned[i] = True
        sums[j] += table[i]
        mass[j] += prior_of[i]
        if personalized and eps_of[i] < cluster_eps[j]:
            cluster_eps[j] = eps_of[i]
            if mismatch is not None:
                live[:, j] = base[:, j] * mismatch[i]
                live[assigned, j] = np.inf
        if len(members[j]) >= 2 and _admits(
            domain, members[j], float(sums[j].min()), mass[j], cluster_eps[j], em,
            None if log is None else log.append
        ):
            live[:, j] = np.inf
            closed += 1
    return members, mass, cluster_eps, closed == k


def _place_leftovers(domain, base, table, members, sums, mass, cluster_eps, assigned, budgets, em,
                     record):
    """The second phase of every fill at once; per fill, whether every leftover found a cluster.

    Leftovers remain only once every cluster of their fill is closed;
    they go by plain distance, the budget weight only steers the first
    phase. Nearly every leftover joins the first cluster it tries, so
    each pass assumes that all of them do: per (fill, cluster) group the
    running sums, masses and budgets of those joins are prefix sums along
    the leading axis of a (depth + 1, groups, n) stack, summed in join
    order as one join at a time sums them. Every fill keeps its leading
    run of admitted joins; its first refused leftover stays at the head
    of its queue and tries its next-nearest cluster in the next pass, and
    after k refusals it stays out and the fill is incomplete. The
    members, the (fills, k, n) sums and the (fills, k) masses and budgets
    are updated in place; assigned marks the first phase's placements.
    record, when given, is called once per pass with the decisions the
    joins depend on, the taken ones and each refusal that ends them: the
    tuple (fill, floor, scale, certified, answer) of arrays, floor to
    answer as domain._admits gives them.
    """
    fills, n, k = base.shape
    sums = sums.reshape(fills * k, n)
    mass, cluster_eps = mass.reshape(-1), cluster_eps.reshape(-1)
    complete = np.ones(fills, dtype=bool)
    # every fill's leftovers in order, nearest to any center first
    rr, ii = np.nonzero(~assigned)
    order = np.lexsort((base[rr, ii].min(axis=1), rr))
    rr, ii = rr[order], ii[order]
    nearest = base[rr, ii].argmin(axis=1)
    tries = np.zeros_like(rr)  # clusters that refused each leftover so far
    while len(rr):
        group = rr * k + nearest
        by_group = np.argsort(group, kind="stable")
        heads = np.flatnonzero(np.diff(group[by_group], prepend=-1))
        sizes = np.diff(heads, append=len(group))
        groups = group[by_group[heads]]
        col = np.empty_like(group)
        col[by_group] = np.repeat(np.arange(len(groups)), sizes)
        depth = np.empty_like(group)  # 1 for a group's first leftover, 2 for its second, ...
        depth[by_group] = np.arange(len(group)) - np.repeat(heads, sizes) + 1
        run_sums = np.zeros((sizes.max() + 1, len(groups), n))
        run_sums[0] = sums[groups]
        run_sums[depth, col] = table[ii]
        np.cumsum(run_sums, axis=0, out=run_sums)
        run_mass = np.zeros((len(run_sums), len(groups)))
        run_mass[0] = mass[groups]
        run_mass[depth, col] = domain.priors[ii]
        np.cumsum(run_mass, axis=0, out=run_mass)
        run_eps = np.full_like(run_mass, math.inf)
        run_eps[0] = cluster_eps[groups]
        run_eps[depth, col] = budgets[ii]
        np.minimum.accumulate(run_eps, axis=0, out=run_eps)

        def trial_members(t):
            c = col[t]
            joined = ii[by_group[heads[c]:heads[c] + depth[t]]]
            return members[rr[t]][nearest[t]] + joined.tolist()

        decided = []
        admitted = _admits(domain, trial_members, run_sums.min(axis=2)[depth, col],
                           run_mass[depth, col], run_eps[depth, col], em,
                           None if record is None else decided.extend)
        # each fill's entries are contiguous; cut is its first refused one, or its end
        starts = np.flatnonzero(np.diff(rr, prepend=-1))
        ends = np.append(starts[1:], len(rr))
        refused = np.append(np.flatnonzero(~admitted), len(rr))
        cut = np.minimum(refused[np.searchsorted(refused, starts)], ends)
        at = np.arange(len(rr))
        taken = at < np.repeat(cut, ends - starts)
        if record is not None:  # the entries after a refusal were never asked for
            used = at <= np.repeat(cut, ends - starts)
            record((rr[used], *(a[used] for a in decided)))
        for r, j, i in zip(rr[taken].tolist(), nearest[taken].tolist(), ii[taken].tolist()):
            members[r][j].append(i)
        # a group's taken joins lead its entries, so its state is the prefix sum after them
        last = np.bincount(col[taken], minlength=len(groups)), np.arange(len(groups))
        sums[groups] = run_sums[last]
        mass[groups] = run_mass[last]
        cluster_eps[groups] = run_eps[last]
        stuck = cut[cut < ends]
        if not len(stuck):  # every fill took all its leftovers
            break
        tries[stuck] += 1
        complete[rr[stuck[tries[stuck] == k]]] = False
        # the next cluster by np.argsort(base[r, i], kind="stable"); unused once all k refused
        ranked = np.argsort(base[rr[stuck], ii[stuck]], axis=1, kind="stable")
        nearest[stuck] = ranked[np.arange(len(stuck)), tries[stuck] % k]
        keep = (at >= np.repeat(cut, ends - starts)) & (tries < k)
        rr, ii, nearest, tries = rr[keep], ii[keep], nearest[keep], tries[keep]
    return complete


def _next_centers(domain, centers, families):
    """Every fill's next centers and its largest center move.

    A cluster's next center is its members' mean position, summed in
    join order from +0.0 by one np.bincount per axis. numpy's
    positions[members].mean(axis=0) sums the rows in the same order from
    the same +0.0, so the floats are equal, signed zeros included
    (test_next_centers_match_mean checks this). An empty cluster keeps
    its center. centers has shape (fills, k, 2).
    """
    fills, k = centers.shape[:2]
    sizes = [len(f) for family in families for f in family]
    ids = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(families)),
                      dtype=np.intp, count=sum(sizes))
    sizes = np.array(sizes)
    labels = np.repeat(np.arange(fills * k), sizes)
    placed = domain.positions[ids]
    totals = np.column_stack([np.bincount(labels, weights=placed[:, a], minlength=fills * k)
                              for a in (0, 1)])
    nxt = centers.reshape(fills * k, 2).copy()
    filled = sizes > 0
    nxt[filled] = totals[filled] / sizes[filled, None]
    nxt = nxt.reshape(fills, k, 2)
    return nxt, np.linalg.norm(nxt - centers, axis=2).max(axis=1)


def _limits(floor, scale, factor):
    """Per entry the largest float x >= 0 with (scale * x) * factor <= floor,
    for floors >= 0 and scales >= 1; inf for an infinite floor.

    Both products round monotonically, so the comparison holds for every
    x up to the limit and for none above it. The quotient is within a
    few ulps of the limit, and nextafter steps make it exact. (Near the
    float maximum scale * x can overflow first and the steps run long;
    a fill's floors stay below its span, which is below 2**512.)
    """
    x = floor / scale / factor  # scale first: floor / scale cannot overflow
    while True:
        up = np.nextafter(x, math.inf)
        step = np.where(scale * x * factor > floor, np.nextafter(x, -math.inf),
                        np.where(scale * up * factor <= floor, up, x))
        if (step == x).all():
            return x
        x = step


def _answers(fill, floor, scale, certified, answer, fills, personalized, rtol):
    """Per fill of one assign_round call, the interval (low, high] of x on
    which every admission answer it gave comes out the same.

    A fill depends on (eps, em) only through these answers: given the
    same answers it joins the same locations in the same order. The
    arrays hold one entry per decision of the call: its fill, and what
    decided its answer as domain._admits gives it to its recorder. An
    answer's threshold is scale * x. With per-location budgets scale is
    the set's math.exp(eps_S) and x = em, so eps does not enter. In
    uniform mode every set's budget is eps: scale is kept as 1.0 and x =
    math.exp(eps) * em, the same threshold float (1.0 * x == x).

    At another x an answer comes out the same when the comparison
    _admits made gives it again: floor >= threshold * factor, with
    factor 1 + rtol for a certified yes, 1 - rtol for a certified no and
    1.0 for an exact answer. That holds for every x up to _limits' limit
    and for none above it, so a yes holds on x <= its limit and a no on
    x > its limit. high is the smallest limit of a yes, low the largest
    of a no; +inf and -inf where a fill has none. A set of zero mass is
    refused at every threshold, so it is not kept.
    """
    keep = floor == floor  # not NaN, the floor of a set of zero mass
    fill, floor, yes = fill[keep].astype(np.intp), floor[keep], answer[keep] != 0
    scale = scale[keep] if personalized else np.ones_like(floor)
    factor = np.where(certified[keep] == 0, 1.0, np.where(yes, 1.0 + rtol, 1.0 - rtol))
    limit = _limits(floor, scale, factor)
    low, high = np.full(fills, -math.inf), np.full(fills, math.inf)
    np.maximum.at(low, fill[~yes], limit[~yes])
    np.minimum.at(high, fill[yes], limit[yes])
    return list(zip(low.tolist(), high.tolist()))


class _Search:
    """The qk search on one domain, keeping its fills across parameters.

    Built from (domain, config, personalized, weighted), as qk_partition
    takes them; partition(params) is qk_partition's result for params.
    With keep set, it keeps between calls each k's seeded centers, every
    cluster's (mass, diameter) and one record per fill made, so a later
    call replays a fill whose admission answers all come out the same
    under its params instead of filling again. A record holds the
    interval of x = em, or e^eps * em in uniform mode, on which the
    answers hold (see _answers), and agree checks x against it. The budget
    weight's lam changes the fill itself, so fills are kept per lam. A
    search asked once leaves keep unset: its fills are keyed by k, the
    keys of different k never meet, so it keeps no fill records and
    keeps cluster geometry for one k at a time.
    """

    def __init__(self, domain, config, personalized, weighted, keep=False):
        self.weighted = _weighting(domain, personalized, weighted)
        if domain.n < 2:
            raise ValueError("partitioning needs at least 2 locations")
        # the fill compares squared planar distances, which must stay finite
        dx, dy = (domain.positions.max(axis=0) - domain.positions.min(axis=0)).tolist()
        if not dx * dx + dy * dy < math.inf:
            raise ValueError(f"a span of {max(dx, dy):.6g} km is too wide for the qk fill: "
                             "its squared distances overflow float64")
        self.domain, self.config, self.personalized = domain, config, personalized
        self.id_type = np.min_scalar_type(domain.n)  # of the ids and sizes in packed families
        self.starts = {}  # k -> every restart's seeded centers, as bytes
        self.known = {}  # sorted members -> (mass, diameter)
        # lam (None without the weight) -> centers bytes -> records of the fills made from
        # them: (answers, _packed family or None when infeasible, w, next centers bytes
        # or None once the centers moved less than _CENTER_TOL); None without keep
        self.fills = {} if keep else None

    def partition(self, params):
        """Search k = 1, 2, ... as qk_partition does, under params."""
        domain, personalized = self.domain, self.personalized
        whole_eps = float(domain.personal_eps.min()) if personalized else params.eps
        require_feasible(domain, whole_eps, params.em)

        everyone = list(domain.ids)
        accepted = [everyone]
        accepted_w = _sets_wad(domain, [everyone])
        k = 2
        while k <= domain.n // 2:
            family, w = _search_k(self, params, k)
            if self.fills is None:  # asked once, so no later call meets this k's clusters
                self.known.clear()
            if family is None or w > accepted_w:
                break
            accepted, accepted_w = family, w
            k += 1

        plss = tuple(
            Pls.build(domain, f,
                      float(domain.personal_eps[f].min()) if personalized else params.eps)
            for f in accepted
        )
        mode = "personalized" if personalized else "uniform"
        if personalized and not self.weighted:
            mode += ",unweighted"
        part = Partition(
            plss, params, f"qk(seed={self.config.seed},k={len(plss)},{mode})"
        )
        part.validate(domain)
        return part

    def agree(self, answers, params):
        """Whether every answer of a fill comes out the same under params:
        whether x lies in the fill's interval (see _answers)."""
        low, high = answers
        return low < (params.em if self.personalized else math.exp(params.eps) * params.em) <= high

    def fill(self, keys, k, params):
        """The record of the fill from each centers bytes under params,
        replayed when one agrees and made otherwise."""
        keep = self.fills is not None
        fills = self.fills.setdefault(params.lam if self.weighted else None, {}) if keep else {}
        records = [next((f for f in fills.get(key, ()) if self.agree(f[0], params)), None)
                   for key in keys]
        missing = [key for key, record in zip(keys, records) if record is None]
        if missing:
            stack = np.frombuffer(b"".join(missing)).reshape(-1, k, 2)
            answers = [] if keep else None
            rounds = assign_round(self.domain, stack, params, self.personalized, self.weighted,
                                  answers)
            answers = answers or [None] * len(missing)
            families = [family for family, _ in rounds]
            nxt, moved = _next_centers(self.domain, stack, families)
            made = {}
            for key, (family, feasible), a, c, m in zip(missing, rounds, answers, nxt,
                                                        moved.tolist()):
                c = c.tobytes() if m >= _CENTER_TOL else None  # converged centers stop here
                if feasible:
                    w = _sets_wad(self.domain, family, self.known)
                    made[key] = (a, _packed(family, self.id_type), w, c)
                else:
                    made[key] = (a, None, math.inf, c)
                fills[key] = fills.get(key, ()) + (made[key],)
            records = [record or made[key] for key, record in zip(keys, records)]
        return records


def _packed(family, dtype):
    # a family as bytes of dtype: its cluster sizes, then every member in join order
    return np.array([len(f) for f in family] + [i for f in family for i in f],
                    dtype=dtype).tobytes()


def _unpacked(packed, k, dtype):
    # the k member lists of a _packed family, in join order
    values = np.frombuffer(packed, dtype=dtype).tolist()
    ids = iter(values[k:])
    return [list(itertools.islice(ids, size)) for size in values[:k]]


def _search_k(search, params, k):
    """Best feasible family over restarts and center iterations, with its
    weighted mean diameter; (None, inf) when no round is feasible.

    A fill depends only on its centers, so a round whose centers were
    already filled for this k (a restart meeting an earlier one, or
    centers cycling without converging) replays the recorded move
    instead of filling again. A replay cannot change the best family:
    its weighted mean diameter was already compared once.

    All restarts move forward together: at each iteration every distinct
    pending set of centers is filled in one assign_round call. The
    restarts are then walked one after another through the recorded
    moves, so the best family, its ties and each restart's stop are
    those of filling the restarts in turn. Centers are held as their
    bytes throughout.
    """
    config = search.config
    moves = {}  # centers bytes -> the record of its fill under params (see _Search)
    if k not in search.starts:
        search.starts[k] = [
            seed_centers(search.domain, k, np.random.default_rng([config.seed, k, restart]))
            .tobytes() for restart in range(config.max_samp)
        ]
    starts = live = search.starts[k]
    for _ in range(config.max_iter):
        pending = [key for key in dict.fromkeys(live) if key not in moves]
        moves.update(zip(pending, search.fill(pending, k, params)))
        live = [nxt for _, _, _, nxt in map(moves.get, live) if nxt is not None]
        if not live:
            break

    best_key, best_w = None, math.inf
    for key in starts:
        for _ in range(config.max_iter):
            _, _, w, nxt = moves[key]
            if w < best_w:
                best_key, best_w = key, w
            if nxt is None:
                break
            key = nxt
    if best_key is None:
        return None, best_w
    return _unpacked(moves[best_key][1], k, search.id_type), best_w


def qk_partition(domain, params, config=None, personalized=False, weighted=None):
    """Search k = 1, 2, ... while the weighted mean diameter improves.

    Starts from the whole domain as the single (k=1) fallback, grows k
    while a feasible family exists whose weighted mean diameter does not
    exceed the previous k's, and returns the last accepted family. The
    budget for the feasibility of the whole domain is the minimum
    per-location budget when personalized, the uniform one otherwise.
    """
    return _Search(domain, config or QkConfig(), personalized, weighted).partition(params)
